import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import ALPHA01, d18_domain  # noqa: E402

from apdfilter import automata  # noqa: E402
from apdfilter.automata import cyclic_domain  # noqa: E402

# every property test runs the same examples on every run, with no example
# database and no per-example deadline; each test states only max_examples
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def alpha01():
    return ALPHA01


@pytest.fixture(scope="session")
def d18():
    return d18_domain()


@pytest.fixture(scope="session")
def cyc001():
    return cyclic_domain("001", ALPHA01)


@pytest.fixture(scope="session")
def runs01():
    return [cyclic_domain("0", ALPHA01), cyclic_domain("1", ALPHA01)]


@pytest.fixture
def determinize_calls(monkeypatch):
    """A list that records the input of every subset construction, wherever
    an ``apdfilter`` module holds ``determinize``."""
    calls = []
    determinize = automata.determinize

    def counted(fa):
        calls.append(fa)
        return determinize(fa)

    for name, mod in list(sys.modules.items()):
        if name.startswith("apdfilter") and getattr(mod, "determinize", None) is determinize:
            monkeypatch.setattr(mod, "determinize", counted)
    return calls
