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


def _record_calls(monkeypatch, name: str) -> list:
    """A list that records the argument of every call to ``automata.<name>``,
    wherever an ``apdfilter`` module holds that function."""
    calls = []
    original = getattr(automata, name)

    def counted(arg):
        calls.append(arg)
        return original(arg)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("apdfilter") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def determinize_calls(monkeypatch):
    """The input of every ``determinize`` call."""
    return _record_calls(monkeypatch, "determinize")


@pytest.fixture
def build_tracker_calls(monkeypatch):
    """The domains of every ``build_tracker`` call."""
    return _record_calls(monkeypatch, "build_tracker")
