"""What importing the package and running a command load, and the public
names the package exports.

The start-up checks run a fresh interpreter, since this test process has
loaded every module long before."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import apdfilter

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# the package's public names, by the submodule that defines them
PUBLIC = {
    "automata": [
        "Alphabet", "Domain", "FiniteAutomaton", "Tracker", "accepts", "build_tracker",
        "complement", "cyclic_domain", "determinize", "difference", "disjoint_union",
        "equivalent", "intersect", "is_empty", "minimize",
    ],
    "ca": [
        "CARule", "CodedDiagram", "SpaceTimeDiagram", "evolve", "filter_diagram",
        "random_row", "rule_from_number",
    ],
    "optimizer": ["OptimizeError", "SplitDomain", "optimize"],
    "stackfilter": ["FilterStats", "MaximalCover", "filter_global", "filter_local"],
    "transducer": [
        "AMBIGUOUS", "Ambiguous", "DomainBreak", "DomainLabel", "OutputSymbol",
        "ResyncReport", "Transducer", "bidirectional", "bidirectional_filters",
        "build_filter", "resync", "transduce", "transduce_codes",
    ],
}


def loaded_after(code: str) -> set[str]:
    """The ``apdfilter`` submodules a fresh interpreter holds after ``code``."""
    probe = "\nimport sys\nprint(*(m.split('.', 1)[1] for m in sys.modules if m.startswith('apdfilter.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code + probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestStartup:
    def test_importing_the_cli_loads_no_filter_module(self):
        assert loaded_after("import apdfilter.cli") == {"cli"}

    def test_importing_the_package_loads_no_submodule(self):
        assert loaded_after("import apdfilter") == set()

    @pytest.mark.parametrize("argv, unused", [
        (["build", "--domains", str(GOLDEN / "rule110.dom")], {"ca", "optimizer", "render", "stackfilter"}),
        (["run", "--filter", str(GOLDEN / "rule110.tdx"), "--input", "0110"],
         {"ca", "domspec", "optimizer", "stackfilter"}),
        (["run", "--filter", str(GOLDEN / "rule110.tdx"), "--input", "0110", "--bidi",
          "--domains", str(GOLDEN / "rule110.dom")], {"optimizer", "stackfilter"}),
        (["ca", "--rule", "110", "--width", "8", "--steps", "2", "--init", "random:1"],
         {"automata", "domspec", "optimizer", "render", "stackfilter", "tdx", "transducer"}),
        # the stack cover writes through ``render``, which loads ``transducer`` only for ``symbol_code``
        (["ca-filter", "--method", "stack", "--domains", str(GOLDEN / "rule110.dom"),
          "--input", str(GOLDEN / "ca-rule110.txt")], {"optimizer", "tdx", "transducer"}),
        (["stack", "--domains", str(GOLDEN / "rule110.dom"), "--input", "0110"],
         {"ca", "optimizer", "render", "tdx", "transducer"}),
    ], ids=["build", "run", "run-bidi", "ca", "ca-filter-stack", "stack"])
    def test_a_command_loads_only_what_it_runs(self, argv, unused, tmp_path):
        out = tmp_path / "out"
        code = f"from apdfilter.cli import main\nassert main({[*argv, '-o', str(out)]!r}) == 0"
        loaded = loaded_after(code)
        assert loaded & unused == set()
        assert out.stat().st_size > 0

    def test_the_stack_method_loads_no_transducer_code(self):
        # the stack cover codes its rows with ``automata.label_code``, so
        # filtering a diagram by it loads neither the transducer nor its file format
        code = """import apdfilter
alphabet = apdfilter.Alphabet(("0", "1"))
domains = [apdfilter.cyclic_domain("0", alphabet), apdfilter.cyclic_domain("01", alphabet)]
diagram = apdfilter.SpaceTimeDiagram(2, [[0] * 6, [0, 1] * 3, [0, 0, 0, 1, 0, 1]])
coded = apdfilter.filter_diagram("stack", domains, diagram)
assert coded.codes == ((1,) * 6, (2,) * 6, (-1, 1, -1, 2, 2, 2)), coded.codes"""
        loaded = loaded_after(code)
        assert "stackfilter" in loaded and loaded & {"transducer", "tdx"} == set()

    def test_render_loads_symbol_code_on_first_use(self):
        assert "transducer" not in loaded_after("import apdfilter.render")
        code = """from apdfilter import render, transducer
from apdfilter.render import symbol_code
assert symbol_code is getattr(render, "symbol_code") is transducer.symbol_code
try:
    render.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("no AttributeError")"""
        assert "transducer" in loaded_after(code)

    def test_a_public_name_loads_its_module_on_first_use(self):
        loaded = loaded_after("import apdfilter\napdfilter.build_filter")
        assert "transducer" in loaded and "optimizer" not in loaded
        assert "optimizer" in loaded_after("import apdfilter\napdfilter.optimizer.optimize")


class TestPublicNames:
    def test_every_public_name_is_its_defining_module_object(self):
        assert sorted(apdfilter.__all__) == sorted(n for names in PUBLIC.values() for n in names)
        for module, names in PUBLIC.items():
            for name in names:
                assert getattr(apdfilter, name) is getattr(sys.modules[f"apdfilter.{module}"], name)

    def test_dir_lists_every_public_name(self):
        assert set(apdfilter.__all__) <= set(dir(apdfilter))

    def test_star_import(self):
        namespace = {}
        exec("from apdfilter import *", namespace)
        for name in apdfilter.__all__:
            assert namespace[name] is getattr(apdfilter, name)

    def test_submodules_stay_attributes(self):
        from apdfilter import cli, optimizer

        assert apdfilter.cli is cli and apdfilter.optimizer is optimizer
        for module in PUBLIC:
            assert getattr(apdfilter, module) is sys.modules[f"apdfilter.{module}"]

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            apdfilter.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from apdfilter import no_such_name  # noqa: F401
