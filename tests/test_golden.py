"""Golden CLI outputs: every case reruns one command through ``cli.main``
and compares its output file byte for byte with ``tests/data/golden/``.

The ``d18``, ``runs`` and ``rule110`` ``.dom`` files there are inputs;
every other file is an output of a case below, and some are also inputs of
later cases (the ``.tdx`` filters and the ``ca`` diagrams).  To re-record
after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from apdfilter.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# rule-110 string with two defects between stretches of its domain
R110_STRING = "00010011011111" * 2 + "0110" + "00010011011111" * 2 + "1" + "00010011011111"
# runs-of-zeros, runs-of-ones and alternation with breaks between: the bidi
# passes disagree in places (ambiguity codes), and the circular gap wraps
RUNS_STRING = "0000001111110101010100000011111"

# (output file, argv); ``{g}`` is the golden directory
CASES = [
    ("d18.tdx", ["build", "--domains", "{g}/d18.dom"]),
    ("runs.tdx", ["build", "--domains", "{g}/runs.dom"]),
    ("rule110.tdx", ["build", "--domains", "{g}/rule110.dom"]),
    ("optimize-d18.dom", ["optimize", "--domains", "{g}/d18.dom"]),
    ("optimize-runs.dom", ["optimize", "--domains", "{g}/runs.dom"]),
    ("optimize-rule110.dom", ["optimize", "--domains", "{g}/rule110.dom"]),
    ("optimized-d18.tdx", ["build", "--optimize", "--domains", "{g}/d18.dom"]),
    ("optimized-runs.tdx", ["build", "--optimize", "--domains", "{g}/runs.dom"]),
    ("optimized-rule110.tdx", ["build", "--optimize", "--domains", "{g}/rule110.dom"]),
    ("run-d18.csv", ["run", "--filter", "{g}/d18.tdx", "--input", "0100100110001011010000100111"]),
    ("run-runs-circular.csv",
     ["run", "--filter", "{g}/runs.tdx", "--input", "0001110101011000011010", "--circular"]),
    ("run-rule110.csv", ["run", "--filter", "{g}/rule110.tdx", "--input", R110_STRING]),
    ("run-rule110-circular.csv",
     ["run", "--filter", "{g}/rule110.tdx", "--input", R110_STRING, "--circular"]),
    ("run-runs.pgm",
     ["run", "--filter", "{g}/runs.tdx", "--input", "0001110101011000011010", "--format", "pgm"]),
    ("run-rule110-circular.pgm",
     ["run", "--filter", "{g}/rule110.tdx", "--input", R110_STRING, "--circular", "--format", "pgm"]),
    ("run-d18-bidi.csv",
     ["run", "--filter", "{g}/d18.tdx", "--input", "0100100110001011010000100111",
      "--bidi", "--domains", "{g}/d18.dom"]),
    ("run-runs-bidi.csv",
     ["run", "--filter", "{g}/runs.tdx", "--input", RUNS_STRING, "--bidi", "--domains", "{g}/runs.dom"]),
    ("run-runs-bidi-circular.csv",
     ["run", "--filter", "{g}/runs.tdx", "--input", RUNS_STRING, "--bidi", "--domains", "{g}/runs.dom",
      "--circular"]),
    ("ca-rule110.txt",
     ["ca", "--rule", "110", "--width", "28", "--steps", "14", "--init", "random:7"]),
    ("ca-k3r2.txt",
     ["ca", "--k", "3", "--r", "2", "--rule", "98765432109876543210987654321",
      "--width", "20", "--steps", "8", "--init", "random:3"]),
    ("ca-filter-rule110.pgm",
     ["ca-filter", "--method", "transducer", "--filter", "{g}/rule110.tdx",
      "--input", "{g}/ca-rule110.txt"]),
    ("ca-filter-rule110.csv",
     ["ca-filter", "--method", "transducer", "--filter", "{g}/rule110.tdx",
      "--input", "{g}/ca-rule110.txt", "--format", "csv"]),
    # 48 rows: at least twice ``transducer.LANE_ROWS``, so the filter walks the rows as byte lanes
    ("ca-rule110-tall.txt",
     ["ca", "--rule", "110", "--width", "40", "--steps", "47", "--init", "random:5"]),
    ("ca-filter-rule110-tall.pgm",
     ["ca-filter", "--method", "transducer", "--filter", "{g}/rule110.tdx",
      "--input", "{g}/ca-rule110-tall.txt"]),
    ("ca-filter-rule110-tall.csv",
     ["ca-filter", "--method", "transducer", "--filter", "{g}/rule110.tdx",
      "--input", "{g}/ca-rule110-tall.txt", "--format", "csv"]),
    ("run-d18-bidi.pgm",
     ["run", "--filter", "{g}/d18.tdx", "--input", "0100100110001011010000100111",
      "--bidi", "--domains", "{g}/d18.dom", "--format", "pgm"]),
    ("stack-d18.txt", ["stack", "--domains", "{g}/d18.dom", "--input", "0100100110001011010000100111"]),
    ("stack-rule110.txt", ["stack", "--domains", "{g}/rule110.dom", "--input", R110_STRING]),
    ("stack-rule110-periodic.txt",
     ["stack", "--domains", "{g}/rule110.dom", "--input", "00010011011111", "--periodic"]),
    ("stack-d18-periodic.txt",
     ["stack", "--domains", "{g}/d18.dom", "--input", "0100100111", "--periodic"]),
    ("ca-filter-rule110-stack.pgm",
     ["ca-filter", "--method", "stack", "--domains", "{g}/rule110.dom",
      "--input", "{g}/ca-rule110.txt"]),
    ("ca-filter-rule110-stack.csv",
     ["ca-filter", "--method", "stack", "--domains", "{g}/rule110.dom",
      "--input", "{g}/ca-rule110.txt", "--format", "csv"]),
    ("ca-filter-rule110-bidi.pgm",
     ["ca-filter", "--method", "bidi", "--domains", "{g}/rule110.dom",
      "--input", "{g}/ca-rule110.txt"]),
    ("ca-filter-rule110-bidi.csv",
     ["ca-filter", "--method", "bidi", "--domains", "{g}/rule110.dom",
      "--input", "{g}/ca-rule110.txt", "--format", "csv"]),
    # 48 rows: both passes walk the rows as byte lanes; with runs.dom's three
    # domains the passes agree, disagree and leave gaps that wrap
    ("ca-filter-rule110-tall-bidi-runs.pgm",
     ["ca-filter", "--method", "bidi", "--domains", "{g}/runs.dom",
      "--input", "{g}/ca-rule110-tall.txt"]),
    ("ca-filter-rule110-tall-bidi-runs.csv",
     ["ca-filter", "--method", "bidi", "--domains", "{g}/runs.dom",
      "--input", "{g}/ca-rule110-tall.txt", "--format", "csv"]),
    ("ca-filter-rule110-tall-bidi-rule110.pgm",
     ["ca-filter", "--method", "bidi", "--domains", "{g}/rule110.dom",
      "--input", "{g}/ca-rule110-tall.txt"]),
    ("ca-filter-rule110-tall-bidi-rule110.csv",
     ["ca-filter", "--method", "bidi", "--domains", "{g}/rule110.dom",
      "--input", "{g}/ca-rule110-tall.txt", "--format", "csv"]),
    ("ca-rule232.txt",
     ["ca", "--rule", "232", "--width", "24", "--steps", "8", "--init", "random:5"]),
    ("ca-filter-rule232-stack.pgm",
     ["ca-filter", "--method", "stack", "--domains", "{g}/runs.dom",
      "--input", "{g}/ca-rule232.txt"]),
    ("ca-filter-rule232-stack.csv",
     ["ca-filter", "--method", "stack", "--domains", "{g}/runs.dom",
      "--input", "{g}/ca-rule232.txt", "--format", "csv"]),
]


def _argv(argv: list[str], out: Path) -> list[str]:
    return [a.replace("{g}", str(GOLDEN)) for a in argv] + ["-o", str(out)]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _argv in CASES])
def test_golden_output(tmp_path, name, argv):
    out = tmp_path / name
    assert main(_argv(argv, out)) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def record():
    for name, argv in CASES:
        staged = GOLDEN / (name + ".new")
        if main(_argv(argv, staged)) != 0:
            raise SystemExit(f"{name}: command failed")
        shutil.move(staged, GOLDEN / name)
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    record()
