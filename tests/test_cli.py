from pathlib import Path
from random import Random
from time import perf_counter

import pytest
from helpers import parse_pgm

from apdfilter import cli, optimizer
from apdfilter.automata import MAX_SUBSETS, reverse_domain
from apdfilter.ca import evolve, random_row, rule_from_number
from apdfilter.cli import main
from apdfilter.domspec import parse_domain_spec
from apdfilter.render import code_texts, gray, plain_pgm, symbol_code
from apdfilter.tdx import load_transducer, save_transducer
from apdfilter.transducer import (
    MAX_RESYNC_WALK,
    bidirectional,
    block_length,
    build_filter,
    transduce_codes,
)

D18_ONLY = """\
alphabet 0 1
domain D18
  state p q
  trans p 0 q
  trans q 0 p
  trans q 1 p
end
"""

WIDE_LETTERS = "".join(chr(0x100 + i) for i in range(300))
HOSTILE = Path(__file__).resolve().parent / "data" / "hostile"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RUNS = """\
alphabet 0 1
domain zeros cyclic 0
domain ones cyclic 1
domain alt cyclic 01
"""


@pytest.fixture
def d18_file(tmp_path):
    path = tmp_path / "d18.dom"
    path.write_text(D18_ONLY)
    return str(path)


@pytest.fixture
def runs_file(tmp_path):
    path = tmp_path / "runs.dom"
    path.write_text(RUNS)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildRun:
    def test_build_then_run(self, tmp_path, capsys, d18_file):
        out = tmp_path / "f.tdx"
        code, _out, err = run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        assert code == 0 and out.exists()
        t, digest = load_transducer(out.read_text())
        assert digest is not None
        code, stdout, _err = run_cli(
            capsys, "run", "--filter", str(out), "--input", "10011"
        )
        assert code == 0
        assert stdout.strip() == "1,1,1,-1,-1"

    def test_run_pgm(self, tmp_path, capsys, d18_file):
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        pgm = tmp_path / "row.pgm"
        code, _o, _e = run_cli(
            capsys,
            "run", "--filter", str(out), "--input", "10011",
            "--format", "pgm", "-o", str(pgm),
        )
        assert code == 0
        assert parse_pgm(pgm.read_bytes()) == [[255, 255, 255, 0, 0]]

    def test_run_circular(self, tmp_path, capsys):
        dom = tmp_path / "c.dom"
        dom.write_text("alphabet 0 1\ndomain C cyclic 001\n")
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", str(dom), "-o", str(out))
        code, stdout, _e = run_cli(
            capsys, "run", "--filter", str(out), "--input", "001001", "--circular"
        )
        assert code == 0
        assert stdout.strip() == "1,1,1,1,1,1"

    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    @pytest.mark.parametrize("mode", ["linear", "circular"])
    @pytest.mark.parametrize(
        "letters, b", [("01", 4), ("0", 1), pytest.param(WIDE_LETTERS, 1, id="300letters-1")]
    )
    def test_run_long_input_is_the_letter_walk(self, tmp_path, capsys, fmt, mode, letters, b):
        # 10^5 letters walk the 27-state rule-110 filter 4 letters a time,
        # and 2 letters past the last block one at a time, and the filters
        # over one letter and over 300 (read into a list, not bytes; the PGM
        # width is the character count) one letter a time; the output is
        # the text of the one-letter walk's codes
        if letters != "01":
            dom = tmp_path / "z.dom"
            dom.write_text(f"alphabet {' '.join(letters)}\ndomain Z cyclic {letters[:2]}\n")
            tdx = tmp_path / "z.tdx"
            assert run_cli(capsys, "build", "--domains", str(dom), "-o", str(tdx))[0] == 0
        else:
            tdx = GOLDEN / "rule110.tdx"
        t, _digest = load_transducer(tdx.read_text())
        rng = Random(110)
        text = "".join(rng.choice(letters) for _ in range(100_002))
        assert block_length(len(text), t.state_count, len(letters)) == b
        path = tmp_path / "s.txt"
        path.write_text(text)
        codes = transduce_codes(t, text, mode)
        n = t.domain_count
        texts = code_texts((lambda c: str(gray(c, n))) if fmt == "pgm" else str, max(t.code), len(t.breaks))
        row = [texts[c] for c in codes]
        want = plain_pgm([" ".join(row)], len(row)).decode() if fmt == "pgm" else ",".join(row) + "\n"
        argv = ["run", "--filter", str(tdx), "--input", f"@{path}", "--format", fmt]
        assert run_cli(capsys, *argv, *["--circular"] * (mode == "circular")) == (0, want, "")

    def test_run_bidi_needs_domains(self, tmp_path, capsys, d18_file):
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        code, _o, err = run_cli(
            capsys, "run", "--filter", str(out), "--input", "0110", "--bidi"
        )
        assert code == 1
        assert "--domains" in err

    def test_run_bidi(self, tmp_path, capsys, d18_file):
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        code, stdout, _e = run_cli(
            capsys,
            "run", "--filter", str(out), "--input", "0101010",
            "--bidi", "--domains", d18_file,
        )
        assert code == 0
        assert stdout.strip() == "1,1,1,1,1,1,1"
        # a 1-00-1 gap: both edges plus the enclosed zeros are marked
        code, stdout, _e = run_cli(
            capsys,
            "run", "--filter", str(out), "--input", "0100100",
            "--bidi", "--domains", d18_file,
        )
        assert stdout.strip() == "1,-1,-1,-1,-1,1,1"

    def test_bidi_warns_on_digest_mismatch(self, tmp_path, capsys, d18_file):
        # same shape as the d18 file (one domain over 0 1), other domain
        alt = tmp_path / "alt.dom"
        alt.write_text("alphabet 0 1\ndomain alt cyclic 01\n")
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        code, stdout, err = run_cli(
            capsys,
            "run", "--filter", str(out), "--input", "0100100",
            "--bidi", "--domains", str(alt),
        )
        assert "different domain file" in err
        # the loaded filter runs forward; --domains only supplies the reverse pass
        loaded, _digest = load_transducer(out.read_text())
        _alphabet, parsed = parse_domain_spec(alt.read_text())
        domains = [pd.domain for pd in parsed]
        reverse = build_filter([reverse_domain(d) for d in domains])
        expected = bidirectional((loaded, reverse), "0100100")
        assert code == 0
        assert stdout == ",".join(str(symbol_code(s)) for s in expected) + "\n"

    def test_bidi_error_after_digest_mismatch_is_one_line(self, capsys):
        # the filter was built from runs.dom, and these split domains cannot
        # be reversed: the error is the one line, with no warning before it
        code, _stdout, err = run_cli(
            capsys,
            "run", "--filter", str(GOLDEN / "optimized-runs.tdx"), "--input", "0110",
            "--bidi", "--domains", str(GOLDEN / "optimize-runs.dom"),
        )
        assert (code, err) == (2, "error: domain not reversible; use stack filter\n")

    @pytest.mark.parametrize(
        "spec, shape",
        [
            (RUNS, "3 domain(s) over 0 1, the filter 1 over 0 1"),
            ("alphabet a b\ndomain ab cyclic ab\n", "1 domain(s) over a b, the filter 1 over 0 1"),
        ],
        ids=["domain-count", "alphabet"],
    )
    def test_bidi_rejects_mismatched_domains(self, tmp_path, capsys, d18_file, spec, shape):
        other = tmp_path / "other.dom"
        other.write_text(spec)
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        code, stdout, err = run_cli(
            capsys,
            "run", "--filter", str(out), "--input", "0100100",
            "--bidi", "--domains", str(other),
        )
        assert code == 2 and stdout == ""
        assert err == f"error: --domains has {shape}\n"

    def test_bidi_accepts_reordered_alphabet(self, tmp_path, capsys, d18_file):
        # the same token set in another order is the same alphabet
        swapped = tmp_path / "swapped.dom"
        swapped.write_text(D18_ONLY.replace("alphabet 0 1", "alphabet 1 0"))
        out = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", d18_file, "-o", str(out))
        code, stdout, _err = run_cli(
            capsys,
            "run", "--filter", str(out), "--input", "0100100",
            "--bidi", "--domains", str(swapped),
        )
        assert (code, stdout) == (0, "1,-1,-1,-1,-1,1,1\n")  # as with d18_file itself

    def test_tdx_break_renumbering(self, tmp_path, capsys):
        # break codes go by first use in (state, letter) order, whatever
        # their numbers and line order in the file; unused ones are dropped
        header = "alphabet 0 1\nstates 2\nstart 0\ndomains 1\n"
        text = header + (
            "trans 1 1 brk2 1\ntrans 1 0 d1 0\ntrans 0 1 brk7 0\ntrans 0 0 d1 1\n"
            "brk2 1 1\nbrk3 0 1\nbrk4 1 0\nbrk7 0 0\n"
        )
        path = tmp_path / "f.tdx"
        path.write_text(text)
        code, stdout, _err = run_cli(capsys, "run", "--filter", str(path), "--input", "01011")
        assert (code, stdout) == (0, "1,-2,1,-1,-1\n")
        saved = save_transducer(load_transducer(text)[0]).splitlines()
        assert saved[4:] == [
            "trans 0 0 d1 1", "trans 0 1 brk1 0", "trans 1 0 d1 0", "trans 1 1 brk2 1",
            "brk1 0 0", "brk2 1 1",
        ]
        # one pair declared under two numbers is one break
        text = header + (
            "trans 0 0 d1 1\ntrans 0 1 brk1 0\ntrans 1 0 d1 0\ntrans 1 1 brk2 0\n"
            "brk1 0 0\nbrk2 0 0\n"
        )
        saved = save_transducer(load_transducer(text)[0]).splitlines()
        assert saved[4:] == [
            "trans 0 0 d1 1", "trans 0 1 brk1 0", "trans 1 0 d1 0", "trans 1 1 brk1 0",
            "brk1 0 0",
        ]


class TestStack:
    def test_local(self, capsys, d18_file):
        code, stdout, _e = run_cli(
            capsys, "stack", "--domains", d18_file, "--input", "0011"
        )
        assert code == 0
        assert stdout.splitlines() == ["1,3", "4,4"]

    def test_periodic_header(self, capsys, d18_file):
        code, stdout, _e = run_cli(
            capsys, "stack", "--domains", d18_file, "--input", "01", "--periodic"
        )
        assert code == 0
        assert stdout.splitlines() == ["whole_string=true"]
        code, stdout, _e = run_cli(
            capsys, "stack", "--domains", d18_file, "--input", "11", "--periodic"
        )
        assert stdout.splitlines() == ["whole_string=false", "1,1", "2,2"]

    def test_input_from_file(self, tmp_path, capsys, d18_file):
        data = tmp_path / "sigma.txt"
        data.write_text("0011\n")
        code, stdout, _e = run_cli(
            capsys, "stack", "--domains", d18_file, "--input", f"@{data}"
        )
        assert stdout.splitlines() == ["1,3", "4,4"]


class TestOptimize:
    def test_optimize_emits_parseable_split_domains(self, tmp_path, capsys, runs_file):
        out = tmp_path / "split.dom"
        code, _o, err = run_cli(capsys, "optimize", "--domains", runs_file, "-o", str(out))
        assert code == 0
        assert "states_before=4, states_after=8" in err
        _alphabet, parsed = parse_domain_spec(out.read_text())
        assert [pd.name for pd in parsed] == ["zeros", "ones", "alt"]
        assert sum(pd.domain.fa.state_count for pd in parsed) == 8
        assert any("." in name for pd in parsed for name in pd.state_names)

    def test_build_optimize_flag(self, tmp_path, capsys, runs_file):
        out = tmp_path / "f.tdx"
        code, _o, _e = run_cli(
            capsys, "build", "--domains", runs_file, "-o", str(out), "--optimize"
        )
        assert code == 0
        t, _digest = load_transducer(out.read_text())
        assert None not in t.next

    def test_pass_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # these two domains need two refinement passes
        dom = tmp_path / "two.dom"
        dom.write_text("alphabet 0 1\ndomain a cyclic 01\ndomain b cyclic 001\n")
        monkeypatch.setattr(optimizer, "MAX_PASSES", 1)
        out = tmp_path / "split.dom"
        code, _o, err = run_cli(capsys, "optimize", "--domains", str(dom), "-o", str(out))
        assert code == 2
        assert "did not stabilize within 1 passes" in err


class TestCa:
    def test_ca_pipeline(self, tmp_path, capsys):
        st = tmp_path / "st.txt"
        code, _o, _e = run_cli(
            capsys,
            "ca", "--rule", "110", "--width", "28", "--steps", "20",
            "--init", "word:00010011011111^2", "-o", str(st),
        )
        assert code == 0
        lines = st.read_text().splitlines()
        assert len(lines) == 21 and all(len(l) == 28 for l in lines)

        dom = tmp_path / "d.dom"
        dom.write_text("alphabet 0 1\ndomain w cyclic 00010011011111\n")
        filt = tmp_path / "f.tdx"
        run_cli(capsys, "build", "--domains", str(dom), "-o", str(filt))
        pgm = tmp_path / "out.pgm"
        code, _o, _e = run_cli(
            capsys,
            "ca-filter", "--method", "transducer", "--filter", str(filt),
            "--input", str(st), "-o", str(pgm),
        )
        assert code == 0
        grid = parse_pgm(pgm.read_bytes())
        assert all(v == 255 for row in grid for v in row)

    def test_build_byte_identical(self, tmp_path, capsys, runs_file):
        a, b = tmp_path / "a.tdx", tmp_path / "b.tdx"
        for path in (a, b):
            run_cli(capsys, "build", "--domains", runs_file, "-o", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_ca_random_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run_cli(
                capsys,
                "ca", "--rule", "110", "--width", "40", "--steps", "10",
                "--init", "random:42", "-o", str(path),
            )
        assert a.read_text() == b.read_text()

    def test_ca_filter_stack_csv(self, tmp_path, capsys, d18_file):
        st = tmp_path / "st.txt"
        run_cli(
            capsys,
            "ca", "--rule", "18", "--width", "16", "--steps", "6",
            "--init", "random:9", "-o", str(st),
        )
        code, stdout, _e = run_cli(
            capsys,
            "ca-filter", "--method", "stack", "--domains", d18_file,
            "--input", str(st), "--format", "csv",
        )
        assert code == 0
        rows = stdout.strip().splitlines()
        assert len(rows) == 7
        assert all(c in ("1", "0", "-1") for row in rows for c in row.split(","))

    def test_ca_word_width_mismatch(self, tmp_path, capsys):
        # malformed --init values are usage errors as well
        row_file = tmp_path / "row.txt"
        row_file.write_text("01x0110100\n")
        for init, message in (
            ("word:01", "does not match"),
            ("word:01x", "bad --init 'word:01x': '01x' is not a row of digits"),
            ("word:01^x", "not an integer"),
            ("random:abc", "not an integer"),
            (f"@{row_file}", f"{row_file}: line 1: '01x0110100' is not a row of digits"),
        ):
            code, _o, err = run_cli(
                capsys,
                "ca", "--rule", "110", "--width", "10", "--steps", "2",
                "--init", init,
            )
            assert code == 1, init
            assert message in err, init

    def test_ca_empty_row_or_negative_steps(self, capsys):
        # an empty initial row or a negative step count is a usage error,
        # not a traceback from evolve
        for extra, message in (
            (["--init", "word:"], "initial row is empty"),
            (["--init", "word:01^0"], "initial row is empty"),
            (["--init", "word:01^-2"], "initial row is empty"),
            (["--init", "random:1", "--width", "0"], "--width 0 is not a positive"),
            (["--init", "random:1", "--width", "-4"], "--width -4 is not a positive"),
        ):
            code, out, err = run_cli(capsys, "ca", "--rule", "110", "--steps", "2", *extra)
            assert code == 1 and out == "", extra
            assert message in err, extra
        code, out, err = run_cli(
            capsys, "ca", "--rule", "110", "--steps", "-1", "--init", "word:0110"
        )
        assert code == 1 and out == ""
        assert "--steps -1 is negative" in err

    def test_ca_rule_table_budget(self, capsys):
        code, _o, err = run_cli(
            capsys,
            "ca", "--rule", "110", "--r", "10", "--width", "8", "--steps", "1",
            "--init", "random:1",
        )
        assert code == 2
        assert err == "error: rule table for k=2, r=10 exceeds 1048576 bits\n"
        # the text-output check comes before the 11**9-entry table is built
        code, _o, err = run_cli(
            capsys,
            "ca", "--k", "11", "--r", "4", "--rule", "1", "--width", "8", "--steps", "1",
            "--init", "random:1",
        )
        assert code == 1
        assert "k up to 10" in err

    def test_ca_rule_past_int_string_limit(self, capsys):
        # --rule is read as text: numbers past Python's 4300-digit limit for
        # int strings are accepted up to the table size, and a refusal does
        # not echo the digits
        assert cli._rule_number("000110", 2, 1) == 110
        assert cli._rule_number("1" + "0" * 5000, 2, 8) == 10**5000
        nines = "9" * 39456  # 10**39456 - 1 < 2**131072, the k=2, r=8 table
        assert cli._rule_number(nines, 2, 8) == 10**39456 - 1
        argv = ["ca", "--k", "2", "--r", "8", "--width", "20", "--steps", "2", "--init", "random:1"]
        code, out, err = run_cli(capsys, *argv, "--rule", nines)
        diagram = evolve(rule_from_number(2, 8, 10**39456 - 1), random_row(2, 20, 1), 2)
        assert code == 0 and err == ""
        assert out.split() == ["".join(map(str, row)) for row in diagram.rows]
        # one digit over (past the exact check) and two over (past the digit count)
        for digits in (nines + "9", nines + "99"):
            code, out, err = run_cli(capsys, *argv, "--rule", digits)
            assert (code, out) == (2, "")
            assert err == "error: rule number out of range for k=2, r=8\n"
        for bad in ("-1", "+110", "1e3", "0x6e", " 110", "", "\u0661"):
            code, out, err = run_cli(capsys, *argv, "--rule", bad)
            assert (code, out) == (1, ""), bad
            assert err == "usage error: --rule is not a non-negative decimal integer\n", bad

    def test_ca_integers_are_ascii(self, capsys):
        # --k, --r, --width, --steps and the numbers of --init are an optional
        # - and ASCII digits; int() alone also reads other Unicode digits,
        # signs, underscores and spaces
        argv = {"--rule": "110", "--width": "4", "--steps": "1", "--init": "random:1"}
        for option, bad in (
            ("--width", "\u0664"), ("--steps", "\u0661"), ("--k", "\u0662"), ("--r", "\u0661"),
            ("--width", "+4"), ("--steps", "0_1"), ("--k", " 2"), ("--r", "\uff11"),
        ):
            args = [a for pair in {**argv, option: bad}.items() for a in pair]
            code, out, err = run_cli(capsys, "ca", *args)
            assert (code, out) == (1, ""), (option, bad)
            assert err == f"usage error: argument {option}: {bad!r} is not an integer\n", (option, bad)
        for init, bad in (
            ("random:\uff11", "\uff11"), ("random:1_0", "1_0"), ("random:+1", "+1"), ("random:-", "-"),
            ("word:01^+2", "+2"), ("word:01^\u0663", "\u0663"), ("word:01^2_0", "2_0"),
        ):
            code, out, err = run_cli(capsys, "ca", "--rule", "110", "--width", "4", "--steps", "1", "--init", init)
            assert (code, out) == (1, ""), init
            assert err == f"usage error: bad --init {init!r}: {bad!r} is not an integer\n", init
        # a negative seed is still a seed
        code, out, err = run_cli(capsys, "ca", "--rule", "110", "--width", "4", "--steps", "0", "--init", "random:-5")
        assert (code, err) == (0, "") and out == "".join(map(str, random_row(2, 4, -5))) + "\n"

    def test_ca_huge_word_repeat(self, capsys):
        # the width is checked against len(W)*N before the row is built, and
        # a repeat that cannot be built is one usage error, not a traceback
        code, out, err = run_cli(
            capsys, "ca", "--rule", "110", "--steps", "1", "--width", "7",
            "--init", "word:01^1000000000000",
        )
        assert (code, out) == (1, "")
        assert err == "usage error: --width 7 does not match initial row length 2000000000000\n"
        init = "word:01^" + str(10**19)
        code, out, err = run_cli(capsys, "ca", "--rule", "110", "--steps", "1", "--init", init)
        assert (code, out) == (1, "")
        assert err == f"usage error: bad --init '{init}': {2 * 10**19} cells do not fit in memory\n"

    def test_ca_huge_random_width(self, capsys):
        # the row is allocated before the generator runs, so a width that
        # cannot be built is one usage error, not a loop of 10**19 steps
        width = str(10**19)
        code, out, err = run_cli(
            capsys, "ca", "--rule", "110", "--steps", "1", "--width", width, "--init", "random:1"
        )
        assert (code, out) == (1, "")
        assert err == f"usage error: --width {width}: the initial row does not fit in memory\n"

    def test_ca_diagram_budget(self, capsys, monkeypatch):
        # (steps + 1) * width is checked before the first step, not after
        # the rows have filled memory
        code, out, err = run_cli(
            capsys, "ca", "--rule", "110", "--width", "10", "--steps", "100000000000", "--init", "random:1"
        )
        assert (code, out) == (2, "")
        assert err == "error: 100000000001 rows of 10 cells exceed 1073741824 cells\n"
        monkeypatch.setattr("apdfilter.ca.MAX_DIAGRAM_CELLS", 30)
        argv = ["ca", "--rule", "110", "--steps", "2", "--init", "word:0110010111"]
        assert run_cli(capsys, *argv)[0] == 0  # exactly the budget is allowed
        argv[4] = "3"
        assert run_cli(capsys, *argv) == (2, "", "error: 4 rows of 10 cells exceed 30 cells\n")

    def test_ca_filter_non_digit_cell(self, tmp_path, capsys, d18_file):
        diagram = tmp_path / "diagram.txt"
        diagram.write_text("0110\n\n01x0\n")
        code, _o, err = run_cli(
            capsys,
            "ca-filter", "--method", "stack", "--domains", d18_file,
            "--input", str(diagram), "--format", "csv",
        )
        assert code == 1
        assert err == f"usage error: {diagram}: line 3: '01x0' is not a row of digits\n"

    def test_diagram_line_ends_and_blank_lines(self, tmp_path, capsys, d18_file):
        # CRLF, CR, surrounding whitespace and blank lines read as the plain LF file
        st = tmp_path / "st.txt"
        run_cli(
            capsys,
            "ca", "--rule", "18", "--width", "16", "--steps", "6",
            "--init", "random:9", "-o", str(st),
        )
        lf = st.read_bytes()
        variants = (
            lf.replace(b"\n", b"\r\n"),
            lf.replace(b"\n", b"\r"),
            b"\n \n" + lf.replace(b"\n", b" \t\n\n  "),
        )
        for method, source in (("stack", ["--domains", d18_file]), ("transducer", None)):
            if source is None:
                tdx = tmp_path / "d18.tdx"
                run_cli(capsys, "build", "--domains", d18_file, "-o", str(tdx))
                source = ["--filter", str(tdx)]
            outputs = []
            for data in (lf, *variants):
                st.write_bytes(data)
                code, out, err = run_cli(
                    capsys, "ca-filter", "--method", method, *source,
                    "--input", str(st), "--format", "csv",
                )
                assert code == 0 and err == "", data
                outputs.append(out)
            assert outputs[0].count("\n") == 7
            assert all(out == outputs[0] for out in outputs), method

    def test_non_ascii_digit_rows_refused(self, tmp_path, capsys, d18_file):
        # only the ASCII digits are cells: Unicode digits and undecodable
        # bytes are usage errors naming the line, for diagrams and --init
        arabic = "\u0660\u0661\u0661\u0660"
        cases = (
            ("0110\n" + arabic + "\n").encode(),
            (HOSTILE / "bad-diagram.txt").read_bytes(),
        )
        diagram = tmp_path / "diagram.txt"
        for data, shown in zip(cases, (arabic, "01\ufffd0")):
            diagram.write_bytes(data)
            code, out, err = run_cli(
                capsys,
                "ca-filter", "--method", "stack", "--domains", d18_file,
                "--input", str(diagram), "--format", "csv",
            )
            assert code == 1 and out == "", data
            assert err == f"usage error: {diagram}: line 2: {shown!r} is not a row of digits\n"
            diagram.write_bytes(data.split(b"\n")[1])
            code, out, err = run_cli(
                capsys, "ca", "--rule", "110", "--steps", "2", "--init", f"@{diagram}"
            )
            assert code == 1 and out == "", data
            assert err == f"usage error: {diagram}: line 1: {shown!r} is not a row of digits\n"
        code, out, err = run_cli(
            capsys, "ca", "--rule", "110", "--steps", "2", "--init", "word:" + arabic
        )
        assert code == 1 and out == ""
        assert "is not a row of digits" in err

    def test_init_file_holds_one_row(self, tmp_path, capsys):
        rows = tmp_path / "rows.txt"
        rows.write_text("\n0110\n\n")
        code, out, _e = run_cli(capsys, "ca", "--rule", "110", "--steps", "1", "--init", f"@{rows}")
        assert code == 0 and out == "0110\n1110\n"
        rows.write_text("0110\n1110\n")
        code, out, err = run_cli(capsys, "ca", "--rule", "110", "--steps", "1", "--init", f"@{rows}")
        assert code == 1 and out == ""
        assert "the file holds 2 rows, not one" in err


class TestErrors:
    def test_usage_errors(self, tmp_path, capsys, d18_file):
        # each exits 1 with its one usage-error line and no output
        row, blank, diagram = tmp_path / "row.txt", tmp_path / "blank.txt", tmp_path / "diagram.txt"
        row.write_text("0110\n")
        blank.write_text("\n  \n\n")
        diagram.write_text("0110\n")
        bad_row = tmp_path / "bad-row.txt"
        bad_row.write_text("0130\n")
        ca = ["ca", "--rule", "110", "--steps", "1"]
        for argv, message in (
            (ca + ["--init", "random:1"], "random initial conditions need --width"),
            (ca + ["--init", "foo"], "bad --init 'foo'; use random:SEED, word:W[^N], or @FILE"),
            (ca + ["--width", "5", "--init", f"@{row}"], "--width 5 does not match initial row length 4"),
            (["ca-filter", "--method", "stack", "--domains", d18_file, "--input", str(blank)],
             f"{blank}: empty diagram"),
            (["ca-filter", "--method", "transducer", "--input", str(diagram)], "--method transducer needs --filter"),
            (["ca-filter", "--method", "stack", "--input", str(diagram)], "--method stack needs --domains"),
            (["ca-filter", "--method", "bidi", "--input", str(diagram)], "--method bidi needs --domains"),
            # digits are checked against k, before a repeat
            (ca + ["--init", "word:012"], "bad --init 'word:012': digit 2 is not a symbol of k=2"),
            (ca + ["--init", f"word:2^{10**19}"], f"bad --init 'word:2^{10**19}': digit 2 is not a symbol of k=2"),
            (ca + ["--init", f"@{bad_row}"], f"bad --init '@{bad_row}': digit 3 is not a symbol of k=2"),
        ):
            assert run_cli(capsys, *argv) == (1, "", f"usage error: {message}\n"), argv

    def test_usage_errors_echo_a_clipped_value(self, capsys):
        # a long argument is echoed as its first 40 characters and an ellipsis
        x, y, z, n = "x" * 300, "y" * 300, "z" * 300, "9" * 300
        ca = ["ca", "--rule", "110", "--steps", "1"]
        for argv, message in (
            (ca + ["--width", "4", "--init", f"random:{x}"],
             f"bad --init 'random:{'x' * 33}…': '{'x' * 40}…' is not an integer"),
            (ca + ["--width", x, "--init", "random:1"], f"argument --width: '{'x' * 40}…' is not an integer"),
            (ca + ["--init", x], f"bad --init '{'x' * 40}…'; use random:SEED, word:W[^N], or @FILE"),
            (ca + ["--init", f"word:{z}"], f"bad --init 'word:{'z' * 35}…': '{'z' * 40}…' is not a row of digits"),
            (["ca-filter", "--method", y, "--input", "x"],
             f"argument --method: invalid choice: '{'y' * 40}…' (choose from 'stack', 'transducer', 'bidi')"),
            (["run", "--filter", "x", "--input", "0", "--format", y],
             f"argument --format: invalid choice: '{'y' * 40}…' (choose from 'csv', 'pgm')"),
            (["ca", "--rule", "110", "--steps", f"-{n}", "--width", "3", "--init", "random:1"],
             f"--steps -{'9' * 39}… is negative"),
            (ca + ["--width", f"-{n}", "--init", "random:1"], f"--width -{'9' * 39}… is not a positive integer"),
            (ca + ["--width", n, "--init", "word:01"], f"--width {'9' * 40}… does not match initial row length 2"),
        ):
            assert run_cli(capsys, *argv) == (1, "", f"usage error: {message}\n"), argv
        # a rule table past its limit echoes the radius cut short too
        code, out, err = run_cli(capsys, *ca, "--r", n, "--width", "3", "--init", "random:1")
        assert (code, out, err) == (2, "", f"error: rule table for k=2, r={'9' * 40}… exceeds 1048576 bits\n")

    def test_unknown_flag(self, capsys):
        code, _o, err = run_cli(capsys, "stack", "--nope")
        assert code == 1

    def test_alphabet_violation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.dom"
        bad.write_text("alphabet 0 1\ndomain D\n state p\n trans p 2 p\nend\n")
        code, _o, err = run_cli(capsys, "stack", "--domains", str(bad), "--input", "0")
        assert code == 2
        assert "line 4" in err

    def test_invalid_tdx_exit_2(self, tmp_path, capsys):
        valid = (
            "alphabet 0 1\nstates 2\nstart 0\ndomains 1\ntrans 0 0 d1 1\n"
            "trans 0 1 brk1 0\ntrans 1 0 d1 0\ntrans 1 1 d1 0\nbrk1 0 0\n"
        )
        bad = tmp_path / "bad.tdx"
        for old, new in (
            ("start 0", "start 5"),
            ("trans 0 0 d1 1", "trans 0 0 d1 7"),
            ("trans 1 0 d1 0", "trans 1 0 d9 0"),
            ("brk1 0 0", "brk1 4 9"),
            ("brk1 0 0", "brk1 0 0\nbrk1 1 1"),
            # trailing fields
            ("start 0", "start 0 7"),
            ("trans 0 0 d1 1", "trans 0 0 lam 1 9"),
            ("brk1 0 0", "brk1 3 4 5"),
        ):
            bad.write_text(valid.replace(old, new))
            code, out, err = run_cli(
                capsys, "run", "--filter", str(bad), "--input", "0101", "--format", "pgm"
            )
            assert code == 2, new
            assert out == "" and err.count("\n") == 1 and err.startswith("error: "), new
        # a domain count below 1, on a filter whose arcs carry no label
        bad.write_text(valid.replace(" d1 ", " lam ").replace("domains 1", "domains 0"))
        code, out, err = run_cli(
            capsys, "run", "--filter", str(bad), "--input", "0101", "--format", "pgm"
        )
        assert (code, out, err) == (2, "", "error: line 4: domains 0: a filter has at least one\n")
        # a malformed output code names its line
        for code_text in ("d", "dx", "brkx"):
            bad.write_text(valid.replace("trans 1 0 d1 0", f"trans 1 0 {code_text} 0"))
            code, out, err = run_cli(
                capsys, "run", "--filter", str(bad), "--input", "0101", "--format", "pgm"
            )
            assert code == 2, code_text
            assert err == f"error: line 7: bad output code {code_text!r}\n", code_text
        # a letter outside the alphabet line and a second transition line
        # from one (state, letter), the same or another, name their lines;
        # a file without one arc per (state, letter) is refused, a huge
        # state count before its table is allocated; a repeated header line
        # names the repeat
        second = "line 9: second transition from state 1 on '1'"
        for old, new, message in (
            ("start 0", "start 0\nstart 1", "line 4: duplicate 'start' line"),
            ("domains 1", "domains 1\ndomains 3", "line 5: duplicate 'domains' line"),
            ("brk1 0 0", "brk1 0 0\nalphabet 0 1", "line 10: duplicate 'alphabet' line"),
            ("trans 1 1 d1 0", "trans 1 x d1 0", "line 8: unknown symbol 'x'"),
            ("trans 1 1 d1 0", "trans 1 1 d1 0\ntrans 1 1 d1 0", second),
            ("trans 1 1 d1 0", "trans 1 1 d1 0\ntrans 1 1 lam 1", second),
            ("trans 1 0 d1 0\n", "", "states 2 over 2 letters need 4 trans lines, found 3"),
            (
                "states 2",
                "states 3000000000",
                "states 3000000000 over 2 letters need 6000000000 trans lines, found 4",
            ),
        ):
            bad.write_text(valid.replace(old, new))
            code, out, err = run_cli(
                capsys, "run", "--filter", str(bad), "--input", "0101", "--format", "pgm"
            )
            assert code == 2, new
            assert out == "" and err == f"error: {message}\n", new
        # the hostile fixture that CI also runs through the installed CLI
        dup = str(HOSTILE / "dup-header.tdx")
        code, out, err = run_cli(capsys, "run", "--filter", dup, "--input", "0101")
        assert (code, out, err) == (2, "", "error: line 12: duplicate 'start' line\n")

    def test_hostile_number_and_directive_fixtures(self, capsys):
        # the fixtures that CI also runs through the installed CLI: a state
        # count in Arabic-Indic digits, and a directive whose echo is clipped
        for name, line in (
            ("arabic-states.tdx", "line 4: malformed 'states' line"),
            ("long-directive.tdx", f"line 15: unknown directive '{'x' * 40}…'"),
            ("long-states.tdx", f"states {'9' * 40}… over 2 letters need {'1' + '9' * 39}… trans lines, found 6"),
        ):
            code, out, err = run_cli(capsys, "run", "--filter", str(HOSTILE / name), "--input", "0101")
            assert (code, out, err) == (2, "", f"error: {line}\n"), name

    def test_huge_declared_domain_count_costs_nothing(self, capsys):
        # d18.tdx declaring 99999999999 domains: the text tables run up to
        # the largest label used, and gray still spreads over the declared count
        huge, d18 = str(HOSTILE / "huge-domains.tdx"), str(GOLDEN / "d18.tdx")
        assert run_cli(capsys, "run", "--filter", huge, "--input", "0110") == (0, "1,1,-1,1\n", "")
        diagram = str(GOLDEN / "ca-rule110.txt")
        for argv in (
            ["run", "--input", "0110", "--format", "pgm"],
            ["ca-filter", "--method", "transducer", "--input", diagram],
            ["ca-filter", "--method", "transducer", "--input", diagram, "--format", "csv"],
        ):
            assert run_cli(capsys, *argv, "--filter", huge) == run_cli(capsys, *argv, "--filter", d18), argv

    def test_resync_walk_budget_exit_2(self, tmp_path, capsys):
        # zero_cycle_domain(Random(9), 18): this partial 0-cycle's tracker
        # builds at once, and its resync walk passes the budget in well
        # under a second
        dom = str(HOSTILE / "zc-9-18.dom")
        tdx = tmp_path / "z.tdx"
        code, out, err = run_cli(capsys, "build", "--domains", dom, "-o", str(tdx))
        assert (code, out) == (2, "")
        assert err == f"error: resync walk exceeds {MAX_RESYNC_WALK} elements\n"

    @pytest.mark.parametrize(
        "command", ["build", "stack", "ca-filter", "optimize", "build-optimize"]
    )
    def test_subset_budget_exit_2_fast(self, tmp_path, capsys, command):
        # zero_cycle_domain(Random(3), 28): a 43 135-state tracker, stopped at
        # MAX_SUBSETS before any resync walk or scan starts.  The optimizer's
        # past automaton of zero_cycle_domain(Random(9), 18), whose tracker
        # has 2116 states, is stopped there too, before any resync walk
        dom = str(HOSTILE / "zc-3-28.dom")
        past = str(HOSTILE / "zc-9-18.dom")
        diagram = tmp_path / "d.txt"
        diagram.write_text("0101\n1100\n")
        argv = {
            "build": ["build", "--domains", dom, "-o", str(tmp_path / "z.tdx")],
            "stack": ["stack", "--domains", dom, "--input", "0101"],
            "ca-filter": [
                "ca-filter", "--method", "stack", "--domains", dom, "--input", str(diagram)
            ],
            "optimize": ["optimize", "--domains", past, "-o", str(tmp_path / "z.dom")],
            "build-optimize": [
                "build", "--optimize", "--domains", past, "-o", str(tmp_path / "z.tdx")
            ],
        }[command]
        start = perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert perf_counter() - start < 3
        assert (code, out) == (2, "")
        assert err == f"error: subset construction exceeds {MAX_SUBSETS} states\n"

    def test_missing_file_exit_2(self, capsys):
        code, _o, err = run_cli(capsys, "stack", "--domains", "missing.dom", "--input", "0")
        assert code == 2

    def test_directory_as_file_exit_2(self, tmp_path, capsys, d18_file):
        tdx = tmp_path / "d18.tdx"
        assert run_cli(capsys, "build", "--domains", d18_file, "-o", str(tdx))[0] == 0
        for argv in (
            ["build", "--domains", str(tmp_path), "-o", str(tmp_path / "x.tdx")],
            ["build", "--domains", d18_file, "-o", str(tmp_path)],
            ["run", "--filter", str(tmp_path), "--input", "0101"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
