from pathlib import Path

import pytest
from helpers import ALPHA01, parse_pgm

from apdfilter.automata import equivalent
from apdfilter.domspec import (
    DomainSpecError,
    format_domain_spec,
    parse_domain_spec,
    spec_digest,
)
from apdfilter.render import emit_pgm, gray, symbol_code
from apdfilter.ca import CodedDiagram, SpaceTimeDiagram
from apdfilter.tdx import TdxError, load_transducer, save_transducer
from apdfilter.transducer import (
    AMBIGUOUS,
    DomainBreak,
    build_filter,
    transduce,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

D18_SPEC = """\
# rule 18 pattern
alphabet 0 1
domain D1 cyclic 00010011011111
domain D2
  state p q
  start p q
  final p q
  trans p 0 q
  trans q 0 p
  trans q 1 p
end
"""


class TestDomainSpec:
    def test_parse_mixed_file(self, d18):
        alphabet, parsed = parse_domain_spec(D18_SPEC)
        assert alphabet == ALPHA01
        assert [pd.name for pd in parsed] == ["D1", "D2"]
        assert parsed[0].domain.fa.state_count == 14
        assert equivalent(parsed[1].domain.fa, d18.fa)
        assert parsed[1].state_names == ("p", "q")

    def test_cyclic_shorthand(self):
        _, parsed = parse_domain_spec("alphabet 0 1\ndomain X cyclic 001\n")
        assert parsed[0].domain.fa.state_count == 3

    def test_default_start_final_all(self):
        text = "alphabet 0 1\ndomain D\n state p q\n trans p 0 q\n trans q 0 p\n trans q 1 p\nend\n"
        _, parsed = parse_domain_spec(text)
        assert parsed[0].domain.fa.starts == frozenset({0, 1})

    def test_not_strongly_connected(self):
        text = (
            "alphabet 0 1\ndomain D\n state p q\n trans p 0 q\n trans p 1 q\n"
            " trans q 0 q\n trans q 1 q\nend\n"
        )
        with pytest.raises(DomainSpecError, match="not strongly connected"):
            parse_domain_spec(text)

    def test_nonrecurrent_marker_waives_connectivity(self):
        text = (
            "alphabet 0 1\ndomain D\n nonrecurrent\n state p q\n trans p 0 q\n"
            " trans p 1 q\n trans q 0 q\n trans q 1 q\nend\n"
        )
        _, parsed = parse_domain_spec(text)
        assert parsed[0].domain.fa.state_count == 2

    def test_partial_start_rejected(self):
        text = (
            "alphabet 0 1\ndomain D\n state p q\n start p\n final p q\n"
            " trans p 0 q\n trans q 0 p\nend\n"
        )
        with pytest.raises(DomainSpecError, match="not all states are start"):
            parse_domain_spec(text)

    def test_unknown_symbol_line_number(self):
        text = "alphabet 0 1\ndomain D\n state p\n trans p 2 p\nend\n"
        with pytest.raises(DomainSpecError, match="line 4: symbol 2"):
            parse_domain_spec(text)

    def test_missing_alphabet(self):
        with pytest.raises(DomainSpecError, match="alphabet"):
            parse_domain_spec("domain D cyclic 01\n")

    def test_missing_end(self):
        with pytest.raises(DomainSpecError, match="missing end"):
            parse_domain_spec("alphabet 0 1\ndomain D\n state p\n trans p 0 p\n")

    def test_duplicate_domain(self):
        text = "alphabet 0 1\ndomain D cyclic 0\ndomain D cyclic 1\n"
        with pytest.raises(DomainSpecError, match="duplicate domain"):
            parse_domain_spec(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alphabet 0 1\ndomain D\n state p q p\nend\n", "line 3: duplicate state p"),
            ("alphabet 0 1\ndomain D\n state p\n start p q\nend\n", "line 4: unknown state q"),
            ("alphabet 0 1\ndomain D\n state p\n final q\nend\n", "line 4: unknown state q"),
            ("alphabet 0 1\ndomain D\n state p\n trans p 0 q\nend\n", "line 4: unknown state q"),
            ("alphabet 0 1\ndomain D\n state p\n trans q 0 p\nend\n", "line 4: unknown state q"),
            ("alphabet 0 1\ndomain D\n state p\n trans p 0\nend\n", "line 4: trans needs: source symbol target"),
            ("alphabet 0 1\ndomain D\n state p\n trans p 0 p\nend 0x1\n", "line 5: end takes no arguments"),
            (
                "alphabet 0 1\ndomain D\n nonrecurrent junk\n state p\n trans p 0 p\nend\n",
                "line 3: nonrecurrent takes no arguments",
            ),
            (
                "alphabet 0 1\ndomain D\n state p\ndomain E cyclic 0\n",
                "line 4: unexpected 'domain' inside a domain block",
            ),
            ("alphabet 0 1\nalphabet 0 1\n", "line 2: alphabet declared twice"),
            ("alphabet 0 1 0\n", "line 1: alphabet has duplicate symbols"),
            ("alphabet\n", "line 1: alphabet is empty"),
            ("alphabet 0 1\ndomain\n", "line 2: domain needs a name"),
            ("alphabet 0 1\ndomain D cyclic\n", "line 2: expected: domain NAME cyclic WORD"),
            ("alphabet 0 1\ndomain D periodic 01\n", "line 2: expected: domain NAME cyclic WORD"),
            ("alphabet 0 1\ndomain D cyclic 012\n", "line 2: symbol 2 not in the alphabet"),
            ("alphabet 0 1\ndomain D cyclic 01\nend\n", "line 3: unknown directive 'end'"),
            ("# no alphabet\n", "line 1: no alphabet declared"),
            ("alphabet 0 1\n", "line 1: no domains declared"),
            ("alphabet 0 1\ndomain D\nend\n", "line 3: domain D: no states declared"),
            (
                "alphabet 0 1\ndomain D\n state p q\n final p\n trans p 0 q\n trans q 0 p\nend\n",
                "line 7: domain D: not all states are final states",
            ),
        ],
    )
    def test_parse_errors(self, text, message):
        # every malformed line fails with its line number and one message
        with pytest.raises(DomainSpecError) as error:
            parse_domain_spec(text)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alphabet 0 1\n" + "x" * 5000 + " 1\n", f"line 2: unknown directive '{'x' * 40}…'"),
            ("alphabet 0 1\ndomain D\n state p\n start " + "q" * 5000 + "\nend\n", f"line 4: unknown state {'q' * 40}…"),
            ("alphabet 0 1\ndomain D\n state p " + "r" * 50 + " " + "r" * 50 + "\nend\n",
             f"line 3: duplicate state {'r' * 40}…"),
            ("alphabet 0 1\ndomain D\n state p\n trans p " + "2" * 50 + " p\nend\n",
             f"line 4: symbol {'2' * 40}… not in the alphabet"),
            ("alphabet 0 1\ndomain D\n state p\n " + "y" * 50 + "\nend\n",
             f"line 4: unexpected '{'y' * 40}…' inside a domain block"),
            ("alphabet 0 1\ndomain " + "N" * 50 + " cyclic 0\ndomain " + "N" * 50 + " cyclic 1\n",
             f"line 3: duplicate domain {'N' * 40}…"),
            ("alphabet 0 1\ndomain " + "M" * 50 + "\nend\n", f"line 3: domain {'M' * 40}…: no states declared"),
            ("alphabet 0 1\ndomain " + "L" * 50 + "\n state p\n", f"line 3: domain {'L' * 40}…: missing end"),
            ("alphabet 0 " + "\x01" * 50 + "\n", "line 1: bad alphabet token '" + "\\x01" * 40 + "…'"),
        ],
        ids=[
            "long-directive", "long-start-state", "long-duplicate-state", "long-symbol", "long-block-word",
            "long-duplicate-domain", "long-empty-domain", "long-open-domain", "long-alphabet-token",
        ],
    )
    def test_error_lines_echo_a_clipped_field(self, text, message):
        # an echoed field is cut to 40 characters and an ellipsis
        with pytest.raises(DomainSpecError) as error:
            parse_domain_spec(text)
        assert str(error.value) == message

    def test_round_trip(self):
        alphabet, parsed = parse_domain_spec(D18_SPEC)
        text = format_domain_spec(alphabet, parsed)
        alphabet2, parsed2 = parse_domain_spec(text)
        assert alphabet2 == alphabet
        for before, after in zip(parsed, parsed2):
            assert before.name == after.name
            assert equivalent(before.domain.fa, after.domain.fa)

    def test_digest_stable(self):
        assert spec_digest(D18_SPEC) == spec_digest(D18_SPEC)
        assert spec_digest(D18_SPEC) != spec_digest(D18_SPEC + "\n#x")


class TestTdx:
    def test_round_trip_behavior(self, d18, cyc001):
        t = build_filter([d18, cyc001])
        text = save_transducer(t, domains_digest="abc123")
        loaded, digest = load_transducer(text)
        assert digest == "abc123"
        assert loaded.domain_count == 2
        assert loaded.state_count == t.state_count
        assert loaded.start == t.start
        for sigma in ("", "0011", "110100", "000111000"):
            assert transduce(loaded, sigma) == transduce(t, sigma)
        assert (loaded.next, loaded.code, loaded.breaks) == (t.next, t.code, t.breaks)

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.tdx")))
    def test_golden_files_save_unchanged(self, name):
        text = (GOLDEN / name).read_text()
        t, digest = load_transducer(text)
        assert save_transducer(t, domains_digest=digest) == text

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.tdx")))
    def test_golden_files_load_with_lines_reversed(self, name):
        # header lines may come after the arcs and break declarations
        text = (GOLDEN / name).read_text()
        t, digest = load_transducer("\n".join(reversed(text.splitlines())))
        assert (t, digest) == load_transducer(text)

    def test_serialized_shape(self, runs01):
        t = build_filter(runs01)
        lines = save_transducer(t).splitlines()
        assert lines[0] == "alphabet 0 1"
        assert lines[1] == f"states {t.state_count}"
        assert lines[2] == "start 0"
        assert lines[3] == "domains 2"
        trans_lines = [l for l in lines if l.startswith("trans ")]
        assert len(trans_lines) == t.state_count * len(t.alphabet)
        assert any(" brk1 " in l for l in trans_lines)
        assert any(l.startswith("brk1 ") for l in lines)

    def test_bad_input(self):
        with pytest.raises(TdxError, match="missing header"):
            load_transducer("trans 0 0 d1 0\n")
        with pytest.raises(TdxError, match="undeclared break"):
            load_transducer("alphabet 0\nstates 1\nstart 0\ntrans 0 0 brk9 0\n")


VALID_TDX = """\
alphabet 0 1
states 2
start 0
domains 1
trans 0 0 d1 1
trans 0 1 brk1 0
trans 1 0 d1 0
trans 1 1 d1 0
brk1 0 0
"""


class TestTdxValidation:
    """Malformed filters fail at load time, not while running."""

    def test_valid_filter_loads(self):
        t, _digest = load_transducer(VALID_TDX)
        assert t.next == (2, 0, 0, 0) and t.code == (1, -1, 1, 1)

    def test_state_count_bounded_by_named_states(self):
        # four arcs fill two states over two letters, not three; a huge
        # count is refused before its table is allocated
        for states, need in ((3, 6), (3000000000, 6000000000)):
            message = f"states {states} over 2 letters need {need} trans lines, found 4"
            with pytest.raises(TdxError, match=message):
                load_transducer(VALID_TDX.replace("states 2", f"states {states}"))

    def test_state_count_past_the_int_string_limit(self):
        # 4300 nines, the longest count int() reads, times 2 letters has
        # 4301 digits: the line echoes the leading digits of both, as at
        # 4299 nines, not Python's own message on int strings
        for digits in (4299, 4300):
            text = VALID_TDX.replace("states 2", "states " + "9" * digits)
            with pytest.raises(TdxError) as error:
                load_transducer(text)
            need = "1" + "9" * 39
            assert str(error.value) == f"states {'9' * 40}… over 2 letters need {need}… trans lines, found 4"

    def test_missing_arc_refused(self):
        for line in [l for l in VALID_TDX.splitlines() if l.startswith("trans ")]:
            with pytest.raises(TdxError, match="need 4 trans lines, found 3"):
                load_transducer(VALID_TDX.replace(line + "\n", ""))

    def test_start_out_of_range(self):
        with pytest.raises(TdxError, match="start state 5"):
            load_transducer(VALID_TDX.replace("start 0", "start 5"))

    def test_state_out_of_range(self):
        for old, new in (("trans 0 0 d1 1", "trans 0 0 d1 7"), ("trans 1 1 d1 0", "trans 2 1 d1 0")):
            with pytest.raises(TdxError, match="outside the states 0..1"):
                load_transducer(VALID_TDX.replace(old, new))

    def test_label_out_of_range(self):
        for label in ("d9", "d0"):
            with pytest.raises(TdxError, match="outside the domains 1..1"):
                load_transducer(VALID_TDX.replace("trans 1 0 d1 0", f"trans 1 0 {label} 0"))

    def test_break_pair_out_of_range(self):
        with pytest.raises(TdxError, match="brk1 4 9"):
            load_transducer(VALID_TDX.replace("brk1 0 0", "brk1 4 9"))

    def test_duplicate_break_declaration(self):
        with pytest.raises(TdxError, match="duplicate 'brk1'"):
            load_transducer(VALID_TDX + "brk1 1 1\n")

    def test_duplicate_header_line_refused(self):
        # a second header line of a kind would silently replace the first
        tdx = VALID_TDX.replace("domains 1\n", "domains 1\nhash ab\n")
        for line_no, line in enumerate(tdx.splitlines()[:5], start=2):
            word = line.split()[0]
            with pytest.raises(TdxError, match=f"^line {line_no}: duplicate '{word}' line$"):
                load_transducer(tdx.replace(line + "\n", f"{line}\n{line}\n"))
        for extra in ("start 1", "domains 3"):
            word = extra.split()[0]
            with pytest.raises(TdxError, match=f"^line 11: duplicate '{word}' line$"):
                load_transducer(tdx + extra + "\n")

    def test_extra_fields_refused(self):
        for old, new, line in (
            ("start 0", "start 0 7", 3),
            ("domains 1", "domains 1 1", 4),
            ("states 2", "states 2 2", 2),
            ("states 2", "states x", 2),  # a field that is no integer
            ("trans 0 0 d1 1", "trans 0 0 d1 1 9", 5),
            ("brk1 0 0", "brk1 0 0 5", 9),
        ):
            word = new.split()[0]
            with pytest.raises(TdxError, match=f"^line {line}: malformed '{word}' line$"):
                load_transducer(VALID_TDX.replace(old, new))
        with pytest.raises(TdxError, match="^line 5: malformed 'hash' line$"):
            load_transducer(VALID_TDX.replace("domains 1\n", "domains 1\nhash ab cd\n"))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # label and break numbers are ASCII digits: other Unicode digits,
            # signs and underscores are refused with the line, not read as numbers
            ("trans 1 0 d1 0", "trans 1 0 d\u0661 0", "^line 7: bad output code 'd\u0661'$"),
            ("trans 0 1 brk1 0", "trans 0 1 brk\u0661 0", "^line 6: bad output code 'brk\u0661'$"),
            ("brk1 0 0", "brk1 0 0\nbrk-1 0 0", "^line 10: malformed 'brk-1' line$"),
            ("brk1 0 0", "brk1 0 0\nbrk1_0 0 1", "^line 10: malformed 'brk1_0' line$"),
            ("brk1 0 0", "brk1 0 0\nbrk\u0661 0 0", "^line 10: malformed 'brk\u0661' line$"),
            # past Python's limit on int strings: the line, not int()'s own message
            ("trans 1 0 d1 0", "trans 1 0 d" + "1" * 5000 + " 0", "^line 7: malformed 'trans' line$"),
            ("trans 0 1 brk1 0", "trans 0 1 brk" + "1" * 5000 + " 0", "^line 6: malformed 'trans' line$"),
        ],
        ids=[
            "arabic-indic-label", "arabic-indic-break", "signed-brk", "underscored-brk",
            "arabic-indic-brk", "long-label", "long-break",
        ],
    )
    def test_label_and_break_numbers_are_ascii_digits(self, old, new, message):
        with pytest.raises(TdxError, match=message):
            load_transducer(VALID_TDX.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # state and count numbers are ASCII digits too, with no sign
            ("states 2", "states \u0663", "^line 2: malformed 'states' line$"),
            ("states 2", "states +2", "^line 2: malformed 'states' line$"),
            ("start 0", "start +0", "^line 3: malformed 'start' line$"),
            ("start 0", "start \uff10", "^line 3: malformed 'start' line$"),
            ("domains 1", "domains 0_1", "^line 4: malformed 'domains' line$"),
            ("trans 0 0 d1 1", "trans 0 0 d1 +1", "^line 5: malformed 'trans' line$"),
            ("trans 0 0 d1 1", "trans \u0660 0 d1 1", "^line 5: malformed 'trans' line$"),
            ("trans 1 1 d1 0", "trans 1 1 d1 -0", "^line 8: malformed 'trans' line$"),
            ("brk1 0 0", "brk1 0 1_0", "^line 9: malformed 'brk1' line$"),
            ("brk1 0 0", "brk1 -0 0", "^line 9: malformed 'brk1' line$"),
            ("brk1 0 0", "brk1 0 \u0661", "^line 9: malformed 'brk1' line$"),
        ],
        ids=[
            "arabic-indic-states", "signed-states", "signed-start", "fullwidth-start",
            "underscored-domains", "signed-trans-target", "arabic-indic-trans-source",
            "signed-trans-target-zero", "underscored-brk-state", "signed-brk-state",
            "arabic-indic-brk-state",
        ],
    )
    def test_state_and_count_numbers_are_ascii_digits(self, old, new, message):
        with pytest.raises(TdxError, match=message):
            load_transducer(VALID_TDX.replace(old, new))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("brk1 0 0", "brk1 0 0\nbrk" + "1" * 5000 + " 0 0", f"line 10: malformed 'brk{'1' * 37}…' line"),
            ("trans 1 0 d1 0", "trans 1 0 x" + "y" * 5000 + " 0", f"line 7: bad output code 'x{'y' * 39}…'"),
            ("brk1 0 0", "brk1 0 0\n" + "z" * 5000 + " 1", f"line 10: unknown directive '{'z' * 40}…'"),
            ("brk1 0 0", "brk1 0 0\nbrk" + "2" * 50 + " 0 0\nbrk" + "2" * 50 + " 0 0",
             f"line 11: duplicate 'brk{'2' * 37}…' declaration"),
            ("trans 1 1 d1 0", "trans 1 " + "w" * 5000 + " d1 0", f"line 8: unknown symbol '{'w' * 40}…'"),
            ("trans 1 1 d1 0", "trans 1 1 d1 " + "9" * 4000, f"trans 1 1 d1 {'9' * 40}…: outside the states 0..1"),
            ("brk1 0 0", "brk1 " + "8" * 4000 + " 0", f"brk1 {'8' * 40}… 0: outside the states 0..1"),
            ("start 0", "start " + "7" * 4000, f"start state {'7' * 40}… outside the states 0..1"),
            ("trans 0 1 brk1 0", "trans 0 1 brk" + "6" * 4000 + " 0", f"undeclared break code brk{'6' * 40}…"),
            ("trans 1 0 d1 0", "trans 1 0 d" + "5" * 4000 + " 0", f"domain label d{'5' * 40}… outside the domains 1..1"),
        ],
        ids=[
            "long-brk-declaration", "long-output", "long-directive", "long-duplicate-brk",
            "long-symbol", "long-trans-state", "long-brk-state", "long-start", "long-break-code",
            "long-label",
        ],
    )
    def test_error_lines_echo_a_clipped_field(self, old, new, message):
        # an echoed field is cut to 40 characters and an ellipsis
        with pytest.raises(TdxError) as error:
            load_transducer(VALID_TDX.replace(old, new))
        assert str(error.value) == message

    def test_unknown_directive_refused(self):
        with pytest.raises(TdxError, match="^line 10: unknown directive 'state'$"):
            load_transducer(VALID_TDX + "state 2\n")

    def test_missing_domains_line_takes_the_largest_label(self):
        text = VALID_TDX.replace("domains 1\n", "").replace("trans 1 1 d1 0", "trans 1 1 d3 0")
        t, _digest = load_transducer(text)
        assert t.domain_count == 3 and t.code == (1, -1, 1, 3)

    def test_domain_count_below_one_refused(self):
        # every arc ambiguous, so no label bounds the count from below
        lam_only = VALID_TDX.replace(" d1 ", " lam ")
        assert load_transducer(lam_only)[0].domain_count == 1
        with pytest.raises(TdxError, match="^line 4: domains 0: a filter has at least one$"):
            load_transducer(lam_only.replace("domains 1", "domains 0"))
        # a count below 0 has a sign, which no number of the format has
        with pytest.raises(TdxError, match="^line 4: malformed 'domains' line$"):
            load_transducer(lam_only.replace("domains 1", "domains -5"))


class TestRender:
    def test_palette_values(self):
        assert [gray(c, 1) for c in (1, 0, -1, -2, -7)] == [255, 128, 0, 0, 0]
        assert [gray(c, 2) for c in (1, 2)] == [255, 95]
        assert [gray(c, 3) for c in (1, 2, 3)] == [255, 175, 95]

    def test_pgm_exact_bytes(self):
        single = CodedDiagram(((1,),), domain_count=1, break_count=1)
        assert emit_pgm(single) == b"P2\n1 1\n255\n255\n"
        pair = CodedDiagram(((-1, 0),), domain_count=1, break_count=1)
        assert emit_pgm(pair) == b"P2\n2 1\n255\n0 128\n"
        # a filter's break codes -1..-breaks are all black
        rows = CodedDiagram(((-2, 2, 1), (0, -1, 2)), domain_count=2, break_count=2)
        assert emit_pgm(rows) == b"P2\n3 2\n255\n0 95 255\n128 0 95\n"

    def test_pgm_round_trip(self):
        diagram = SpaceTimeDiagram(k=2, rows=((0, 1, 0), (1, 1, 0)))
        data = emit_pgm(diagram)
        assert parse_pgm(data) == [[255, 0, 255], [0, 0, 255]]

    def test_raw_diagram_scaling(self):
        diagram = SpaceTimeDiagram(k=3, rows=((0, 1, 2),))
        assert parse_pgm(emit_pgm(diagram))[0] == [255, 128, 0]

    def test_one_symbol_diagram_is_white(self):
        diagram = SpaceTimeDiagram(k=1, rows=(b"\x00\x00", b"\x00\x00"))
        assert emit_pgm(diagram) == b"P2\n2 2\n255\n255 255\n255 255\n"

    def test_symbol_codes(self, runs01):
        t = build_filter(runs01)
        out = transduce(t, "01")
        assert [symbol_code(s) for s in out] == [1, -1]
        assert out[1] == DomainBreak(*t.breaks[0])
        assert symbol_code(AMBIGUOUS) == 0
        assert symbol_code(DomainBreak()) == -1
