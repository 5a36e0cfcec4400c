import math
import tracemalloc
from pathlib import Path
from random import Random
from statistics import linear_regression

import pytest
from helpers import ALPHA01, number_from_table, orbit_multiplicity_at, reference_random_row

from apdfilter.automata import Alphabet, build_tracker, cyclic_domain
from apdfilter.ca import (
    MAX_RULE_TABLE,
    CodedDiagram,
    SpaceTimeDiagram,
    evolve,
    filter_diagram,
    random_row,
    rule_from_number,
    table_size,
)
from apdfilter.stackfilter import filter_global
from apdfilter.tdx import load_transducer
from apdfilter.transducer import build_filter, transduce_codes

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


class TestRules:
    def test_rule_110_table(self):
        rule = rule_from_number(2, 1, 110)
        # neighborhood value -> output
        expected = {0b111: 0, 0b110: 1, 0b101: 1, 0b100: 0, 0b011: 1, 0b010: 1, 0b001: 1, 0b000: 0}
        for value, out in expected.items():
            assert rule.table[value] == out

    def test_rule_18_table(self):
        rule = rule_from_number(2, 1, 18)
        ones = [v for v in range(8) if rule.table[v] == 1]
        assert ones == [0b001, 0b100]

    def test_rule_zero(self):
        assert rule_from_number(2, 1, 0).table == (0,) * 8

    def test_round_trip_all_elementary(self):
        for n in range(256):
            rule = rule_from_number(2, 1, n)
            assert number_from_table(2, 1, rule.table) == n
            assert rule.wolfram_number == n

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            rule_from_number(1, 1, 0)
        with pytest.raises(ValueError):
            rule_from_number(2, 0, 0)
        with pytest.raises(ValueError):
            rule_from_number(2, 1, 256)
        with pytest.raises(ValueError):
            rule_from_number(2, 1, -1)

    def test_rule_table_budget(self):
        # k=2, r=9 is the largest binary table under the limit
        assert len(rule_from_number(2, 9, 1).table) == 2**19
        for k, r in ((2, 10), (3, 7), (11, 4), (2, 10**9)):
            with pytest.raises(ValueError, match=str(MAX_RULE_TABLE)):
                rule_from_number(k, r, 1)

    def test_rule_number_bits_budget(self):
        # the bound is on the rule number's bits, checked before any division:
        # 101**3 entries fit under 2**20 but their number takes 6.9M bits
        # (its decode took 49 s), and k=16, r=2 takes 4 bits per entry
        assert 6**7 * math.log2(6) < MAX_RULE_TABLE < 16**5 * 4
        for k, r in ((101, 1), (57, 1), (16, 2), (13, 2), (7, 3)):
            with pytest.raises(ValueError, match=f"k={k}, r={r} exceeds {MAX_RULE_TABLE} bits"):
                table_size(k, r)
        assert table_size(56, 1) == 56**3 and table_size(12, 2) == 12**5 and table_size(6, 3) == 6**7
        with pytest.raises(ValueError, match="k=101, r=1 exceeds"):
            rule_from_number(101, 1, 1)

    def test_halving_decode_matches_digit_loop(self):
        # tables of 512 to 16384 entries, read back one digit at a time
        rng = Random(83)
        for k, r in ((2, 4), (3, 3), (5, 2), (4, 3)):
            size = k ** (2 * r + 1)
            for number in (0, k**size - 1, rng.randrange(k**size), rng.randrange(k ** (size // 3))):
                assert number_from_table(k, r, rule_from_number(k, r, number).table) == number
        with pytest.raises(ValueError, match="out of range"):
            rule_from_number(3, 3, 3**2187)

    def test_largest_binary_rule_decodes(self):
        # 2**19 digits; one digit at a time took seconds to minutes
        ones = 2 ** 2**19 - 1
        assert rule_from_number(2, 9, ones).table == (1,) * 2**19
        assert rule_from_number(2, 9, ones // 3).table == (1, 0) * 2**18

    def test_nonbinary_rules(self):
        rule = rule_from_number(3, 1, 42)
        assert rule.apply((0, 0, 0)) == 42 % 3
        assert number_from_table(3, 1, rule.table) == 42


class TestEvolve:
    def test_rule_zero_blanks(self):
        diag = evolve(rule_from_number(2, 1, 0), (1, 0, 1, 1), 3)
        assert diag.rows[1:] == (bytes((0, 0, 0, 0)),) * 3

    def test_empty_row_or_negative_steps_rejected(self):
        rule = rule_from_number(2, 1, 110)
        with pytest.raises(ValueError, match="empty initial row"):
            evolve(rule, (), 3)
        with pytest.raises(ValueError, match="negative step count"):
            evolve(rule, (0, 1), -1)
        assert evolve(rule, (0, 1), 0).rows == (bytes((0, 1)),)

    def test_single_one_under_110(self):
        rule = rule_from_number(2, 1, 110)
        diag = evolve(rule, (0, 0, 0, 1, 0, 0), 1)
        # only neighborhoods 001, 010, 100 fire with outputs 1, 1, 0
        assert diag.rows[1] == bytes((0, 0, 1, 1, 0, 0))

    def test_matches_naive_reference(self):
        rng = Random(71)
        for _ in range(100):
            k = rng.randint(2, 3)
            r = rng.randint(1, 2)
            width = k ** (2 * r + 1)
            number = rng.randrange(k**width)
            rule = rule_from_number(k, r, number)
            n = rng.randint(1, 32)
            steps = rng.randint(0, 32)
            row = tuple(rng.randrange(k) for _ in range(n))
            diag = evolve(rule, row, steps)
            # naive reference: recompute each cell straight from the number
            cur = row
            for t in range(1, steps + 1):
                nxt = []
                for i in range(n):
                    value = 0
                    for d in range(-r, r + 1):
                        value = value * k + cur[(i + d) % n]
                    nxt.append((number // (k**value)) % k)
                cur = tuple(nxt)
                assert diag.rows[t] == bytes(cur)

    def test_k3_r2_matches_rule_apply(self):
        # the rolling neighborhood index against one apply call per cell,
        # rows narrower than the neighborhood included
        rng = Random(79)
        rule = rule_from_number(3, 2, rng.randrange(3**243))
        for n in (1, 2, 4, 5, 6, 17):
            row = tuple(rng.randrange(3) for _ in range(n))
            diag = evolve(rule, row, 6)
            for t in range(1, 7):
                prev = diag.rows[t - 1]
                expected = tuple(
                    rule.apply([prev[(i + d) % n] for d in range(-2, 3)]) for i in range(n)
                )
                assert diag.rows[t] == bytes(expected)

    def test_period_doubling(self):
        rule = rule_from_number(2, 1, 110)
        rng = Random(73)
        for _ in range(20):
            n = rng.randint(3, 10)
            row = tuple(rng.randrange(2) for _ in range(n))
            once = evolve(rule, row, 5)
            doubled = evolve(rule, row * 2, 5)
            for t in range(6):
                assert doubled.rows[t][:n] == once.rows[t]
                assert doubled.rows[t][n:] == once.rows[t]

    def test_wide_row_costs_no_row_sized_temporary_before_its_first_step(self):
        # evolve's own allocations for zero steps, measured above those of
        # the diagram it returns, stay far below one more copy of the row
        rule = rule_from_number(2, 1, 110)
        row = random_row(2, 10**6, 1)
        peaks = []
        for make in (lambda: SpaceTimeDiagram(2, (row,)), lambda: evolve(rule, row, 0)):
            tracemalloc.start()
            try:
                make()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < len(row) // 4

    def test_random_row_reproducible(self):
        a = random_row(2, 64, 42)
        assert a == random_row(2, 64, 42)
        assert a != random_row(2, 64, 43)
        assert set(a) <= {0, 1}
        # the first cells of seed 42, pinned so that a change to the
        # reference generator itself shows
        first = bytes([1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0])
        assert a[:16] == reference_random_row(2, 16, 42) == first
        assert random_row(10, 16, 42) == bytes([3, 1, 8, 4, 0, 2, 5, 8, 5, 4, 7, 6, 8, 5, 6, 0])

    @pytest.mark.parametrize("k", [0, -2, 257])
    def test_random_row_refuses_bad_k(self, k):
        with pytest.raises(ValueError, match=f"k={k}: a row holds one byte per cell"):
            random_row(k, 8, 1)


class TestFilterDiagram:
    def test_pure_domain_rows_all_labeled(self):
        word = "00010011011111"
        dom = cyclic_domain(word, ALPHA01)
        rule = rule_from_number(2, 1, 110)
        diag = evolve(rule, tuple(int(c) for c in word * 3), 20)
        labeled = filter_diagram("transducer", build_filter([dom]), diag)
        assert all(row == (1,) * len(row) for row in labeled.codes)  # DomainLabel(1)

    def test_all_zero_with_zero_domain(self):
        dom = cyclic_domain("0", ALPHA01)
        diag = SpaceTimeDiagram(k=2, rows=((0, 0, 0),) * 4)
        t = build_filter([dom])
        for method, source, breaks in (
            ("transducer", t, len(t.breaks)),
            ("stack", [dom], 1),
            ("bidi", [dom], 1),
        ):
            labeled = filter_diagram(method, source, diag)
            assert labeled.codes == ((1, 1, 1),) * 4, method
            assert (labeled.domain_count, labeled.break_count) == (1, breaks), method

    def test_stack_overlap_marks_breaks(self, d18):
        rule = rule_from_number(2, 1, 18)
        diag = evolve(rule, random_row(2, 24, 5), 12)
        labeled = filter_diagram("stack", [d18], diag)
        assert len(labeled.codes) == 13
        tracker = build_tracker([d18])
        for cells, row in zip(diag.rows, labeled.codes):
            cover = filter_global(tracker, "".join(map(str, cells)))
            if cover.whole_string:
                assert row == (1,) * len(row)
                continue
            for pos, code in enumerate(row, start=1):
                count, _owners = orbit_multiplicity_at(cover, pos)
                # one cover: DomainLabel(1) or AMBIGUOUS; else a DomainBreak
                assert code in ((1, 0) if count == 1 else (-1,))

    def test_stack_rows_of_multi_character_tokens(self):
        # k = 12: cell 11 is the one token "11", not two cells "1"
        alphabet = Alphabet(tuple(str(v) for v in range(12)))
        dom = cyclic_domain(["0", "11"], alphabet)
        rows = ((0, 11, 0, 11, 0, 11), (0, 11, 0, 3, 0, 11), (11, 11, 0, 1, 1, 0))
        labeled = filter_diagram("stack", [dom], SpaceTimeDiagram(k=12, rows=rows))
        assert labeled.codes[0] == (1,) * 6
        tracker = build_tracker([dom])
        for cells, codes in zip(rows, labeled.codes):
            assert len(codes) == len(cells)
            cover = filter_global(tracker, [str(v) for v in cells])
            if cover.whole_string:
                assert codes == (1,) * len(cells)
                continue
            for pos, code in enumerate(codes, start=1):
                count, owners = orbit_multiplicity_at(cover, pos)
                assert code == (1 if count == 1 else -1), (cells, pos)

    def test_one_tracker_per_call(self, d18, build_tracker_calls):
        diag = evolve(rule_from_number(2, 1, 18), random_row(2, 24, 5), 12)
        filter_diagram("stack", [d18], diag)
        assert len(diag.rows) == 13 and len(build_tracker_calls) == 1
        build_tracker_calls.clear()
        build_filter([d18])
        assert len(build_tracker_calls) == 1

    def test_rows_filtered_independently(self):
        dom = cyclic_domain("0", ALPHA01)
        t = build_filter([dom])
        rows = ((0, 0, 0), (0, 1, 0), (0, 0, 0))
        diag = SpaceTimeDiagram(k=2, rows=rows)
        labeled = filter_diagram("transducer", t, diag)
        flipped = SpaceTimeDiagram(k=2, rows=rows[::-1])
        relabeled = filter_diagram("transducer", t, flipped)
        assert labeled.codes == relabeled.codes[::-1]

    def test_symbol_outside_alphabet(self):
        dom = cyclic_domain("0", ALPHA01)
        diag = SpaceTimeDiagram(k=3, rows=((0, 2, 0),))
        with pytest.raises(ValueError, match="not in the filter alphabet"):
            filter_diagram("stack", [dom], diag)

    def test_first_cell_outside_alphabet_in_row_order(self):
        dom = cyclic_domain("01", ALPHA01)
        diag = SpaceTimeDiagram(k=5, rows=((0, 1, 0), (0, 4, 3), (2, 0, 1)))
        for method, source in (("transducer", build_filter([dom])), ("bidi", [dom]), ("stack", [dom])):
            with pytest.raises(ValueError, match="^diagram symbol 4 not in the filter alphabet$"):
                filter_diagram(method, source, diag)

    def test_symbol_indices_past_a_byte(self):
        # "0" and "1" are symbols 299 and 298, so rows cannot be bytes of indices
        alphabet = Alphabet(tuple(f"t{i}" for i in range(298)) + ("1", "0"))
        t = build_filter([cyclic_domain("011", alphabet)])
        rows = ((0, 1, 1, 0, 1, 1), (1, 1, 1, 0, 0, 1))
        labeled = filter_diagram("transducer", t, SpaceTimeDiagram(k=2, rows=rows))
        want = [tuple(transduce_codes(t, [str(v) for v in row], "circular")) for row in rows]
        assert list(labeled.codes) == want

    def test_coded_diagram_by_keyword(self):
        # a row is a tuple of codes or bytes of code mod 256; with two
        # breaks, bytes 255 and 254 are codes -1 and -2
        rows = (b"\x01\x00\xff", (2, -2, 1), b"\xfe\x02\x01")
        coded = CodedDiagram(rows=rows, domain_count=2, break_count=2)
        assert coded.rows == rows
        assert coded.codes == ((1, 0, -1), (2, -2, 1), (-2, 2, 1))

    def test_unknown_method(self):
        # and the domain methods without a domain, as build_tracker fails
        dom = cyclic_domain("0", ALPHA01)
        diag = SpaceTimeDiagram(k=2, rows=((0, 0),))
        for method, source, message in (
            ("nope", [dom], "unknown method"),
            ("bidi", [], "^need at least one domain$"),
            ("stack", [], "^need at least one domain$"),
        ):
            with pytest.raises(ValueError, match=message):
                filter_diagram(method, source, diag)

    def test_rule_18_defects_annihilate_as_inverse_square_root(self):
        # Grassberger (1984): rule 18's domain walls random-walk and
        # annihilate in pairs, so their density decays as t^(-1/2).  The
        # d18 filter's break cells, averaged over seeds 1-8 of 2000-cell
        # rows run 1000 steps, fall with a log-log slope over t = 30-1000
        # within 0.1 of -1/2 (the spread of three seed blocks at this size
        # was -0.426 to -0.496)
        t, _digest = load_transducer((GOLDEN / "d18.tdx").read_text())
        rule, width, steps, seeds = rule_from_number(2, 1, 18), 2000, 1000, range(1, 9)
        breaks = [0] * (steps + 1)
        for seed in seeds:
            coded = filter_diagram("transducer", t, evolve(rule, random_row(2, width, seed), steps))
            below_zero = range(256 - coded.break_count, 256)  # the bytes of the codes below 0
            for row, codes in enumerate(coded.rows):
                breaks[row] += sum(map(codes.count, below_zero))
        fit = range(30, steps + 1)
        density = [math.log(breaks[row] / (width * len(seeds))) for row in fit]
        slope = linear_regression(list(map(math.log, fit)), density).slope
        assert -0.60 <= slope <= -0.40, slope


class TestDiagramTypes:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            SpaceTimeDiagram(k=2, rows=((0, 1), (0,)))

    def test_out_of_range_symbol(self):
        for rows in (((0, 2),), ((0, 1), (-1, 0))):
            with pytest.raises(ValueError, match="symbol out of range"):
                SpaceTimeDiagram(k=2, rows=rows)
