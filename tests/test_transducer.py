from pathlib import Path
from random import Random

import pytest
from helpers import (
    ALPHA01,
    brute_resync_candidates,
    filter_arcs,
    forbidden_pairs,
    random_domain,
    reference_resync,
    tracker_dfa,
    walk_transitions,
    zero_cycle_domain,
)

from apdfilter.automata import (
    Alphabet,
    FiniteAutomaton,
    build_tracker,
    cyclic_domain,
    determinize,
)
from apdfilter.domspec import parse_domain_spec
from apdfilter.optimizer import OptimizeError, optimize
from apdfilter.stackfilter import filter_global, filter_local
from apdfilter.tdx import load_transducer
from apdfilter.transducer import (
    AMBIGUOUS,
    DomainBreak,
    DomainLabel,
    bidirectional,
    bidirectional_filters,
    build_filter,
    resync,
    symbol_code,
    transduce,
    transduce_codes,
)


def tag_state(t, tag):
    return t.state_tags.index(frozenset(tag))


def arc(t, state, sym):
    """(output, target) of the transition from ``state`` on ``sym``."""
    code, target = filter_arcs(t)[state, sym]
    return t.symbols[code], target


class TestBaseTransducer:
    """The filter's arcs that follow the tracker, labeled by target."""

    def test_single_domain_all_labeled(self, d18):
        tracker = build_tracker([d18])
        t = build_filter([d18])
        tracker_arcs = {
            (s, a): (1, d)
            for a, row in enumerate(tracker.step)
            for s, d in enumerate(row)
            if d is not None
        }
        # every arc that is no break is the tracker's own, labeled d1
        assert {key: arc for key, arc in filter_arcs(t).items() if arc[0] >= 0} == tracker_arcs

    def test_two_runs_label_by_domain(self, runs01):
        t = build_filter(runs01)
        assert arc(t, t.start, 0)[0] == DomainLabel(1)
        assert arc(t, t.start, 1)[0] == DomainLabel(2)

    def test_overlapping_domains_emit_ambiguity(self):
        doms = [cyclic_domain("01", ALPHA01), cyclic_domain("0011", ALPHA01)]
        t = build_filter(doms)
        out, target = arc(t, t.start, 0)
        assert out == AMBIGUOUS
        # after one 0 both domains are still live
        assert len(t.state_tags[target]) > 1


def oracle_sets():
    """Seeded domain sets over two and three letters, random and cyclic,
    and ten of them split by the optimizer."""
    rng = Random(53)
    sets = []
    for alphabet in (ALPHA01, Alphabet(("0", "1", "2"))):
        for n in range(40):
            if n % 2:
                domains = [random_domain(rng, alphabet) for _ in range(rng.randint(1, 2))]
            else:
                domains = [
                    cyclic_domain(
                        "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 6))),
                        alphabet,
                    )
                    for _ in range(rng.randint(1, 3))
                ]
            sets.append(domains)
    # split domains carry nonrecurrent states
    return sets + [[sd.domain for sd in optimize(domains)] for domains in sets[:10]]


def reports_by_pair(tracker):
    """The tracker's resync reports keyed by (state, symbol)."""
    return {(r.state, r.symbol): r for r in resync(tracker)}


class TestResync:
    def test_d18_resyncs_to_boundary(self, d18):
        tracker = build_tracker([d18])
        boundary = tag_state(tracker_dfa(tracker), {0})
        report = reports_by_pair(tracker)[boundary, "1"]
        assert report.target == boundary
        assert (report.specificity, report.past_length) == (1, 1)
        # every candidate ever examined projects onto the boundary state
        for (_il, states) in report.candidates:
            assert states <= {boundary, 0}

    def test_two_runs_cross_domain(self, runs01):
        tracker = build_tracker(runs01)
        dfa = tracker_dfa(tracker)
        zero_state, one_state = tag_state(dfa, {0}), tag_state(dfa, {1})
        report = reports_by_pair(tracker)[zero_state, "1"]
        assert report.target == one_state
        assert report.specificity == 1

    def test_repeated_symbol_resync(self):
        tracker = build_tracker([cyclic_domain("01", ALPHA01)])
        after_zero = tracker.step[0][0]
        report = reports_by_pair(tracker)[after_zero, "0"]
        assert report.target == after_zero
        assert report.specificity == 1

    @pytest.mark.parametrize("extra, specificity", [("", 1), ("domain Z cyclic 0\n", 2)])
    def test_arcless_state_resyncs_to_start(self, extra, specificity):
        # E's one state has no arcs: alone, the walk ends on an empty layer
        _alphabet, parsed = parse_domain_spec(
            "alphabet 0 1\ndomain E\n  state p\nend\n" + extra
        )
        tracker = build_tracker([p.domain for p in parsed])
        reports = resync(tracker)
        assert [(r.state, r.symbol) for r in reports] == [
            (s, ALPHA01.symbols[sym]) for (s, sym) in forbidden_pairs(tracker_dfa(tracker))
        ]
        for report in reports:
            assert report.target == 0  # the tracker's start
            assert (report.specificity, report.past_length) == (specificity, 0)

    def test_candidates_match_brute_oracle(self):
        for domains in oracle_sets():
            tracker = build_tracker(domains)
            dfa = tracker_dfa(tracker)
            alphabet = dfa.alphabet
            reports = resync(tracker)
            assert [(r.state, r.symbol) for r in reports] == [
                (s, alphabet.symbols[sym]) for (s, sym) in forbidden_pairs(dfa)
            ]
            sizes = {len(tag) for tag in dfa.state_tags}
            for report in reports:
                oracle, end = brute_resync_candidates(dfa, report.state, report.symbol)
                table = dict(report.candidates)
                if end is not None:
                    assert all(l < end for (_i, l) in table)
                for i in sizes:
                    if i > report.specificity:
                        continue
                    tagged = {t for t, tag in enumerate(dfa.state_tags) if len(tag) == i}
                    for l in range(len(oracle)):
                        assert table.get((i, l), frozenset()) == oracle[l] & tagged, (
                            domains, report.state, report.symbol, i, l
                        )

    def test_deterministic_reports(self, d18):
        tracker = build_tracker([d18])
        assert resync(tracker) == resync(build_tracker([d18]))

    def test_matches_reference_resync(self):
        # every report field equal, candidates included, on the oracle
        # sets, on cyclic words like the benchmark corpus and on partial
        # 0-cycles; the (n, seed) pairs keep each reference run short
        rng = Random(29)
        words = [
            "".join(rng.choice("01") for _ in range(length)) for length in range(12, 61, 6)
        ]
        cycles = [(12, 2), (12, 7), (14, 2), (14, 4), (16, 3), (16, 10)]
        cycles += [(18, 2), (18, 3), (20, 30), (20, 33)]
        sets = oracle_sets() + [[cyclic_domain(w, ALPHA01)] for w in words]
        sets += [[zero_cycle_domain(Random(seed), n)] for n, seed in cycles]
        for domains in sets:
            tracker = build_tracker(domains)
            assert resync(tracker) == reference_resync(tracker), domains


class TestBuildFilter:
    def test_d18_filter_shape(self, d18):
        t = build_filter([d18])
        assert t.state_count == 3
        tracker = determinize(d18.fa)
        boundary = tag_state(tracker, {0})
        breaks = [(s, a, code, d) for (s, a), (code, d) in filter_arcs(t).items() if code < 0]
        assert breaks == [(boundary, 1, -1, boundary)]
        assert t.breaks == ((boundary, boundary),)
        assert len(t.resync_reports) == 1

    def test_principal_110_domain_filter_complete(self):
        t = build_filter([cyclic_domain("00010011011111", ALPHA01)])
        assert None not in t.next
        singleton_states = sum(1 for tag in t.state_tags if len(tag) == 1)
        assert singleton_states >= 14  # the recurrent cycle survives determinization

    def test_two_runs_segmenter(self, runs01):
        t = build_filter(runs01)
        out = transduce(t, "01")
        assert out[0] == DomainLabel(1)
        assert isinstance(out[1], DomainBreak)

    def test_break_table_stable(self, runs01):
        t = build_filter(runs01)
        # codes -1, -2, ... by first use in (state, letter) order
        first_use = list(dict.fromkeys(c for c in t.code if c < 0))
        assert first_use == list(range(-1, -len(t.breaks) - 1, -1))
        assert build_filter(runs01).breaks == t.breaks

    def test_arcs_follow_tracker_and_reports(self):
        rng = Random(71)
        for alphabet in (ALPHA01, Alphabet(("0", "1", "2"))):
            for _ in range(20):
                domains = [random_domain(rng, alphabet) for _ in range(rng.randint(1, 3))]
                tracker = build_tracker(domains)
                t = build_filter(domains)
                arcs = filter_arcs(t)
                assert len(arcs) == len(tracker.masks) * len(alphabet)
                for a, row in enumerate(tracker.step):
                    for s, d in enumerate(row):
                        if d is not None:
                            doms = tracker.state_domains[d]
                            label = next(iter(doms)) if len(doms) == 1 else 0
                            assert arcs[s, a] == (label, d)
                for r in t.resync_reports:
                    code, target = arcs[r.state, alphabet.index(r.symbol)]
                    assert (target, t.breaks[-code - 1]) == (r.target, (r.state, r.target))

    def test_hot_paths_skip_the_automaton_view(self, d18, runs01, determinize_calls):
        tracker = build_tracker([d18, *runs01])
        resync(tracker)
        filter_local(tracker, "0010111")
        filter_global(tracker, "001")
        t = build_filter([d18, *runs01])
        assert determinize_calls == []
        assert t.state_tags == tracker_dfa(tracker).state_tags


class TestTransduce:
    def test_pure_domain_string(self, d18):
        t = build_filter([d18])
        assert transduce(t, "0101010") == [DomainLabel(1)] * 7

    def test_break_at_gap_right_edges(self, d18):
        # "10011" leaves the domain at position 4 (right 1 of the 00 gap)
        # and again at position 5 ("11" is itself a zero-width gap)
        t = build_filter([d18])
        out = transduce(t, "10011")
        assert [isinstance(o, DomainBreak) for o in out] == [
            False,
            False,
            False,
            True,
            True,
        ]
        assert out[:3] == [DomainLabel(1)] * 3

    def test_gap_embedding_breaks_only_terminal_one(self, d18):
        t = build_filter([d18])
        for n in range(1, 6):
            sigma = "01" + "0" * (2 * n) + "1" + "00"
            out = transduce(t, sigma)
            expected_break = len("01" + "0" * (2 * n))  # 0-based position of right 1
            for pos, sym in enumerate(out):
                assert isinstance(sym, DomainBreak) == (pos == expected_break)

    def test_circular_warm_up(self, cyc001):
        t = build_filter([cyc001])
        assert transduce(t, "001001", "circular") == [DomainLabel(1)] * 6
        # a rotation of the period synchronizes the same way
        assert transduce(t, "010010", "circular") == [DomainLabel(1)] * 6

    def test_circular_rejects_empty(self, d18):
        t = build_filter([d18])
        with pytest.raises(ValueError, match="non-empty"):
            transduce(t, "", "circular")

    def test_emits_one_symbol_per_letter(self, d18):
        t = build_filter([d18])
        rng = Random(31)
        for _ in range(50):
            sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 20)))
            assert len(transduce(t, sigma)) == len(sigma)

    def test_lipschitz_prefix_property(self, d18, cyc001):
        t = build_filter([d18, cyc001])
        rng = Random(37)
        for _ in range(40):
            k = rng.randint(0, 10)
            shared = "".join(rng.choice("01") for _ in range(k))
            a = shared + "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            b = shared + "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            assert transduce(t, a)[:k] == transduce(t, b)[:k]

    def test_consistency_with_stack_cover(self, d18):
        # inside each maximal interval, once synchronized the transducer
        # labels with that interval's domain
        t = build_filter([d18])
        sigma = "0100100"
        cover = filter_local(build_tracker([d18]), sigma)
        out = transduce(t, sigma)
        for (a, b), doms in zip(cover.intervals, cover.domain_sets):
            if len(doms) != 1:
                continue
            label = DomainLabel(next(iter(doms)))
            interior = out[a:b]  # skip the first cell of the interval
            assert all(
                sym == label for sym in interior if not isinstance(sym, DomainBreak)
            )


def random_filters(rng, alphabet, count):
    """Seeded filters of random domain sets, plain and optimized; sets
    whose optimizer hits its pass cap are skipped."""
    filters = []
    while len(filters) < count:
        domains = [random_domain(rng, alphabet) for _ in range(rng.randint(1, 3))]
        try:
            filters.append(build_filter(domains))
            filters.append(build_filter([sd.domain for sd in optimize(domains)]))
        except OptimizeError:
            continue
    return filters


class TestIntegerLoop:
    """``transduce`` against a direct walk over the transition set."""

    @pytest.mark.parametrize("symbols", [("0", "1"), ("0", "1", "2"), ("ab", "c", "dd")])
    def test_matches_transition_walk(self, symbols):
        alphabet = Alphabet(symbols)
        rng = Random(len(symbols) * 101 + len(symbols[0]))
        for t in random_filters(rng, alphabet, 24):
            assert None not in t.next
            for _ in range(10):
                tokens = [rng.choice(symbols) for _ in range(rng.randint(1, 30))]
                # a string of one-character tokens runs as a str too
                sigma = "".join(tokens) if len(symbols[-1]) == 1 else tokens
                for mode in ("linear", "circular"):
                    expected = walk_transitions(t, tokens, mode == "circular")
                    assert transduce(t, sigma, mode) == expected
                    codes = transduce_codes(t, sigma, mode)
                    assert [t.symbols[c] for c in codes] == expected

    def test_outputs_are_shared_symbols(self, d18):
        t = build_filter([d18])
        out = transduce(t, "0110100101")
        assert all(o is t.symbols[code] for o, code in zip(out, transduce_codes(t, "0110100101")))
        assert {symbol_code(o) for o in t.symbols.values()} == {1, 0, -1}

    def test_a_declared_domain_count_builds_no_symbols(self):
        # d18.tdx declaring 99999999999 domains: the symbols are those of
        # the codes the table emits, so the run is d18's
        data = Path(__file__).resolve().parent / "data"
        huge = load_transducer((data / "hostile" / "huge-domains.tdx").read_text())[0]
        d18 = load_transducer((data / "golden" / "d18.tdx").read_text())[0]
        one, jump = DomainLabel(1), DomainBreak(*d18.breaks[0])
        assert transduce(huge, "0110") == [one, one, jump, one] == transduce(d18, "0110")
        assert set(huge.symbols) == {0, 1, -1}

    def test_unknown_letter_and_bad_mode(self, d18):
        t = build_filter([d18])
        with pytest.raises(ValueError, match="unknown symbol '2'"):
            transduce(t, "0120")
        with pytest.raises(ValueError, match="unknown symbol '01'"):
            transduce(t, ["0", "01"])
        with pytest.raises(ValueError, match="bad mode"):
            transduce(t, "01", "spiral")


class TestBidirectional:
    def test_gap_filled_both_edges(self, d18):
        filters = bidirectional_filters([d18])
        for n in range(1, 4):
            sigma = "01" + "0" * (2 * n) + "1" + "00"
            out = bidirectional(filters, sigma)
            left_one = 1
            right_one = len("01" + "0" * (2 * n))
            for pos, sym in enumerate(out):
                inside_gap = left_one <= pos <= right_one
                assert isinstance(sym, DomainBreak) == inside_gap, (n, pos)
                if not inside_gap:
                    assert sym == DomainLabel(1)

    def test_pure_domain_matches_single_pass(self, d18):
        t = build_filter([d18])
        sigma = "00100010"
        assert bidirectional(bidirectional_filters([d18]), sigma) == transduce(t, sigma)

    def test_double_one_both_positions_break(self, d18):
        out = bidirectional(bidirectional_filters([d18]), "11")
        assert all(isinstance(sym, DomainBreak) for sym in out)

    def test_non_reversible_domain_rejected(self):
        fa = FiniteAutomaton(
            ALPHA01,
            3,
            frozenset([0, 1, 2]),
            frozenset([0, 1, 2]),
            # two different states reach 0 on "0": reversal is not
            # semi-deterministic
            frozenset([(0, 0, 1), (1, 0, 0), (2, 0, 0), (1, 1, 2), (0, 1, 2), (2, 1, 1)]),
        )
        from apdfilter.automata import Domain

        with pytest.raises(ValueError, match="not reversible"):
            bidirectional_filters([Domain(fa)])
