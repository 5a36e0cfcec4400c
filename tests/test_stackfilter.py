import sys
from pathlib import Path
from random import Random
from threading import Thread

import pytest
from helpers import (
    ALPHA01,
    accepting_domains,
    brute_maximal_cover,
    filter_global_full_window,
    orbit_multiplicity_at,
    random_domain,
    reference_local,
    reference_scan,
)

from apdfilter import stackfilter
from apdfilter.automata import Alphabet, build_tracker, cyclic_domain
from apdfilter.ca import evolve, random_row, rule_from_number
from apdfilter.domspec import parse_domain_spec
from apdfilter.optimizer import optimize
from apdfilter.stackfilter import (
    FilterStats,
    MaximalCover,
    _scan,
    filter_global,
    filter_local,
    orbit_multiplicity,
)


def rule110_domains():
    text = (Path(__file__).parent / "data" / "golden" / "rule110.dom").read_text()
    return [pd.domain for pd in parse_domain_spec(text)[1]]


class TestFilterLocal:
    def test_cover_0011(self, d18):
        cover = filter_local(build_tracker([d18]), "0011")
        assert cover.intervals == ((1, 3), (4, 4))
        assert cover.domain_sets == (frozenset({1}), frozenset({1}))

    def test_short_window_returns_whole(self):
        dom = cyclic_domain("0001", ALPHA01)  # three 0s then a 1
        cover = filter_local(build_tracker([dom]), "00")
        assert cover.intervals == ((1, 2),)

    def test_whole_string_inside_domain(self, d18):
        cover = filter_local(build_tracker([d18]), "010101")
        assert cover.intervals == ((1, 6),)

    def test_empty_string(self, d18):
        assert filter_local(build_tracker([d18]), "").intervals == ()

    def test_unknown_symbol(self, d18):
        with pytest.raises(ValueError, match="unknown symbol"):
            filter_local(build_tracker([d18]), "012")

    def test_letter_outside_every_domain(self):
        dom = cyclic_domain("0", ALPHA01)
        cover = filter_local(build_tracker([dom]), "010")
        assert cover.intervals == ((1, 1), (3, 3))
        # a leading dead letter produces only a dropped degenerate interval
        cover = filter_local(build_tracker([dom]), "110")
        assert cover.intervals == ((3, 3),)

    def test_matches_brute_force_random(self, d18, cyc001):
        rng = Random(101)
        sets = [[d18], [cyc001], [d18, cyc001]]
        trackers = [build_tracker(domains) for domains in sets]
        for _ in range(120):
            n = rng.randint(0, 16)
            sigma = "".join(rng.choice("01") for _ in range(n))
            for domains, tracker in zip(sets, trackers):
                stats = FilterStats()
                cover = filter_local(tracker, sigma, stats=stats)
                m = len(tracker.masks)
                assert stats.pair_advances <= len(sigma) * m, (sigma, len(domains))
                brute = brute_maximal_cover(domains, sigma)
                assert list(cover.intervals) == brute, (sigma, len(domains))
                assert cover.domain_sets == tuple(
                    accepting_domains(domains, sigma[a - 1 : b]) for (a, b) in cover.intervals
                ), (sigma, len(domains))

    def test_antichain_validated(self):
        with pytest.raises(ValueError, match="antichain"):
            MaximalCover(((1, 4), (2, 3)))

    def test_stats_count_on_accepted_string(self):
        dom = cyclic_domain("0", ALPHA01)
        for n in (1, 5, 12):
            stats = FilterStats()
            filter_local(build_tracker([dom]), "0" * n, stats=stats)
            # one merged pair per tracker state: n advances, not n(n+1)/2
            assert stats.pair_advances == n


class TestFilterGlobal:
    def test_whole_string(self, cyc001):
        cover = filter_global(build_tracker([cyc001]), "001")
        assert cover.whole_string
        assert cover.intervals == ()
        assert cover.whole_domains == frozenset({1})

    def test_zero_run_overlap_structure(self, cyc001):
        # all-zero string against the 001 cycle: length-2 windows everywhere
        cover = filter_global(build_tracker([cyc001]), "0")
        assert not cover.whole_string
        assert cover.intervals == ((1, 2),)
        assert cover.period == 1
        counts, owners = orbit_multiplicity(cover)
        assert counts == [2]  # heavily overlapping: two shifts cover each cell
        assert owners == [0]  # both shifts come from representative 0

    def test_all_ones_against_d18(self, d18):
        cover = filter_global(build_tracker([d18]), "11")
        assert cover.intervals == ((1, 1), (2, 2))
        assert cover.domain_sets == (frozenset({1}), frozenset({1}))

    def test_accepts_token_sequence(self, d18):
        tracker = build_tracker([d18])
        assert filter_global(tracker, ["0", "1"]).whole_string
        assert filter_global(tracker, ("1", "1")) == filter_global(tracker, "11")
        for empty in ("", []):
            with pytest.raises(ValueError, match="empty period word"):
                filter_global(tracker, empty)

    def test_global_local_center_consistency(self, d18, cyc001):
        # unroll five periods; center-touching brute intervals must equal the
        # center-touching members of the unrolled orbit
        sets = [[d18], [cyc001], [d18, cyc001]]
        for word in ("0", "1", "01", "11", "001", "0110", "10010", "110100"):
            n = len(word)
            window = word * 5
            lo, hi = 2 * n + 1, 3 * n
            for domains, tracker in zip(sets, map(build_tracker, sets)):
                brute = [
                    (a, b)
                    for (a, b) in brute_maximal_cover(domains, window)
                    if a <= hi and b >= lo
                ]
                cover = filter_global(tracker, word)
                if cover.whole_string:
                    assert brute == [(1, 5 * n)]
                    assert cover.whole_domains == accepting_domains(domains, window)
                    continue
                assert cover.domain_sets == tuple(
                    accepting_domains(domains, window[a - 1 : b]) for (a, b) in cover.intervals
                ), (word, len(domains))
                unrolled = sorted(
                    (a + q * n, b + q * n)
                    for (a, b) in cover.intervals
                    for q in range(-6, 6)
                    if 1 <= a + q * n
                    and b + q * n <= 5 * n
                    and a + q * n <= hi
                    and b + q * n >= lo
                )
                assert unrolled == brute, (word, len(domains))


class TestEarlyStop:
    def test_matches_full_window_random(self):
        # seeded domain sets over 01 and 012, each also optimized: the split
        # domains are non-recurrent and have more states, so longer windows
        rng = Random(113)
        whole = covers = 0
        for alphabet in (ALPHA01, Alphabet(("0", "1", "2"))):
            for _ in range(40):
                domains = [random_domain(rng, alphabet, 6) for _ in range(rng.randint(1, 3))]
                for doms in (domains, [sd.domain for sd in optimize(domains)]):
                    tracker = build_tracker(doms)
                    for _ in range(6):
                        word = "".join(
                            rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 9))
                        )
                        cover = filter_global(tracker, word)
                        assert cover == filter_global_full_window(tracker, word), word
                        whole += cover.whole_string
                        covers += not cover.whole_string
        assert whole > 100 and covers > 300

    def test_stops_before_the_window_end(self):
        # a defect in the rule-110 period: the configuration repeats long
        # before the 15-period window ends
        tracker = build_tracker(rule110_domains())
        word = "00010011011111" * 2 + "0110"
        early, full = FilterStats(), FilterStats()
        cover = filter_global(tracker, word, stats=early)
        assert cover == filter_global_full_window(tracker, word, stats=full)
        assert not cover.whole_string and cover.intervals
        assert 0 < early.pair_advances < full.pair_advances

    def test_rule110_rows_stop_in_the_second_copy(self):
        # every row of a 100 x 100 rule-110 diagram stops within its second
        # copy, with its bottom pair flushed there, short of scanning two
        # whole copies
        tracker = build_tracker(rule110_domains())
        m = max(d.fa.state_count for d in tracker.domains)
        diagram = evolve(rule_from_number(2, 1, 110), random_row(2, 100, 1), 99)
        for row in diagram.rows:
            syms = tracker.alphabet.encode("".join(map(str, row)))
            intervals, _, _, stop = _scan(tracker, syms, repeats=m + 1)
            assert 100 < stop < 200, row
            assert intervals[-1][1] == stop, row

    def test_stops_on_the_last_copy(self, d18):
        # found by a search over short words: d18 (m = 2) on 00010 keeps a
        # pair begun in the first period live into the third copy, so the
        # scan stops at 14 of the 15-letter window, and the one orbit's
        # representative is 9 letters long, near the m*N = 10 bound
        tracker = build_tracker([d18])
        syms = tracker.alphabet.encode("00010")
        assert not _scan(tracker, syms, repeats=2)[3]
        assert _scan(tracker, syms, repeats=3)[3] == 14
        cover = filter_global(tracker, "00010")
        assert cover == filter_global_full_window(tracker, "00010")
        assert cover.intervals == ((5, 13),)
        assert cover.domain_sets == (frozenset({1}),)


class TestConfigurationAutomaton:
    def test_matches_reference_scan_random(self):
        # seeded domain sets over 01 and 012, every other one optimized (split
        # domains, many more tracker states); words of 0-60 letters, scanned
        # once and as 3 and 6 copies with the early stop
        rng = Random(131)
        emitted = stopped = 0
        for alphabet in (ALPHA01, Alphabet(("0", "1", "2"))):
            for n_set in range(40):
                domains = [random_domain(rng, alphabet, 5) for _ in range(rng.randint(1, 3))]
                if n_set % 2:
                    domains = [sd.domain for sd in optimize(domains)]
                tracker = build_tracker(domains)
                for _ in range(5):
                    syms = [rng.randrange(len(alphabet)) for _ in range(rng.randint(0, 60))]
                    for repeats in (1, 3, 6):
                        got, want = FilterStats(), FilterStats()
                        scan = _scan(tracker, syms, repeats, stats=got)
                        want_scan = reference_scan(tracker, syms, repeats, stats=want)
                        assert scan == want_scan, (syms, repeats)
                        assert got.pair_advances == want.pair_advances, (syms, repeats)
                        emitted += len(scan[0]) > 1
                        stopped += repeats > 1 and got.pair_advances < repeats * len(syms)
        assert emitted > 500 and stopped > 100

    @pytest.mark.parametrize("cap", [1, 2])
    def test_cap_resets_the_kept_table(self, monkeypatch, cap):
        # filter_local and filter_global calls on shared trackers, with the
        # cap on kept configurations far below what the scans reach: a call
        # that starts above the cap starts a fresh table, the covers and the
        # advances are the reference scan's, and the kept table never holds
        # more than the cap plus the letters of one call
        monkeypatch.setattr(stackfilter, "MAX_SCAN_CONFIGS", cap)
        rng = Random(139)
        sets = [rule110_domains()] + [
            [random_domain(rng, ALPHA01, 5) for _ in range(rng.randint(1, 3))] for _ in range(8)
        ]
        resets = kept = 0
        for domains in sets:
            tracker = build_tracker(domains)
            automaton = tracker.scan_automaton
            m = max(d.fa.state_count for d in domains)
            for _ in range(12):
                word = "".join(rng.choice("01") for _ in range(rng.randint(1, 24)))
                syms = tracker.alphabet.encode(word)
                tables = automaton.tables
                fresh = len(tables[0]) > cap
                got, want = FilterStats(), FilterStats()
                if rng.random() < 0.5:
                    letters = len(word)
                    assert filter_local(tracker, word, stats=got) == reference_local(
                        tracker, syms, stats=want
                    ), word
                else:
                    letters = len(word) * (m + 1)
                    cover = filter_global(tracker, word, stats=got)
                    assert cover == filter_global_full_window(tracker, word), word
                    reference_scan(tracker, syms, repeats=m + 1, stats=want)
                assert got.pair_advances == want.pair_advances, word
                assert (automaton.tables is not tables) == fresh, word
                resets += fresh
                kept += not fresh
                configs, ids, table = automaton.tables
                assert len(configs) <= cap + letters, word
                assert len(ids) == len(configs) and len(table) == len(configs) * len(tracker.step)
        assert resets > 50 and kept > 0

    @pytest.mark.parametrize("cap", [8, stackfilter.MAX_SCAN_CONFIGS])
    def test_threads_share_one_kept_table(self, monkeypatch, cap):
        # more threads than cores fill, and below the rule-110 tracker's 27
        # configurations also reset, one kept table, switching as often as
        # the interpreter allows: every cover is the reference scan's, and
        # every configuration keeps the one id its table row was made for
        monkeypatch.setattr(stackfilter, "MAX_SCAN_CONFIGS", cap)
        tracker = build_tracker(rule110_domains())
        rng = Random(149)
        words = ["".join(rng.choice("01") for _ in range(rng.randint(1, 40))) for _ in range(60)]
        want = [reference_local(tracker, tracker.alphabet.encode(w)) for w in words]
        failures = []

        def scan_all(order):
            try:
                for i in order:
                    if filter_local(tracker, words[i]) != want[i]:
                        failures.append(words[i])
            except Exception as e:  # reported by the main thread
                failures.append(e)

        orders = [rng.sample(range(len(words)), len(words)) for _ in range(6)]
        threads = [Thread(target=scan_all, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        configs, ids, table = tracker.scan_automaton.tables
        assert [ids[c] for c in configs] == list(range(len(configs)))
        assert len(ids) == len(configs) and len(table) == len(configs) * len(tracker.step)


class TestOrbitMultiplicity:
    def test_needs_period(self):
        with pytest.raises(ValueError, match="period"):
            orbit_multiplicity(MaximalCover(((1, 2),)))

    def test_multiplicity_counts_every_shift(self, cyc001):
        cover = filter_global(build_tracker([cyc001]), "00")  # period 2, zeros forever
        assert cover.intervals == ((1, 2), (2, 3))
        counts, owners = orbit_multiplicity(cover)
        assert counts == [2, 2]
        assert owners == [1, 1]  # representatives 0 and 1 at each position

    def test_matches_per_position_oracle(self):
        rng = Random(107)
        seen = set()  # multiplicities met, so single and overlapping cells both occur
        for _ in range(150):
            tracker = build_tracker(
                [random_domain(rng, ALPHA01) for _ in range(rng.randint(1, 3))]
            )
            for _ in range(4):
                word = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
                cover = filter_global(tracker, word)
                counts, owners = orbit_multiplicity(cover)
                for pos in range(1, len(word) + 1):
                    count, owned = orbit_multiplicity_at(cover, pos)
                    assert counts[pos - 1] == count, (word, pos)
                    if count == 1:
                        assert owners[pos - 1] == owned[0], (word, pos)
                    seen.add(min(count, 3))
        assert seen == {0, 1, 2, 3}
