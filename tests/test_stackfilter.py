from random import Random

import pytest
from helpers import ALPHA01, accepting_domains, brute_maximal_cover

from apdfilter.automata import cyclic_domain, determinize, disjoint_union
from apdfilter.stackfilter import (
    FilterStats,
    MaximalCover,
    PeriodicString,
    filter_global,
    filter_local,
    orbit_multiplicity,
)


class TestFilterLocal:
    def test_cover_0011(self, d18):
        cover = filter_local([d18], "0011")
        assert cover.intervals == ((1, 3), (4, 4))
        assert cover.domain_sets == (frozenset({1}), frozenset({1}))

    def test_short_window_returns_whole(self):
        dom = cyclic_domain("0001", ALPHA01)  # three 0s then a 1
        cover = filter_local([dom], "00")
        assert cover.intervals == ((1, 2),)

    def test_whole_string_inside_domain(self, d18):
        cover = filter_local([d18], "010101")
        assert cover.intervals == ((1, 6),)

    def test_empty_string(self, d18):
        assert filter_local([d18], "").intervals == ()

    def test_unknown_symbol(self, d18):
        with pytest.raises(ValueError, match="unknown symbol"):
            filter_local([d18], "012")

    def test_letter_outside_every_domain(self):
        dom = cyclic_domain("0", ALPHA01)
        cover = filter_local([dom], "010")
        assert cover.intervals == ((1, 1), (3, 3))
        # a leading dead letter produces only a dropped degenerate interval
        cover = filter_local([dom], "110")
        assert cover.intervals == ((3, 3),)

    def test_matches_brute_force_random(self, d18, cyc001):
        rng = Random(101)
        sets = [[d18], [cyc001], [d18, cyc001]]
        tracker_states = [
            determinize(disjoint_union([d.fa for d in domains])).state_count for domains in sets
        ]
        for _ in range(120):
            n = rng.randint(0, 16)
            sigma = "".join(rng.choice("01") for _ in range(n))
            for domains, m in zip(sets, tracker_states):
                stats = FilterStats()
                cover = filter_local(domains, sigma, stats=stats)
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
            filter_local([dom], "0" * n, stats=stats)
            # one merged pair per tracker state: n advances, not n(n+1)/2
            assert stats.pair_advances == n


class TestFilterGlobal:
    def test_whole_string(self, cyc001):
        cover = filter_global([cyc001], "001")
        assert cover.whole_string
        assert cover.intervals == ()
        assert cover.whole_domains == frozenset({1})

    def test_zero_run_overlap_structure(self, cyc001):
        # all-zero string against the 001 cycle: length-2 windows everywhere
        cover = filter_global([cyc001], "0")
        assert not cover.whole_string
        assert cover.intervals == ((1, 2),)
        assert cover.period == 1
        count, owners = orbit_multiplicity(cover, 1)
        assert count == 2  # heavily overlapping: two shifts cover each cell
        assert owners == [0]

    def test_all_ones_against_d18(self, d18):
        cover = filter_global([d18], "11")
        assert cover.intervals == ((1, 1), (2, 2))
        assert cover.domain_sets == (frozenset({1}), frozenset({1}))

    def test_accepts_periodic_string_object(self, d18):
        assert filter_global([d18], PeriodicString("01")).whole_string

    def test_global_local_center_consistency(self, d18, cyc001):
        # unroll five periods; center-touching brute intervals must equal the
        # center-touching members of the unrolled orbit
        sets = [[d18], [cyc001], [d18, cyc001]]
        for word in ("0", "1", "01", "11", "001", "0110", "10010", "110100"):
            n = len(word)
            window = word * 5
            lo, hi = 2 * n + 1, 3 * n
            for domains in sets:
                brute = [
                    (a, b)
                    for (a, b) in brute_maximal_cover(domains, window)
                    if a <= hi and b >= lo
                ]
                cover = filter_global(domains, word)
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


class TestOrbitMultiplicity:
    def test_needs_period(self):
        with pytest.raises(ValueError, match="period"):
            orbit_multiplicity(MaximalCover(((1, 2),)), 1)

    def test_multiplicity_counts_every_shift(self, cyc001):
        cover = filter_global([cyc001], "00")  # period 2, zeros forever
        assert cover.intervals == ((1, 2), (2, 3))
        for p in (1, 2):
            count, owners = orbit_multiplicity(cover, p)
            assert count == 2
            assert owners == [0, 1]
