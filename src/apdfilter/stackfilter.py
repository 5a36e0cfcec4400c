"""Exact maximal-substring covering with a pair stack.

A string is scanned once while a stack of (tracker state, start index)
pairs follows every suffix still consistent with some domain.  When the
oldest pair dies its interval is emitted; younger pairs dying at the
same step are contained in it and emit nothing.  Pairs in the same
tracker state advance and die together, so only the oldest is kept: the
stack holds at most one pair per tracker state and the scan does O(n*m)
work (m tracker states), not the O(n^2) of the unmerged scan.  The
stack's shape is finite-state: the tuple of live tracker states, oldest
first, depends only on the tuple before and the letter, and only the
begin indices are unbounded memory.  The scan therefore runs an
automaton over these tuples, built lazily and kept with the tracker
(``ScanAutomaton``), so every call on one tracker, every row of a
diagram included, reads and fills one table; a call that finds more
than ``MAX_SCAN_CONFIGS`` configurations kept starts a fresh one.  Each
letter costs one table lookup plus one remap of the begins tuple.  Both
variants take a prebuilt ``Tracker``: the scan follows its step table,
and the domain set of an emitted interval is the dying pair's
``state_domains`` entry.

The global variant handles periodic two-way infinite strings through a
pumping-bound window of (m+1)*N letters (m the largest domain state
count, N the period), scanned one period at a time until the live pairs,
with their ages, repeat at a period boundary kN.  The configuration at
(k-1)N is then the true one for the infinite string: it repeats at
every later boundary, as the infinite string's does, and past m*N the
two agree, since a pair begun before letter 1 would be longer than m*N,
which pumps to the whole string.  From (k-1)N on the scan is the
infinite string's scan, which emits every maximal interval once, at its
death, so the last period's emissions are one maximal interval per
orbit; each shifted to start in 1..N is a representative, and maximal
intervals never nest, so no orbit needs deduplicating or reducing.  A
scan that never stops is exactly the whole-string case: the pair begun
at letter 1 then never dies and only grows older.  The representatives'
domain sets come from running every domain over their text.
``orbit_multiplicity`` counts, in one sweep, how many shifted
representatives cover each position of the period, from which
``periodic_codes`` codes a diagram's rows for ``ca.filter_diagram``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from threading import Lock
from typing import Sequence

from .automata import Domain, Tracker, accepts, build_tracker, label_code

MAX_SCAN_CONFIGS = 2**14  # configurations a kept scan automaton may hold when a call starts


@dataclass(frozen=True)
class MaximalCover:
    """Antichain of maximal accepted substrings as 1-based inclusive intervals.

    ``domain_sets`` is an extension beyond the interval list: for each
    interval, the set of 1-based indices of the domains accepting it.
    For covers of periodic strings ``period`` is set and the intervals are
    representatives; the full cover is every shift by a multiple of the
    period.  ``whole_string`` flags the degenerate periodic case where the
    entire infinite string is the single maximal substring.
    """

    intervals: tuple[tuple[int, int], ...]
    whole_string: bool = False
    domain_sets: tuple[frozenset[int], ...] = ()
    period: int | None = None
    whole_domains: frozenset[int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        object.__setattr__(self, "domain_sets", tuple(self.domain_sets))
        last = (0, 0)
        for (a, b) in self.intervals:
            if not 1 <= a <= b:
                raise ValueError(f"bad interval ({a}, {b})")
            # sorted by start with strictly increasing ends = antichain
            if a <= last[0] or b <= last[1]:
                raise ValueError("intervals are not an antichain in order")
            last = (a, b)
        if self.domain_sets and len(self.domain_sets) != len(self.intervals):
            raise ValueError("domain_sets length mismatch")


@dataclass
class FilterStats:
    """Work counters for the scan; advancing one pair is the unit of work."""

    pair_advances: int = 0


def _accepting_domains(domains: Sequence[Domain], word: Sequence[str]) -> frozenset[int]:
    return frozenset(i + 1 for i, d in enumerate(domains) if accepts(d.fa, word))


class ScanAutomaton:
    """The configuration automaton of ``_scan`` over one tracker, kept with
    it as ``Tracker.scan_automaton``, so every ``filter_local`` and
    ``filter_global`` call on the tracker fills and reads one table.

    ``tables`` holds three lists: ``configs``, the configurations by id,
    the empty one first; ``ids``, each configuration's id; and ``table``,
    where entry cfg*k + sym (k the alphabet size) is filled by ``fill`` the
    first time configuration cfg meets letter sym.  An entry depends only
    on its key, so a kept table gives the covers a fresh one would.  A call
    that finds more than ``MAX_SCAN_CONFIGS`` configurations starts a
    fresh table; a call adds at most one configuration per letter, so the
    kept table holds at most the cap plus one call's letters.

    Threads may share a tracker: a call keeps the three lists it started
    with, so a reset by another call does not mix tables; a configuration
    gets its id under a lock, its row and its place in ``configs`` before
    ``ids`` publishes it; and two threads filling one entry store equal
    values.
    """

    def __init__(self, tracker: Tracker):
        self.step, self.state_domains = tracker.step, tracker.state_domains
        self.lock = Lock()
        self.reset()

    def reset(self) -> None:
        """Start a fresh table: the empty configuration, its row unfilled."""
        self.tables = ([()], {(): 0}, [None] * len(self.step))

    def start(self) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int], list]:
        """The tables for one call: the kept ones, or fresh ones past the cap."""
        if len(self.tables[0]) > MAX_SCAN_CONFIGS:
            self.reset()
        return self.tables

    def fill(self, tables, cfg: int, sym: int) -> tuple:
        """Entry cfg*k + sym of ``tables``: one step of the pair scan from
        configuration cfg on letter sym."""
        configs, ids, table = tables
        k = len(self.step)
        states = configs[cfg]
        row = self.step[sym]
        survivors: dict[int, int] = {}  # next state -> position of its oldest pair
        moved = 0
        for i, state in enumerate(states if 0 in states else states + (0,)):
            nxt = row[state]
            if nxt is not None:
                moved += 1
                if nxt not in survivors:
                    survivors[nxt] = i
        picks = tuple(survivors.values())  # increasing positions
        if not picks:
            remap = itemgetter(slice(0, 0))
        elif picks[-1] - picks[0] == len(picks) - 1:
            # consecutive positions; unlike one index, a slice returns a tuple
            remap = itemgetter(slice(picks[0], picks[-1] + 1))
        else:
            remap = itemgetter(*picks)
        nxt_states = tuple(survivors)
        target = ids.get(nxt_states)
        if target is None:
            with self.lock:
                target = ids.get(nxt_states)
                if target is None:
                    table += [None] * k
                    configs.append(nxt_states)
                    target = ids[nxt_states] = len(configs) - 1
        # a dying fresh pair (empty configuration) emits nothing
        dying = self.state_domains[states[0]] if states and row[states[0]] is None else None
        entry = table[cfg * k + sym] = (target * k, remap, dying, moved)
        return entry


def _scan(
    tracker: Tracker, syms: Sequence[int], repeats: int = 1, stats: FilterStats | None = None
) -> tuple[list[tuple[int, int]], list[frozenset[int]], slice, bool]:
    """``filter_local``'s scan over ``repeats`` copies of the symbol indices.

    The live pairs' tracker states, oldest first, form a configuration
    that depends only on the one before and the letter; only their begins
    are unbounded.  So the scan runs the tracker's ``ScanAutomaton``, kept
    across calls: entry cfg*k + sym of its table (cfg a configuration's id,
    k the alphabet size) holds the next configuration's cfg*k, the remap of
    the begins tuple, the dying bottom pair's domain set (None when the
    bottom pair survives) and the number of pairs advanced.  An entry is
    filled by one step of the pair scan the first time its (configuration,
    letter) occurs on the tracker; every letter then costs one lookup and
    one C-level remap of the begins.

    The remap takes the begins plus, last, the letter's own index j: the
    fresh pair at the tracker start, live unless a pair is already in
    state 0.  Surviving pairs are an increasing subsequence of these, the
    oldest of those landing in each state.

    After each copy, at step j, the ordered live configuration
    ``[(state, j - begin), ...]`` is compared with the one after the copy
    before (empty before the first letter); on equality the scan stops
    there.  It flushes its bottom pair at j, so the intervals and domain
    sets it returns are the cover of the scanned prefix.  It also returns
    the slice of them that the last scanned copy emitted, the flush left
    out, and whether a repeated configuration stopped the scan.
    """
    automaton = tracker.scan_automaton
    tables = automaton.start()
    configs, _ids, table = tables
    state_domains = tracker.state_domains
    k = len(tracker.step)
    base = 0  # the current configuration's id times k
    begins: tuple[int, ...] = ()
    emitted: list[tuple[int, int]] = []
    domain_sets: list[frozenset[int]] = []
    advances = 0
    j = first = 0
    previous: list[tuple[int, int]] = []
    stopped = False
    for copy in range(repeats):
        first = len(emitted)
        for j, sym in enumerate(syms, start=copy * len(syms) + 1):
            entry = table[base + sym]
            if entry is None:
                entry = automaton.fill(tables, base // k, sym)
            base, remap, dying, moved = entry
            if dying is not None:
                # non-bottom pairs die silently: their intervals are
                # contained in the bottom pair's
                emitted.append((begins[0], j - 1))
                domain_sets.append(dying)
            begins = remap(begins + (j,))
            advances += moved
        config = [(state, j - begin) for state, begin in zip(configs[base // k], begins)]
        if config == previous:
            stopped = True
            break
        previous = config
    last = slice(first, len(emitted))
    if begins:
        emitted.append((begins[0], j))
        domain_sets.append(state_domains[configs[base // k][0]])
    if stats is not None:
        stats.pair_advances += advances
    return emitted, domain_sets, last, stopped


def filter_local(
    tracker: Tracker, sigma: str, stats: FilterStats | None = None
) -> MaximalCover:
    """Maximal substrings of a finite string, boundary effects ignored.

    Implements the single left-to-right scan: at step j a fresh pair
    (start state, j) is pushed, every live pair is advanced by the input
    letter or evicted, and an eviction of the bottom pair emits its
    interval.  The surviving bottom pair is flushed at the end.  Pairs
    that land in the same tracker state are merged into the oldest, so
    ``stats.pair_advances`` counts at most ``len(sigma)`` times the
    tracker's state count.  Every domain state is final, so the domains
    accepting an emitted interval are the bottom pair's ``state_domains``.
    """
    intervals, domain_sets, _, _ = _scan(tracker, tracker.alphabet.encode(sigma), stats=stats)
    return MaximalCover(intervals, domain_sets=domain_sets)


def filter_global(
    tracker: Tracker,
    period_word: str | Sequence[str],
    stats: FilterStats | None = None,
) -> MaximalCover:
    """Maximal substrings of the two-way infinite string that repeats
    ``period_word``, a string or a sequence of alphabet tokens.

    A maximal substring longer than m*N (m the largest domain state count)
    pumps to the whole string.  The scan runs over a window of (m+1)*N
    letters and stops at the first period boundary kN whose live
    configuration, as (state, kN - begin) pairs, repeats the one at
    (k-1)N:

    - the configuration after letter j depends only on the one after j-1
      and on letter j, and the letters repeat every N, so from (k-1)N on
      every period repeats the configuration;
    - the infinite string's configuration is the same at every boundary,
      and from mN on it is the scan's, since a pair begun before letter 1
      would be longer than m*N; so unless the string is whole the scan's
      configuration at (k-1)N, repeated at every later boundary, is the
      infinite string's, and the scan stops by the window's end;
    - the infinite string's scan emits each maximal interval once, when
      its bottom pair dies, so the emissions in ((k-1)N, kN] are one
      maximal interval per orbit, and shifted to start in 1..N they are
      the representatives; maximal intervals never nest, so sorted by
      start their ends increase too;
    - in the whole-string case the pair begun at letter 1 never dies and
      grows older every period, so the scan never stops.
    """
    if not period_word:
        raise ValueError("empty period word")
    domains = tracker.domains
    n = len(period_word)
    m = max(d.fa.state_count for d in domains)
    window = period_word * (m + 1)
    syms = tracker.alphabet.encode(period_word)
    intervals, _, last, stopped = _scan(tracker, syms, repeats=m + 1, stats=stats)
    if not stopped:
        return MaximalCover(
            (),
            whole_string=True,
            period=n,
            whole_domains=_accepting_domains(domains, window),
        )
    reps = sorted((a - (a - 1) // n * n, b - (a - 1) // n * n) for (a, b) in intervals[last])
    # the dying sets the scan recorded for these emissions (``_`` above)
    # are the same domain sets; they take over from ``accepts`` once the
    # benchmark stops counting its calls
    return MaximalCover(
        intervals=tuple(reps),
        domain_sets=tuple(_accepting_domains(domains, window[a - 1 : b]) for (a, b) in reps),
        period=n,
    )


def orbit_multiplicity(cover: MaximalCover) -> tuple[list[int], list[int]]:
    """For each position 1..period (list index position-1): how many
    shifted cover intervals contain it, and the sum of the indices of the
    representatives they come from, which names the owner where the count
    is one.

    One sweep over a circular difference array.  A representative (a, b)
    starts in 1..period, so it covers 0-based position p b // period times,
    once more where p < b % period and once less where p < a - 1.  Whole
    laps add up in two running totals that enter the arrays at position 0,
    so the work is O(period + representatives).
    """
    if cover.period is None:
        raise ValueError("cover has no period")
    n = cover.period
    count_diff = [0] * (n + 1)
    owner_diff = [0] * (n + 1)
    lap_count = lap_owner = 0
    for idx, (a, b) in enumerate(cover.intervals):
        laps, end = divmod(b, n)
        lap_count += laps
        lap_owner += laps * idx
        count_diff[a - 1] += 1
        count_diff[end] -= 1
        owner_diff[a - 1] += idx
        owner_diff[end] -= idx
    count_diff[0] += lap_count
    owner_diff[0] += lap_owner
    return list(accumulate(count_diff[:n])), list(accumulate(owner_diff[:n]))


def periodic_codes(domains: Sequence[Domain], rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Wire codes of rows of symbol indices, each one period, with one
    tracker for all: the ``label_code`` of a cell's one covering maximal
    substring; a break (-1) where several overlap or none covers it."""
    tracker = build_tracker(domains)
    tokens = list(tracker.alphabet.symbols)  # a bound list __getitem__ calls faster than a tuple's
    codes = []
    for row in rows:
        cover = filter_global(tracker, list(map(tokens.__getitem__, row)))
        if cover.whole_string:
            codes.append((label_code(cover.whole_domains),) * len(row))
            continue
        labels = [label_code(doms) for doms in cover.domain_sets]
        counts, owners = orbit_multiplicity(cover)
        codes.append(tuple(labels[o] if c == 1 else -1 for c, o in zip(counts, owners)))
    return tuple(codes)
