"""Brute-force oracles shared by the test modules.

Everything here works by direct enumeration or simulation so it stays
independent of the constructions under test.  Arcs are read off per-state
tables, ``transition_table``, built once per automaton from its
transitions, and sets of states are frozensets stepped by ``set_step``,
not the package's bitmask subset construction: membership is
``reference_accepts``, the set simulation that ``automata.accepts``
replaced with a table over bitmask sets, ``reference_determinize`` is the
frozenset breadth-first subset construction that ``automata.determinize``
and ``build_tracker`` replaced with ``SubsetSteps.explore``, and
``reference_intersect`` the queue-driven product construction that
``automata.intersect`` replaced with a walk over ``SubsetSteps.targets``;
``tracker_dfa`` is the subset construction of a
tracker as a ``FiniteAutomaton``, which the package no longer builds, and
``sigma_star_prefix`` puts a hub before an automaton: the two make the
reference for ``optimizer.past_automaton``, which reads the same automaton
off the tracker's step table.  ``stack_letter_outputs`` reads the stack
filter's output per letter off ``filter_local``, which the properties
check against ``brute_maximal_cover``, with breaks where the filter
transducer puts them.  There are seven exceptions.
``reference_scan`` is the pair-stack scan with one dict of live pairs
per letter, the reference for the configuration automaton and for its
early stop, which it checks on every live pair, not only the bottom one;
``scan_trace`` records the same scan's live pairs after every letter;
and ``filter_global_full_window`` is the periodic stack cover without
its early stop: ``reference_scan`` over the whole pumping window,
reduced to orbit representatives by ``canonical_representatives``, the
dedup and containment pass that ``filter_global`` replaced by reading
the representatives off the scan's last period; ``full_window_codes``
codes a diagram row from that cover, the reference for
``periodic_codes``.
``reference_resync`` is the one-walk resync with frozenset pasts and a
rescan of every layer per forbidden pair, the reference for the one-pass
tables of ``transducer.resync``.  ``reference_evolve`` is the CA step
with one rolling neighborhood index per cell, on tuples, the reference
for ``evolve``'s byte lanes, and ``reference_random_row`` is splitmix64
one step per cell, the reference for ``random_row``'s 128-bit lanes.
``reference_bidirectional`` combines two
passes of ``walk_transitions`` position by position, walking from each
backward break to its gap's end, the reference for ``bidirectional``'s
one loop.  The
reference optimizer at the end computes the optimizer's past classes
by language algebra, one coarsest common refinement of minimized
languages per union state and pass, which the optimizer itself replaced
by block refinement over one past automaton.  ``past_classes`` turns the
optimizer's blocks into the same canonical class automata, and
``check_partition`` checks a class tuple by language algebra.  Three small
tools only the tests use close the file: ``parse_pgm`` reads a plain PGM
back into gray levels, ``canonical_key`` orders minimized automata, and
``replace_finals`` copies an automaton with other final states.
"""

from __future__ import annotations

import itertools
import logging
import weakref
from collections import deque
from random import Random
from typing import Iterable, Sequence

from apdfilter.automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
    Tracker,
    complement,
    determinize,
    disjoint_union,
    intersect,
    is_empty,
    label_code,
    minimize,
    universal,
)
from apdfilter.ca import CARule
from apdfilter.optimizer import (
    MAX_PASSES,
    OptimizeError,
    PastPartition,
    initial_partition,
    refine,
)
from apdfilter.stackfilter import FilterStats, MaximalCover, filter_local, orbit_multiplicity
from apdfilter.transducer import AMBIGUOUS, DomainBreak, DomainLabel, ResyncReport

log = logging.getLogger(__name__)

ALPHA01 = Alphabet(("0", "1"))


def all_words(alphabet: Alphabet, max_len: int, min_len: int = 0):
    """Every word over the alphabet with min_len <= length <= max_len."""
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet.symbols, repeat=n):
            yield "".join(combo)


_TABLES: dict[int, dict[int, dict[int, tuple[int, ...]]]] = {}  # live automaton's id -> its table


def transition_table(fa: FiniteAutomaton) -> dict[int, dict[int, tuple[int, ...]]]:
    """Per-state map symbol index -> sorted target states, built once per
    automaton and dropped with it (an id lookup, not a hash of its fields)."""
    table = _TABLES.get(id(fa))
    if table is None:
        raw: dict[int, dict[int, set[int]]] = {s: {} for s in range(fa.state_count)}
        for (src, sym, dst) in fa.transitions:
            raw[src].setdefault(sym, set()).add(dst)
        table = {s: {sym: tuple(sorted(dsts)) for sym, dsts in row.items()} for s, row in raw.items()}
        _TABLES[id(fa)] = table
        weakref.finalize(fa, _TABLES.pop, id(fa))
    return table


def set_step(fa: FiniteAutomaton, states, sym: int) -> frozenset[int]:
    """The states some ``sym``-arc leads to from a state in ``states``."""
    table = transition_table(fa)
    out: set[int] = set()
    for s in states:
        out.update(table[s].get(sym, ()))
    return frozenset(out)


def reference_determinize(fa: FiniteAutomaton) -> FiniteAutomaton:
    """Subset construction by a breadth-first search over frozensets,
    symbols in alphabet order, the empty set left out: the reference for
    ``automata.determinize`` (same numbering, finals and tags)."""
    if not fa.starts:
        raise ValueError("no start states")
    start = frozenset(fa.starts)
    ids: dict[frozenset[int], int] = {start: 0}
    order = [start]
    queue = deque([start])
    transitions = set()
    while queue:
        cur = queue.popleft()
        for sym in range(len(fa.alphabet)):
            nxt = set_step(fa, cur, sym)
            if not nxt:
                continue
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            transitions.add((ids[cur], sym, ids[nxt]))
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=len(order),
        starts=frozenset([0]),
        finals=frozenset(i for i, tag in enumerate(order) if tag & fa.finals),
        transitions=frozenset(transitions),
        state_tags=tuple(order),
    )


def reference_intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """Product construction by a breadth-first search over state pairs with
    a queue, arcs read off per-state tables: the reference for
    ``automata.intersect`` (same numbering, finals and tags)."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    k = len(a.alphabet)
    ta, tb = transition_table(a), transition_table(b)
    start_pairs = sorted((p, q) for p in a.starts for q in b.starts)
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    queue: deque[tuple[int, int]] = deque()
    for pair in start_pairs:
        ids[pair] = len(order)
        order.append(pair)
        queue.append(pair)
    transitions: set[tuple[int, int, int]] = set()
    while queue:
        (p, q) = queue.popleft()
        cid = ids[(p, q)]
        for sym in range(k):
            for pp in ta[p].get(sym, ()):
                for qq in tb[q].get(sym, ()):
                    pair = (pp, qq)
                    if pair not in ids:
                        ids[pair] = len(order)
                        order.append(pair)
                        queue.append(pair)
                    transitions.add((cid, sym, ids[pair]))
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals
    )
    return FiniteAutomaton(
        alphabet=a.alphabet,
        state_count=len(order),
        starts=frozenset(range(len(start_pairs))),
        finals=finals,
        transitions=frozenset(transitions),
        state_tags=tuple(order),
    )


def tracker_dfa(tracker: Tracker) -> FiniteAutomaton:
    """The tracker as a ``FiniteAutomaton`` tagged with frozensets, numbered
    as its step table is."""
    return determinize(tracker.union)


def sigma_star_prefix(fa: FiniteAutomaton) -> FiniteAutomaton:
    """Allow an arbitrary prefix: accept u + w for any u whenever fa accepts w.

    A fresh hub state self-loops on every symbol and copies the transitions
    leaving ``fa``'s start states.  Making every state a start instead would
    accept arbitrary-prefixed *paths*, which is a different language.  The
    reference for ``optimizer.past_automaton``, which reads this automaton
    of the tracker off its step table.
    """
    k = len(fa.alphabet)
    hub = fa.state_count
    transitions = set(fa.transitions)
    transitions.update((hub, sym, hub) for sym in range(k))
    table = transition_table(fa)
    for s in fa.starts:
        for sym, dsts in table[s].items():
            transitions.update((hub, sym, d) for d in dsts)
    finals = set(fa.finals)
    if fa.starts & fa.finals:
        finals.add(hub)  # empty-suffix case: every u must be accepted
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=hub + 1,
        starts=fa.starts | {hub},
        finals=frozenset(finals),
        transitions=frozenset(transitions),
    )


def language(fa: FiniteAutomaton, max_len: int) -> frozenset[str]:
    """Accepted words of length <= max_len, by a walk over the word tree:
    the state set is stepped once per tree edge, so prefixes are shared,
    and a prefix with no live state is not extended."""
    out = set()
    level = [("", frozenset(fa.starts))]
    for n in range(max_len + 1):
        out.update(w for w, states in level if states & fa.finals)
        if n == max_len:
            break
        level = [
            (w + tok, nxt)
            for w, states in level
            for sym, tok in enumerate(fa.alphabet.symbols)
            if (nxt := set_step(fa, states, sym))
        ]
    return frozenset(out)


def reference_accepts(fa: FiniteAutomaton, word: str | Sequence[str]) -> bool:
    """NFA membership by set simulation.  The empty string is accepted iff
    some start state is final."""
    cur = frozenset(fa.starts)
    for tok in word:
        sym = fa.alphabet.index(tok)
        cur = set_step(fa, cur, sym)
        if not cur:
            return False
    return bool(cur & fa.finals)


def accepted_by_any(domains, word) -> bool:
    return any(reference_accepts(d.fa, word) for d in domains)


def accepting_domains(domains, word) -> frozenset[int]:
    """1-based indices of the domains that accept ``word``."""
    return frozenset(i + 1 for i, d in enumerate(domains) if reference_accepts(d.fa, word))


def brute_maximal_cover(domains, sigma: str) -> list[tuple[int, int]]:
    """Maximal accepted substrings by direct enumeration.

    Domains are factor-closed, so an interval is maximal iff neither
    one-letter extension is accepted.
    """
    n = len(sigma)
    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if not accepted_by_any(domains, sigma[a - 1 : b]):
                continue
            if a > 1 and accepted_by_any(domains, sigma[a - 2 : b]):
                continue
            if b < n and accepted_by_any(domains, sigma[a - 1 : b + 1]):
                continue
            out.append((a, b))
    return out


def stack_letter_outputs(tracker: Tracker, word: str) -> list[int]:
    """The stack filter's output per letter, with breaks where the filter
    transducer puts them: -1 on the letter after a maximal interval ends;
    otherwise the owner's ``label_code`` where exactly one interval covers
    the letter, and -1 where none or several do."""
    cover = filter_local(tracker, word)
    spans = list(zip(cover.intervals, cover.domain_sets))
    ends = {b for (_a, b) in cover.intervals}
    out = []
    for j in range(1, len(word) + 1):
        owners = [doms for (a, b), doms in spans if a <= j <= b]
        out.append(label_code(owners[0]) if len(owners) == 1 and j - 1 not in ends else -1)
    return out


def reference_scan(
    tracker, syms: Sequence[int], repeats: int = 1, stats: FilterStats | None = None
) -> tuple[list[tuple[int, int]], list[frozenset[int]], slice, int]:
    """The pair-stack scan one letter at a time: a dict of live pairs,
    state -> oldest begin in age order, rebuilt for every letter.  The
    reference for ``stackfilter._scan``, which runs the same steps
    through its configuration automaton, and returns the same four
    things: the intervals and their domain sets, the flushed bottom pair
    last, the slice of them emitted in the last N steps, and the step the
    scan stopped at (0 where it ran every copy).

    Over ``repeats`` copies of the N symbol indices it stops at the first
    step j > N, among the steps that emit and the ends of copies, at which
    every live pair began after N, and flushes its bottom pair at j.
    """
    step, state_domains = tracker.step, tracker.state_domains
    n = len(syms)
    live: dict[int, int] = {}
    emitted: list[tuple[int, int]] = []
    domain_sets: list[frozenset[int]] = []
    advances = 0
    j = stop = 0
    for k in range(repeats):
        for j, sym in enumerate(syms, start=k * n + 1):
            row = step[sym]
            live.setdefault(0, j)  # the fresh pair at the tracker start
            survivors: dict[int, int] = {}
            bottom = True
            emits = False
            for state, begin in live.items():
                nxt = row[state]
                if nxt is None:
                    # only the bottom pair's death emits an interval
                    if bottom and begin < j:
                        emitted.append((begin, j - 1))
                        domain_sets.append(state_domains[state])
                        emits = True
                else:
                    advances += 1
                    if nxt not in survivors:
                        survivors[nxt] = begin
                bottom = False
            live = survivors
            if emits and j > n and all(begin > n for begin in live.values()):
                break
        if j > n and all(begin > n for begin in live.values()):
            stop = j
            break
    first = 0
    while first < len(emitted) and emitted[first][1] < j - n:
        first += 1
    last = slice(first, len(emitted))
    if live:
        state, begin = next(iter(live.items()))
        emitted.append((begin, j))
        domain_sets.append(state_domains[state])
    if stats is not None:
        stats.pair_advances += advances
    return emitted, domain_sets, last, stop


def scan_trace(tracker, syms: Sequence[int]) -> list[list[tuple[int, int]]]:
    """The live pairs of the pair-stack scan after each letter, one letter
    at a time, as ``(state, age)`` lists oldest first, the age of a pair
    begun at b after letter j being j - b: entry j is the list after
    letter j, entry 0 the empty one before the first."""
    live: dict[int, int] = {}
    trace: list[list[tuple[int, int]]] = [[]]
    for j, sym in enumerate(syms, start=1):
        row = tracker.step[sym]
        live.setdefault(0, j)  # the fresh pair at the tracker start
        survivors: dict[int, int] = {}
        for state, begin in live.items():
            if row[state] is not None:
                survivors.setdefault(row[state], begin)
        live = survivors
        trace.append([(state, j - begin) for state, begin in live.items()])
    return trace


def reference_local(tracker, syms: Sequence[int], stats: FilterStats | None = None):
    """``filter_local``'s cover by ``reference_scan``."""
    intervals, domain_sets, _, _ = reference_scan(tracker, syms, stats=stats)
    return MaximalCover(intervals, domain_sets=domain_sets)


def canonical_representatives(
    intervals: Sequence[tuple[int, int]], period: int
) -> list[tuple[int, int]]:
    """Shift each interval so its start lies in 1..period, deduplicate the
    orbits, and drop any representative whose orbit is contained in another.

    With every start in 1..period, the shift of (c, d) that starts at or
    before a and reaches furthest right is (c, d) itself when c <= a and
    (c - period, d - period) when c > a.  Sorting by start, longer first
    on equal starts, reduces containment to a prefix maximum of the ends
    and a suffix maximum of the ends one period down.
    """
    shifted = set()
    for (a, b) in intervals:
        q = (a - 1) // period
        shifted.add((a - q * period, b - q * period))
    reps = sorted(shifted, key=lambda iv: (iv[0], -iv[1]))
    # furthest end, shifted one period down, among the later starts
    reach_later = [0] * (len(reps) + 1)
    for i in range(len(reps) - 1, -1, -1):
        reach_later[i] = max(reach_later[i + 1], reps[i][1] - period)
    reduced = []
    reach_earlier = 0
    for i, (a, b) in enumerate(reps):
        if reach_earlier < b and reach_later[i + 1] < b:
            reduced.append((a, b))
        reach_earlier = max(reach_earlier, b)
    return reduced


def filter_global_full_window(
    tracker, word: str, stats: FilterStats | None = None
) -> MaximalCover:
    """``filter_global`` without its early stop: ``reference_scan`` over
    the whole (m+1)*N window, then the orbit representatives of all its
    intervals, each with the domains that accept its text."""
    domains = tracker.domains
    n = len(word)
    window = word * (max(d.fa.state_count for d in domains) + 1)
    syms = [tracker.alphabet.index(tok) for tok in window]
    intervals, _, _, _ = reference_scan(tracker, syms, stats=stats)
    if intervals == [(1, len(window))]:
        return MaximalCover(
            (), whole_string=True, period=n, whole_domains=accepting_domains(domains, window)
        )
    reps = canonical_representatives(intervals, n)
    return MaximalCover(
        intervals=tuple(reps),
        domain_sets=tuple(accepting_domains(domains, window[a - 1 : b]) for (a, b) in reps),
        period=n,
    )


def full_window_codes(tracker, word: str) -> tuple[int, ...]:
    """``periodic_codes``' codes of one row by ``filter_global_full_window``:
    the ``label_code`` of a cell's one covering interval, -1 where several
    or none cover it."""
    cover = filter_global_full_window(tracker, word)
    if cover.whole_string:
        return (label_code(cover.whole_domains),) * len(word)
    labels = [label_code(doms) for doms in cover.domain_sets]
    counts, owners = orbit_multiplicity(cover)
    return tuple(labels[o] if c == 1 else -1 for c, o in zip(counts, owners))


def brute_resync_candidates(
    tracker: FiniteAutomaton, state: int, symbol: str, max_len: int = 8
) -> tuple[list[frozenset[int]], int | None]:
    """Candidate resynchronization targets per imagined-past length, and the
    length at which the candidate table ends.

    Every word u with |u| <= max_len is simulated on its own, one letter at
    a time: the tracker states some path labeled u reaches, the run from
    the start, and whether u is flagged.  The empty word is flagged; a
    longer word is flagged when it is w + symbol and some path labeled w
    ends in ``state``.  Entry l of the list holds the runs of the flagged
    words of length l.  The table ends at the first length whose set of
    live word summaries is empty or equals an earlier one; the returned
    end is None when that lies beyond ``max_len``.
    """
    sym = tracker.alphabet.index(symbol)
    out: list[frozenset[int]] = []
    seen = []
    # (states some path labeled u reaches, run from the start, flag) per word u
    words = [(frozenset(range(tracker.state_count)), frozenset(tracker.starts), True)]
    for length in range(max_len + 1):
        live = frozenset(w for w in words if w[1] and (w[0] or w[2]))
        if not live or live in seen:
            return out, length
        seen.append(live)
        out.append(frozenset(t for (_reach, run, flag) in live if flag for t in run))
        words = [
            (set_step(tracker, reach, a), set_step(tracker, run, a), a == sym and state in reach)
            for reach, run, _flag in words
            for a in range(len(tracker.alphabet))
        ]
    return out, None


def reference_resync(tracker: Tracker) -> tuple[ResyncReport, ...]:
    """``transducer.resync`` with frozenset pasts, each pair's table read
    off every layer again and its end from two flagged layers per pair:
    the reference for the one-pass tables.  One report per forbidden
    (state, letter) pair of the tracker, in (state, letter) order.

    The candidates of a pair (q, a) for imagined-past length l are the
    tracker states reached from the start by the words w + a of length l
    whose imagined past w ends in q (some path labeled w leads from some
    tracker state to q); length 0 holds the start state alone.  One walk
    per filter goes over layers of (past subset, tracker state) elements,
    one per word u of that length: the tracker states some path labeled u
    reaches, and the state the tracker reaches by u from its start.  Entry
    l of a pair holds the a-successors of the elements of layer l - 1
    whose past subset holds q.  The walk stops at the first empty or
    repeated layer r.

    A pair's table ends where a walk of its own over (past subset, flag,
    tracker state) elements would, the flag marking the words w + a: at
    its first empty or repeated flagged layer.  Its flagged layer l + 1 is
    a function of shared layer l and, flags dropped, is shared layer
    l + 1, so that end is r or r + 1: entry r is kept unless the pair's
    flagged layers at r and at the index layer r repeats are equal.  That
    check costs two flagged layers per pair, not a whole walk per pair.

    The first singleton in the (specificity, past length) dictionary order
    wins; at the top specificity, the start alone at length 0 is one.
    """
    dfa, step = tracker_dfa(tracker), tracker.step
    root = (frozenset(range(dfa.state_count)), 0)
    successors: dict = {}  # element -> [(letter, successor element)]
    index: dict[frozenset, int] = {}  # layer -> its number, in walk order
    layer = frozenset([root])
    while layer and layer not in index:
        index[layer] = len(index)
        for past, t in layer - successors.keys():
            successors[past, t] = [
                (a, (set_step(dfa, past, a), row[t]))
                for a, row in enumerate(step)
                if row[t] is not None
            ]
        layer = frozenset(e for u in layer for _a, e in successors[u])
    layers = list(index)
    r, repeats = len(layers), index.get(layer)  # repeats is None after an empty layer

    def flagged(l: int, q: int, a: int) -> frozenset:
        if l == 0:
            return frozenset([(root, True)])
        return frozenset(
            (e, b == a and q in past) for past, t in layers[l - 1] for b, e in successors[past, t]
        )

    # candidate tracker states per specificity: subset-tag size
    tags = dfa.state_tags
    by_size = [
        (i, frozenset(s for s, tag in enumerate(tags) if len(tag) == i))
        for i in sorted({len(tag) for tag in tags})
    ]
    reports = []
    for q in range(dfa.state_count):
        for a, row in enumerate(step):
            if row[q] is not None:
                continue
            end = r if repeats is None or flagged(r, q, a) == flagged(repeats, q, a) else r + 1
            per_length = [frozenset([0])] + [
                frozenset(row[t] for past, t in layers[l - 1] if q in past and row[t] is not None)
                for l in range(1, end)
            ]
            examined = []
            winner = None
            for i, sized in by_size:
                for l, candidates in enumerate(per_length):
                    hit = sized & candidates
                    if hit:
                        examined.append(((i, l), hit))
                    if len(hit) == 1 and winner is None:
                        winner = (next(iter(hit)), i, l)
                if winner is not None:
                    break
            target, specificity, past_length = winner
            reports.append(
                ResyncReport(
                    state=q,
                    symbol=dfa.alphabet.symbols[a],
                    target=target,
                    specificity=specificity,
                    past_length=past_length,
                    candidates=tuple(examined),
                )
            )
    return tuple(reports)


def resync_walk_size(tracker: Tracker) -> int:
    """Elements over all layers of ``resync``'s walk, the count its
    ``MAX_RESYNC_WALK`` budget bounds: layers of (past subset, tracker
    state) elements, one per word of each length from the empty word (every
    tracker state, the start), up to the first empty or repeated layer."""
    layer = frozenset([(frozenset(range(len(tracker.masks))), 0)])
    seen, total = set(), 0
    while layer and layer not in seen:
        seen.add(layer)
        total += len(layer)
        layer = frozenset(
            (frozenset(row[q] for q in past if row[q] is not None), row[t])
            for past, t in layer
            for row in tracker.step
            if row[t] is not None
        )
    return total


def reference_evolve(rule: CARule, initial: Sequence[int], steps: int) -> list[tuple[int, ...]]:
    """The rows of ``evolve``, one Python step per cell: a neighborhood
    index rolled along the wrapped row (drop the leftmost cell, append the
    next), looked up in the rule table."""
    row = tuple(initial)
    n = len(row)
    k, r, table = rule.k, rule.r, rule.table
    size = len(table)
    laps = -(-r // n)  # copies of the row that each side of the wrap-around needs
    rows = [row]
    for _ in range(steps):
        ext = (rows[-1] * (2 * laps + 1))[laps * n - r : (laps + 1) * n + r]  # cells -r..n+r-1
        idx = 0
        for v in ext[: 2 * r]:
            idx = idx * k + v
        rows.append(tuple([table[idx := idx * k % size + v] for v in ext[2 * r :]]))
    return rows


def reference_random_row(k: int, width: int, seed: int) -> bytes:
    """The row of ``random_row``, one Python splitmix64 step per cell: the
    state steps by the golden gamma, each cell is the mixed state modulo k."""
    mask = (1 << 64) - 1
    row = bytearray(width)
    state = seed & mask
    for i in range(width):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        row[i] = (z ^ (z >> 31)) % k
    return bytes(row)


def number_from_table(k: int, r: int, table: Sequence[int]) -> int:
    """The rule number of a lookup table: the inverse of ``rule_from_number``."""
    number = 0
    for v in reversed(table):
        number = number * k + v
    return number


def orbit_multiplicity_at(cover, position: int) -> tuple[int, list[int]]:
    """How many shifted cover intervals contain a 1-based position of the
    period, and which representatives (by index) they come from, by one
    scan over the representatives for this position alone."""
    n = cover.period
    count = 0
    owners = []
    for idx, (a, b) in enumerate(cover.intervals):
        lo = -(-(position - b) // n)  # ceil((position-b)/n)
        hi = (position - a) // n
        if hi >= lo:
            count += hi - lo + 1
            owners.append(idx)
    return count, owners


def step_det(fa: FiniteAutomaton, state: int, sym: int) -> int | None:
    """Unique successor in a semi-deterministic automaton, or None."""
    dsts = transition_table(fa)[state].get(sym)
    if dsts is None:
        return None
    if len(dsts) != 1:
        raise ValueError(f"state {state} is not semi-deterministic on symbol {sym}")
    return dsts[0]


def forbidden_pairs(fa: FiniteAutomaton) -> list[tuple[int, int]]:
    """All (state, symbol index) pairs with no outgoing transition."""
    k = len(fa.alphabet)
    return [
        (s, sym)
        for s in range(fa.state_count)
        for sym in range(k)
        if sym not in transition_table(fa)[s]
    ]


def random_nfa(rng: Random, alphabet: Alphabet = ALPHA01, max_states: int = 5) -> FiniteAutomaton:
    n = rng.randint(1, max_states)
    k = len(alphabet)
    transitions = set()
    for s in range(n):
        for sym in range(k):
            for d in range(n):
                if rng.random() < 0.35:
                    transitions.add((s, sym, d))
    starts = frozenset(s for s in range(n) if rng.random() < 0.5) or frozenset([rng.randrange(n)])
    finals = frozenset(s for s in range(n) if rng.random() < 0.5)
    return FiniteAutomaton(
        alphabet=alphabet,
        state_count=n,
        starts=starts,
        finals=finals,
        transitions=frozenset(transitions),
    )


def random_domain(rng: Random, alphabet: Alphabet = ALPHA01, max_states: int = 4) -> Domain:
    """Random semi-deterministic domain, not necessarily strongly connected."""
    n = rng.randint(1, max_states)
    transitions = frozenset(
        (s, sym, rng.randrange(n))
        for s in range(n)
        for sym in range(len(alphabet))
        if rng.random() < 0.6
    )
    return Domain(FiniteAutomaton(alphabet, n, range(n), range(n), transitions))


def zero_cycle_domain(rng: Random, n: int) -> Domain:
    """A partial 0-cycle over 0/1: states 0..n-1 on a cycle of 0-arcs, and
    from about half of them a 1-arc to a random state.  Its tracker and its
    resync walk can grow fast with n."""
    transitions = {(s, 0, (s + 1) % n) for s in range(n)}
    transitions |= {(s, 1, rng.randrange(n)) for s in range(n) if rng.random() < 0.5}
    return Domain(FiniteAutomaton(ALPHA01, n, range(n), range(n), frozenset(transitions)))


def filter_arcs(t) -> dict[tuple[int, int], tuple[int, int]]:
    """(state, symbol index) -> (wire code, target state) of every arc of
    a filter's table."""
    k = len(t.alphabet)
    return {divmod(i, k): (c, d // k) for i, (d, c) in enumerate(zip(t.next, t.code))}


def walk_arc_table(t, symbols: Sequence[int], table: Sequence, circular: bool = False) -> list:
    """Each letter's entry of a per-arc ``table`` on a walk over symbol
    indices, one arc of ``t.next`` at a time.  Circular mode walks twice
    from the start and keeps the second lap.
    """
    k = len(t.alphabet)
    state = t.start
    entries = []
    for _lap in range(2 if circular else 1):
        entries = []
        for a in symbols:
            i = state * k + a
            entries.append(table[i])
            state = t.next[i] // k
    return entries


def walk_transitions(t, tokens, circular: bool = False):
    """Outputs of a filter over ``tokens`` by a direct walk over its arcs."""
    symbols = [t.alphabet.index(tok) for tok in tokens]
    return walk_arc_table(t, symbols, [t.symbols[c] for c in t.code], circular)


def reference_bidirectional(filters, sigma: str, mode: str = "linear") -> list:
    """Two-pass combination from its definition.  A position holds the
    forward pass's break, else the backward pass's break, else a gap break,
    else the label both passes share, else ambiguity.  A gap runs from a
    backward break to the first forward break at or after it (modulo n in
    circular mode); a backward break with no such forward break opens none.
    """
    forward_t, backward_t = filters
    circular = mode == "circular"
    forward = walk_transitions(forward_t, sigma, circular)
    backward = walk_transitions(backward_t, sigma[::-1], circular)[::-1]
    n = len(sigma)
    in_gap = [False] * n
    for b in range(n):
        if isinstance(backward[b], DomainBreak):
            for p in range(b, b + n if circular else n):
                if isinstance(forward[p % n], DomainBreak):
                    for q in range(b, p):
                        in_gap[q % n] = True
                    break
    out = []
    for fwd, bwd, gap in zip(forward, backward, in_gap):
        if isinstance(fwd, DomainBreak):
            out.append(fwd)
        elif isinstance(bwd, DomainBreak):
            out.append(bwd)
        elif gap:
            out.append(DomainBreak())
        elif isinstance(fwd, DomainLabel) and fwd == bwd:
            out.append(fwd)
        else:
            out.append(AMBIGUOUS)
    return out


def d18_domain() -> Domain:
    """Two-state domain of the rule-18 pattern: pairs of 0-then-anything."""
    fa = FiniteAutomaton(
        alphabet=ALPHA01,
        state_count=2,
        starts=frozenset([0, 1]),
        finals=frozenset([0, 1]),
        # state 0 = pair boundary (must read 0), state 1 = mid pair
        transitions=frozenset([(0, 0, 1), (1, 0, 0), (1, 1, 0)]),
    )
    return Domain(fa)


# Reference optimizer (language algebra).  Each class is a canonical
# minimal DFA; a refinement piece {w in E : w + a in E'} is E intersected
# with the letter preimage of E'.

# class map: for each state of the domain union, an ordered tuple of
# canonical automata whose languages partition all strings
ClassMap = dict[int, tuple[FiniteAutomaton, ...]]


def past_classes(part: PastPartition) -> ClassMap:
    """The optimizer's blocks as class automata per union state, in
    canonical order, for comparison with the reference."""
    classes: ClassMap = {}
    for s, row in enumerate(part.blocks):
        members: dict[int, list[int]] = {}
        for p, b in enumerate(row):
            members.setdefault(b, []).append(p)
        classes[s] = tuple(
            sorted(
                (minimize(replace_finals(part.past, ps)) for ps in members.values()),
                key=canonical_key,
            )
        )
    return classes


def check_partition(classes: Sequence[FiniteAutomaton]) -> bool:
    """True iff the class languages are pairwise disjoint and exhaustive."""
    if not classes:
        return False
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            if not is_empty(intersect(a, b)):
                return False
    return is_empty(complement(disjoint_union(list(classes))))


def unconcat_last(fa: FiniteAutomaton, token: str) -> FiniteAutomaton:
    """Strip a trailing ``token``: accept w iff ``fa`` accepts w + token.

    Same states and transitions; the new finals are the states with a
    ``token`` transition into an old final state.
    """
    sym = fa.alphabet.index(token)
    finals = frozenset(s for (s, y, d) in fa.transitions if y == sym and d in fa.finals)
    return replace_finals(fa, finals)


def resync_pasts(
    union: FiniteAutomaton,
    tracker: FiniteAutomaton,
    state: int,
    symbol: str,
    target: int,
) -> FiniteAutomaton:
    """Pasts of a domain-union state that a forbidden letter sends to one
    tracker state.

    The returned automaton accepts w exactly when some path labeled w ends
    in ``state`` and reading w plus the forbidden letter from scratch lands
    the tracker in ``target``: the tracker itself with the states whose
    tag holds ``state`` and whose letter successor is ``target`` as finals.
    """
    if union.starts != frozenset(range(union.state_count)):
        raise ValueError("every union state must be a start")
    sym = union.alphabet.index(symbol)
    if sym in transition_table(union)[state]:
        raise ValueError(f"({state}, {symbol!r}) is not forbidden in the union")
    if not 0 <= target < tracker.state_count:
        raise ValueError(f"bad tracker state {target}")
    return replace_finals(
        tracker,
        [
            q
            for q, tag in enumerate(tracker.state_tags)
            if state in tag and step_det(tracker, q, sym) == target
        ],
    )


def disjoin(machines: Sequence[FiniteAutomaton]) -> list[FiniteAutomaton]:
    """Coarsest partition of the union of the given languages that is
    compatible with every input (each input is a union of output classes).

    The subset construction over the minimized (complete) inputs is their
    product; a class is the set of product states whose tags meet the
    finals of the same non-empty set of inputs.
    """
    if not machines:
        return []
    union = disjoint_union([minimize(fa) for fa in machines])
    product = determinize(union)
    groups: dict[frozenset[int], list[int]] = {}
    for q, tag in enumerate(product.state_tags):
        inputs = frozenset(union.state_tags[u][0] for u in tag & union.finals)
        if inputs:
            groups.setdefault(inputs, []).append(q)
    return sorted(
        (minimize(replace_finals(product, group)) for group in groups.values()),
        key=canonical_key,
    )


def initial_classes(domains: Sequence[Domain]) -> ClassMap:
    """Starting partition per union state: the pasts split by which tracker
    state each forbidden continuation resynchronizes to, prefixed by
    arbitrary strings, plus a complement class (with a warning) where
    those do not cover every string."""
    union = disjoint_union([d.fa for d in domains])
    tracker = determinize(union)
    alphabet = union.alphabet
    everything = minimize(universal(alphabet))
    out: ClassMap = {}
    for s in range(union.state_count):
        forbidden = [
            sym for sym in range(len(alphabet)) if sym not in transition_table(union)[s]
        ]
        if not forbidden:
            out[s] = (everything,)
            continue
        pieces = []
        holders = [q for q, tag in enumerate(tracker.state_tags) if s in tag]
        for sym in forbidden:
            token = alphabet.symbols[sym]
            targets = {step_det(tracker, q, sym) for q in holders} - {None}
            for target in sorted(targets):
                pasts = resync_pasts(union, tracker, s, token, target)
                pieces.append(sigma_star_prefix(pasts))
        classes = disjoin(pieces)
        covered = disjoint_union(classes) if classes else None
        leftovers = complement(covered) if covered is not None else universal(alphabet)
        if not is_empty(leftovers):
            log.warning(
                "state %d: past classes do not cover all strings; adding complement",
                s,
            )
            classes = sorted(classes + [minimize(leftovers)], key=canonical_key)
        out[s] = tuple(classes)
    return out


def refine_classes(
    fa: FiniteAutomaton, classes: ClassMap
) -> tuple[ClassMap, dict[int, bool]]:
    """One refinement pass: for each transition s --a--> s' and each class
    pair (E at s, E' at s'), the part of E whose a-extension lands in E'
    is a piece; the new partition at s is the coarsest common refinement
    of all pieces.  States without outgoing transitions keep theirs."""
    new: ClassMap = {}
    changed: dict[int, bool] = {}
    for s in range(fa.state_count):
        pieces: list[FiniteAutomaton] = []
        for sym, dsts in sorted(transition_table(fa)[s].items()):
            token = fa.alphabet.symbols[sym]
            for dst in dsts:
                for nxt in classes[dst]:
                    preimage = unconcat_last(nxt, token)
                    pieces.extend(intersect(cls, preimage) for cls in classes[s])
        if not pieces:
            new[s] = classes[s]
            changed[s] = False
            continue
        new[s] = tuple(disjoin(pieces))
        changed[s] = set(new[s]) != set(classes[s])  # classes are canonical forms
    return new, changed


def class_fixpoint(
    fa: FiniteAutomaton, classes: ClassMap, max_passes: int = 64
) -> tuple[ClassMap, int]:
    """Refine until nothing changes; the pass count includes the last,
    unchanged pass."""
    for passes in range(1, max_passes + 1):
        classes, changed = refine_classes(fa, classes)
        if not any(changed.values()):
            return classes, passes
    raise OptimizeError(f"class refinement did not stabilize within {max_passes} passes")


def oracle_stages(domains: Sequence[Domain]) -> list[ClassMap]:
    """Class map of every reference stage, from the initial classes to the
    fixpoint; there is one stage more than refinement passes."""
    union = disjoint_union([d.fa for d in domains])
    stages = [initial_classes(domains)]
    for _pass in range(MAX_PASSES):
        refined, changed = refine_classes(union, stages[-1])
        stages.append(refined)
        if not any(changed.values()):
            return stages
    raise OptimizeError("reference refinement did not stabilize")


def refinement_stages(domains: Sequence[Domain]) -> list[ClassMap]:
    """The same stages of the optimizer's block refinement."""
    part = initial_partition(domains)
    stages = [past_classes(part)]
    for _pass in range(MAX_PASSES):
        refined = refine(part)
        stages.append(past_classes(refined))
        if refined.blocks == part.blocks:
            return stages
        part = refined
    raise OptimizeError("block refinement did not stabilize")


def parse_pgm(data: bytes) -> list[list[int]]:
    """The gray levels of a plain (P2) PGM, row by row; comments are skipped."""
    tokens = []
    for line in data.decode("ascii").splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a plain PGM")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = [int(v) for v in tokens[4:]]
    if len(values) != width * height:
        raise ValueError("pixel count mismatch")
    if any(v > maxval for v in values):
        raise ValueError("pixel exceeds maxval")
    return [values[r * width : (r + 1) * width] for r in range(height)]


def canonical_key(fa: FiniteAutomaton):
    """Deterministic sort key for minimized automata."""
    return (fa.state_count, sorted(fa.finals), sorted(fa.transitions))


def replace_finals(fa: FiniteAutomaton, finals: Iterable[int]) -> FiniteAutomaton:
    """``fa`` with ``finals`` as its final states."""
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=fa.state_count,
        starts=fa.starts,
        finals=frozenset(finals),
        transitions=fa.transitions,
        state_tags=fa.state_tags,
    )
