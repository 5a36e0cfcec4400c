"""Domain state splitting for unambiguous resynchronization.

Each domain state is split by a finite partition of its possible pasts:
two past strings land in different classes when, extended by a forbidden
letter, they would resynchronize to different tracker states.  Every such
class is a set of states of one complete DFA, the past automaton P: the
state P reaches on a word x holds the tracker state of every suffix of
x, with the hub standing for the empty suffix (the tracker start).
``past_automaton`` reads P's nondeterministic form, the tracker behind a
hub that may start it after any prefix, off the tracker's step table and
determinizes it once; everything after that reads integer tables.  A
past of union state s that a forbidden letter a sends to tracker state t
is a suffix whose tracker state q has s in its subset mask and steps to t
on a.  So the starting partition at s groups P's states by their
signature there: one bitmask of such targets t per forbidden letter.

The partitions are then refined until they are compatible with the
domain's own transitions: each pass is one Moore refinement step over
P's per-letter successor lists, splitting the states at s by their block
there and the blocks of their letter successors at every successor state
of s.  Finally each domain is rebuilt over (state, class) pairs.  The
rebuilt domains recognize the same languages but let the filter pick a
unique resynchronization state where the originals could not.

Class ``j`` of a union state is its block ``j`` of P-states, and blocks
are numbered by first occurrence (``automata.first_occurrence``).  P is
numbered breadth-first, so the classes are ordered by the shortlex-least
past word in each, and class 0 holds the empty past.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_
from typing import Sequence

from .automata import (
    Domain,
    FiniteAutomaton,
    Tracker,
    build_tracker,
    determinize,
    first_occurrence,
)

log = logging.getLogger(__name__)

MAX_PASSES = 64  # refinement passes before class_fixpoint gives up


class OptimizeError(RuntimeError):
    pass


@dataclass(frozen=True)
class SplitDomain:
    """A domain rebuilt over (original state, past class) pairs.

    ``members`` names each split state.  Split domains keep their
    non-recurrent states, so they need not be strongly connected.
    """

    domain: Domain
    original: Domain
    members: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PastPartition:
    """Past classes of every union state as blocks of the past automaton.

    ``moves[s]`` holds union state ``s``'s (letter, target) transitions,
    sorted, and ``succ[a][p]`` is P-state ``p``'s successor on letter
    ``a`` (P is complete).  ``blocks[s][p]`` is the block of P-state ``p``
    at union state ``s``, numbered by first occurrence, so two stages hold
    the same partition exactly when their blocks compare equal.
    """

    moves: tuple[tuple[tuple[int, int], ...], ...]
    past: FiniteAutomaton
    succ: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]


def past_automaton(tracker: Tracker) -> FiniteAutomaton:
    """P, the subset construction of the tracker behind a hub.

    The hub m (m tracker states) loops on every letter and also steps as
    the tracker start does; both it and state 0 start, and every state is
    final.  P is numbered breadth-first and tagged with its sets of these
    m + 1 states.
    """
    step = tracker.step
    m = len(tracker.masks)
    arcs = [(q, a, t) for a, row in enumerate(step) for q, t in enumerate(row) if t is not None]
    arcs += [(m, a, m) for a in range(len(step))]
    arcs += [(m, a, row[0]) for a, row in enumerate(step) if row[0] is not None]
    return determinize(FiniteAutomaton(tracker.alphabet, m + 1, (0, m), range(m + 1), arcs))


def initial_partition(domains: Sequence[Domain]) -> PastPartition:
    """Starting partition per union state.

    States with no forbidden letter keep the single all-strings class.
    Otherwise P's states are grouped by their signature at union state s:
    per forbidden letter, the bitmask of the tracker states that letter
    steps to from the P-state's tracker states holding s.  The states
    whose signature is all zeros form the complement class, which is
    added with a warning.
    """
    tracker = build_tracker(domains)
    union, step, masks = tracker.union, tracker.step, tracker.masks
    past = past_automaton(tracker)
    succ = [[0] * past.state_count for _ in step]
    for (p, sym, p2) in past.transitions:
        succ[sym][p] = p2
    moves: list[list[tuple[int, int]]] = [[] for _ in range(union.state_count)]
    for (src, sym, dst) in sorted(union.transitions):
        moves[src].append((sym, dst))
    targets = [[0 if t is None else 1 << t for t in row] for row in step]
    m = len(masks)
    # P's tags over tracker states, the hub read as the tracker start
    tags = [frozenset(0 if q == m else q for q in tag) for tag in past.state_tags]
    blocks = []
    for s, out in enumerate(moves):
        allowed = {sym for sym, _dst in out}
        forbidden = [row for sym, row in enumerate(targets) if sym not in allowed]
        held = frozenset(q for q, mask in enumerate(masks) if mask >> s & 1)
        helds = [tag & held for tag in tags]  # a P-state's signature depends only on these
        signature = {
            h: tuple(reduce(or_, map(row.__getitem__, h), 0) for row in forbidden)
            for h in set(helds)
        }
        if forbidden and (0,) * len(forbidden) in signature.values():
            log.warning("state %d: past classes do not cover all strings; adding complement", s)
        blocks.append(first_occurrence(map(signature.__getitem__, helds)))
    return PastPartition(tuple(map(tuple, moves)), past, tuple(map(tuple, succ)), tuple(blocks))


def refine(part: PastPartition) -> PastPartition:
    """One refinement pass over every union state.

    The P-states at s are split by their block at s and, for every
    transition s --a--> s', the block of their a-successor at s'.  States
    without outgoing transitions are unconstrained and keep their
    partition.
    """
    blocks = []
    for row, moves in zip(part.blocks, part.moves):
        if not moves:
            blocks.append(row)
            continue
        # per move s --a--> s', the block at s' of every P-state's a-successor
        nexts = (map(part.blocks[dst].__getitem__, part.succ[sym]) for sym, dst in moves)
        blocks.append(first_occurrence(zip(row, *nexts)))
    return replace(part, blocks=tuple(blocks))


def class_fixpoint(part: PastPartition) -> tuple[PastPartition, int]:
    """Refine until a pass splits nothing.  Exceeding ``MAX_PASSES`` is an
    error rather than a silent truncation."""
    for passes in range(1, MAX_PASSES + 1):
        refined = refine(part)
        if refined.blocks == part.blocks:
            return refined, passes
        part = refined
    raise OptimizeError(f"class refinement did not stabilize within {MAX_PASSES} passes")


def optimize(domains: Sequence[Domain]) -> list[SplitDomain]:
    """Split every domain by its refined past classes.

    Each split state is an (original state, class) pair; transitions
    follow the original transition while the class coordinate moves to the
    block of the letter successor in P of the class's first P-state (the
    fixpoint makes it the same for every P-state of the class).  All split
    states are start and final, so the language is unchanged.
    """
    part, _passes = class_fixpoint(initial_partition(domains))
    out = []
    off = 0
    for d in domains:
        n = d.fa.state_count
        # the first P-state of every block at each state, by block number
        rows = part.blocks[off : off + n]
        firsts = [[row.index(j) for j in range(max(row) + 1)] for row in rows]
        members = [(s, j) for s, ps in enumerate(firsts) for j in range(len(ps))]
        ids = {pair: i for i, pair in enumerate(members)}
        transitions = [
            (ids[(s, j)], sym, ids[(dst - off, part.blocks[dst][part.succ[sym][p]])])
            for s, ps in enumerate(firsts)
            for sym, dst in part.moves[off + s]
            for j, p in enumerate(ps)
        ]
        every = range(len(members))
        fa = FiniteAutomaton(d.alphabet, len(members), every, every, transitions, members)
        out.append(SplitDomain(domain=Domain(fa), original=d, members=tuple(members)))
        off += n
    return out
