"""Domain state splitting for unambiguous resynchronization.

Each domain state is split by a finite partition of its possible pasts:
two past strings land in different classes when, extended by a forbidden
letter, they would resynchronize to different tracker states.  Every such
class is a set of states of one complete DFA, the past automaton P: the
state P reaches on a word x holds the tracker state of every suffix of
x, with the hub standing for the empty suffix (the tracker start).
``past_automaton`` reads P's nondeterministic form, the tracker behind a
hub that may start it after any prefix, off the tracker's step table and
determinizes it once.  A past w of union state s that a forbidden letter
a sends to tracker state t is a suffix whose tracker state q has s in its
subset tag and steps to t on a, so the starting partition at s groups
P's states by their set of such (a, t) pieces.

The partitions are then refined until they are compatible with the
domain's own transitions: each pass is one Moore refinement step over P,
splitting the states at s by their block there and the blocks of their
letter successors at every successor state of s.  Finally each domain is
rebuilt over (state, class) pairs.  The rebuilt domains recognize the same
languages but let the filter pick a unique resynchronization state where
the originals could not.

Class ``j`` of a union state is its block ``j`` of P-states, and blocks
are numbered by first occurrence.  P is numbered breadth-first, so the
classes are ordered by the shortlex-least past word in each, and class 0
holds the empty past.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .automata import Domain, FiniteAutomaton, Tracker, build_tracker, determinize

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
    sorted.  ``blocks[s][p]`` is the block of P-state ``p`` at union state
    ``s``, numbered by first occurrence, so two stages hold the same
    partition exactly when their blocks compare equal.
    """

    moves: tuple[tuple[tuple[int, int], ...], ...]
    past: FiniteAutomaton
    blocks: tuple[tuple[int, ...], ...]


def _number(signatures: Iterable) -> tuple[int, ...]:
    ids: dict = {}
    return tuple(ids.setdefault(sig, len(ids)) for sig in signatures)


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
    Otherwise P's states are grouped by their (forbidden letter, tracker
    target) pieces; the states with no piece form the complement class,
    which is added with a warning.
    """
    tracker = build_tracker(domains)
    union, step = tracker.union, tracker.step
    past = past_automaton(tracker)
    moves: list[list[tuple[int, int]]] = [[] for _ in range(union.state_count)]
    for (src, sym, dst) in sorted(union.transitions):
        moves[src].append((sym, dst))
    blocks = []
    for s, out in enumerate(moves):
        allowed = {sym for sym, _dst in out}
        forbidden = [sym for sym in range(len(step)) if sym not in allowed]
        pieces = [
            frozenset((sym, t) for sym in forbidden if (t := step[sym][q]) is not None)
            if mask >> s & 1
            else frozenset()
            for q, mask in enumerate(tracker.masks)
        ]
        pieces.append(pieces[0])  # the hub is the tracker start
        signatures = [frozenset().union(*(pieces[q] for q in tag)) for tag in past.state_tags]
        if forbidden and frozenset() in signatures:
            log.warning(
                "state %d: past classes do not cover all strings; adding complement",
                s,
            )
        blocks.append(_number(signatures))
    return PastPartition(tuple(map(tuple, moves)), past, tuple(blocks))


def refine(part: PastPartition) -> PastPartition:
    """One refinement pass over every union state.

    The P-states at s are split by their block at s and, for every
    transition s --a--> s', the block of their a-successor at s'.  States
    without outgoing transitions are unconstrained and keep their
    partition.
    """
    table = part.past.transition_table
    blocks = []
    for row, moves in zip(part.blocks, part.moves):
        if not moves:
            blocks.append(row)
            continue
        blocks.append(
            _number(
                (b, tuple(part.blocks[dst][table[p][sym][0]] for sym, dst in moves))
                for p, b in enumerate(row)
            )
        )
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


def _first_states(row: Sequence[int]) -> list[int]:
    """The first P-state of every block, indexed by block number."""
    firsts: list[int] = []
    for p, b in enumerate(row):
        if b == len(firsts):
            firsts.append(p)
    return firsts


def optimize(domains: Sequence[Domain]) -> list[SplitDomain]:
    """Split every domain by its refined past classes.

    Each split state is an (original state, class) pair; transitions
    follow the original transition while the class coordinate moves to the
    block of the letter successor in P of the class's first P-state (the
    fixpoint makes it the same for every P-state of the class).  All split
    states are start and final, so the language is unchanged.
    """
    part, _passes = class_fixpoint(initial_partition(domains))
    table = part.past.transition_table
    firsts = [_first_states(row) for row in part.blocks]
    out = []
    off = 0
    for d in domains:
        members: list[tuple[int, int]] = [
            (s, j) for s in range(d.fa.state_count) for j in range(len(firsts[off + s]))
        ]
        ids = {pair: n for n, pair in enumerate(members)}
        transitions = set()
        for (s, sym, s2) in d.fa.transitions:
            row = part.blocks[off + s2]
            for j, p in enumerate(firsts[off + s]):
                transitions.add((ids[(s, j)], sym, ids[(s2, row[table[p][sym][0]])]))
        fa = FiniteAutomaton(
            alphabet=d.alphabet,
            state_count=len(members),
            starts=frozenset(range(len(members))),
            finals=frozenset(range(len(members))),
            transitions=frozenset(transitions),
            state_tags=tuple(members),
        )
        out.append(SplitDomain(domain=Domain(fa), original=d, members=tuple(members)))
        off += d.fa.state_count
    return out
