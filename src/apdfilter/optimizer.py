"""Domain state splitting for unambiguous resynchronization.

Each domain state is split by a finite partition of its possible pasts:
two past strings land in different classes when, extended by a forbidden
letter, they would resynchronize to different tracker states.  Every such
class is a set of states of one complete DFA, the past automaton
P = determinize(sigma_star_prefix(tracker)): the state P reaches on a
word x holds the tracker state of every suffix of x, with the hub
standing for the empty suffix (the tracker start).  A past w of union
state s that a forbidden letter a sends to tracker state t is a suffix
whose tracker state q has s in its subset tag and steps to t on a, so the
starting partition at s groups P's states by their set of such (a, t)
pieces.

The partitions are then refined until they are compatible with the
domain's own transitions: each pass is one Moore refinement step over P,
splitting the states at s by their block there and the blocks of their
letter successors at every successor state of s.  Finally each domain is
rebuilt over (state, class) pairs.  The rebuilt domains recognize the same
languages but let the filter pick a unique resynchronization state where
the originals could not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .automata import (
    Domain,
    FiniteAutomaton,
    build_tracker,
    canonical_key,
    complement,
    determinize,
    disjoint_union,
    intersect,
    is_empty,
    minimize,
    replace_finals,
    sigma_star_prefix,
)

log = logging.getLogger(__name__)

DEFAULT_MAX_PASSES = 64

# class map: for each state of the domain union, an ordered tuple of
# canonical automata whose languages partition all strings
ClassMap = dict[int, tuple[FiniteAutomaton, ...]]


class OptimizeError(RuntimeError):
    pass


@dataclass(frozen=True)
class SplitDomain:
    """A domain rebuilt over (original state, past class) pairs.

    ``members`` names each split state; ``classes`` maps each original
    local state to its ordered class automata.  Split domains keep their
    non-recurrent states, so they need not be strongly connected.
    """

    domain: Domain
    original: Domain
    members: tuple[tuple[int, int], ...]
    classes: dict[int, tuple[FiniteAutomaton, ...]]


@dataclass(frozen=True)
class PastPartition:
    """Past classes of every union state as blocks of the past automaton.

    ``blocks[s][p]`` is the block of P-state ``p`` at union state ``s``,
    numbered by first occurrence, so two stages hold the same partition
    exactly when their blocks compare equal.
    """

    union: FiniteAutomaton
    past: FiniteAutomaton
    blocks: tuple[tuple[int, ...], ...]


def _number(signatures: Iterable) -> tuple[int, ...]:
    ids: dict = {}
    return tuple(ids.setdefault(sig, len(ids)) for sig in signatures)


def initial_partition(domains: Sequence[Domain]) -> PastPartition:
    """Starting partition per union state.

    States with no forbidden letter keep the single all-strings class.
    Otherwise P's states are grouped by their (forbidden letter, tracker
    target) pieces; the states with no piece form the complement class,
    which is added with a warning.
    """
    tracker = build_tracker(domains)
    union, step = tracker.union, tracker.step
    past = determinize(sigma_star_prefix(tracker.dfa))
    k = len(union.alphabet)
    blocks = []
    for s in range(union.state_count):
        forbidden = [sym for sym in range(k) if sym not in union.transition_table[s]]
        pieces = [
            frozenset((sym, t) for sym in forbidden if (t := step[sym][q]) is not None)
            if s in tag
            else frozenset()
            for q, tag in enumerate(tracker.dfa.state_tags)
        ]
        pieces.append(pieces[0])  # the hub is the tracker start
        signatures = [frozenset().union(*(pieces[q] for q in tag)) for tag in past.state_tags]
        if forbidden and frozenset() in signatures:
            log.warning(
                "state %d: past classes do not cover all strings; adding complement",
                s,
            )
        blocks.append(_number(signatures))
    return PastPartition(union, past, tuple(blocks))


def refine(part: PastPartition) -> PastPartition:
    """One refinement pass over every union state.

    The P-states at s are split by their block at s and, for every
    transition s --a--> s', the block of their a-successor at s'.  States
    without outgoing transitions are unconstrained and keep their
    partition.
    """
    table = part.past.transition_table
    blocks = []
    for s, row in enumerate(part.blocks):
        moves = sorted(
            (sym, dst) for sym, dsts in part.union.transition_table[s].items() for dst in dsts
        )
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


def class_fixpoint(
    part: PastPartition, max_passes: int = DEFAULT_MAX_PASSES
) -> tuple[PastPartition, int]:
    """Refine until a pass splits nothing.  Exceeding the pass cap is an
    error rather than a silent truncation."""
    for passes in range(1, max_passes + 1):
        refined = refine(part)
        if refined.blocks == part.blocks:
            return refined, passes
        part = refined
    raise OptimizeError(f"class refinement did not stabilize within {max_passes} passes")


def past_classes(part: PastPartition) -> tuple[ClassMap, list[list[int]]]:
    """Class automata per union state in canonical order, and the ordinal
    of every P-state's class at each union state."""
    classes: ClassMap = {}
    ordinals = []
    for s, row in enumerate(part.blocks):
        members: dict[int, list[int]] = {}
        for p, b in enumerate(row):
            members.setdefault(b, []).append(p)
        fas = {b: minimize(replace_finals(part.past, ps)) for b, ps in members.items()}
        order = sorted(fas, key=lambda b: canonical_key(fas[b]))
        rank = {b: j for j, b in enumerate(order)}
        classes[s] = tuple(fas[b] for b in order)
        ordinals.append([rank[b] for b in row])
    return classes, ordinals


def optimize(
    domains: Sequence[Domain], max_passes: int = DEFAULT_MAX_PASSES
) -> list[SplitDomain]:
    """Split every domain by its refined past classes.

    Each split state is an (original state, class) pair; transitions
    follow the original transition while the class coordinate moves to the
    class of the letter successor in P of any P-state of the source class
    (the fixpoint makes it unique).  All split states are start and final,
    so the language is unchanged.
    """
    part, _passes = class_fixpoint(initial_partition(domains), max_passes)
    classes, ordinals = past_classes(part)
    table = part.past.transition_table
    out = []
    off = 0
    for d in domains:
        members: list[tuple[int, int]] = [
            (s, j)
            for s in range(d.fa.state_count)
            for j in range(len(classes[off + s]))
        ]
        ids = {pair: n for n, pair in enumerate(members)}
        transitions = set()
        for (s, sym, s2) in d.fa.transitions:
            row = ordinals[off + s]
            for j in range(len(classes[off + s])):
                target = ordinals[off + s2][table[row.index(j)][sym][0]]
                transitions.add((ids[(s, j)], sym, ids[(s2, target)]))
        fa = FiniteAutomaton(
            alphabet=d.alphabet,
            state_count=len(members),
            starts=frozenset(range(len(members))),
            finals=frozenset(range(len(members))),
            transitions=frozenset(transitions),
            state_tags=tuple(members),
        )
        out.append(
            SplitDomain(
                domain=Domain(fa),
                original=d,
                members=tuple(members),
                classes={s: classes[off + s] for s in range(d.fa.state_count)},
            )
        )
        off += d.fa.state_count
    return out


def check_partition(classes: Sequence[FiniteAutomaton]) -> bool:
    """True iff the class languages are pairwise disjoint and exhaustive."""
    if not classes:
        return False
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            if not is_empty(intersect(a, b)):
                return False
    return is_empty(complement(disjoint_union(list(classes))))
