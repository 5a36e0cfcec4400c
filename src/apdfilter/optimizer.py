"""Domain state splitting for unambiguous resynchronization.

Each domain state is split by a finite partition of its possible pasts:
two past strings land in different classes when, extended by a forbidden
letter, they would resynchronize to different tracker states.  Those pasts
are read off the tracker: its subset tags say which union states a past
can end in, so each resync language is the tracker with other finals.
The partitions are refined until they are compatible with the domain's own
transitions, then the domain is rebuilt over (state, class) pairs.  Every
coarsest common refinement on the way is one product of the minimized
languages, its states grouped by which inputs they accept.  The
rebuilt domains recognize the same languages but let the filter pick a
unique resynchronization state where the originals could not.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .automata import (
    Domain,
    FiniteAutomaton,
    canonical_key,
    complement,
    concat_letter,
    determinize,
    difference,
    disjoint_union,
    intersect,
    is_empty,
    minimize,
    replace_finals,
    sigma_star_prefix,
    unconcat_last,
    universal,
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
    the tracker in ``target``.  Every union state is a start, so the
    tracker state after w is tagged with exactly the union states some
    w-path ends in: the pasts are the tracker itself with the states whose
    tag holds ``state`` and whose letter successor is ``target`` as finals.
    """
    if union.starts != frozenset(range(union.state_count)):
        raise ValueError("every union state must be a start")
    sym = union.alphabet.index(symbol)
    if sym in union.transition_table[state]:
        raise ValueError(f"({state}, {symbol!r}) is not forbidden in the union")
    if not 0 <= target < tracker.state_count:
        raise ValueError(f"bad tracker state {target}")
    return replace_finals(
        tracker,
        [
            q
            for q, tag in enumerate(tracker.state_tags)
            if state in tag and tracker.step_det(q, sym) == target
        ],
    )


def disjoin(machines: Sequence[FiniteAutomaton]) -> list[FiniteAutomaton]:
    """Coarsest partition of the union of the given languages that is
    compatible with every input (each input is a union of output classes).

    The minimized inputs are complete DFAs, so each subset of their
    determinized disjoint union holds exactly one state of every input and
    the subset construction is their product.  A class is the set of
    product states whose tags meet the finals of the same non-empty set of
    inputs; outputs are canonical minimal DFAs in a deterministic order.
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
    """Starting partition per union state.

    States with no forbidden letter keep the single all-strings class.
    Otherwise the pasts are split by which tracker state each forbidden
    continuation resynchronizes to, prefixed by arbitrary strings.  The
    union of the classes is checked to cover everything; a complement
    class is appended (with a warning) if it does not.
    """
    union = disjoint_union([d.fa for d in domains])
    tracker = determinize(union)
    alphabet = union.alphabet
    everything = minimize(universal(alphabet))
    out: ClassMap = {}
    for s in range(union.state_count):
        forbidden = [
            sym for sym in range(len(alphabet)) if sym not in union.transition_table[s]
        ]
        if not forbidden:
            out[s] = (everything,)
            continue
        pieces = []
        holders = [q for q, tag in enumerate(tracker.state_tags) if s in tag]
        for sym in forbidden:
            token = alphabet.symbols[sym]
            targets = {tracker.step_det(q, sym) for q in holders} - {None}
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


def _same_partition(a: Sequence[FiniteAutomaton], b: Sequence[FiniteAutomaton]) -> bool:
    return set(a) == set(b)  # classes are canonical forms


def refine_classes(
    fa: FiniteAutomaton, classes: ClassMap
) -> tuple[ClassMap, dict[int, bool]]:
    """One refinement pass over every state of ``fa``.

    For each transition s --a--> s' and each class pair (E at s, E' at s'),
    the part of E whose a-extension lands in E' becomes a piece; the new
    partition at s is the coarsest common refinement of all pieces.
    States without outgoing transitions are unconstrained and keep their
    partition.
    """
    alphabet = fa.alphabet
    new: ClassMap = {}
    changed: dict[int, bool] = {}
    for s in range(fa.state_count):
        pieces: list[FiniteAutomaton] = []
        for sym, dsts in sorted(fa.transition_table[s].items()):
            token = alphabet.symbols[sym]
            for dst in dsts:
                for cls in classes[s]:
                    extended = concat_letter(cls, token)
                    for nxt in classes[dst]:
                        pieces.append(unconcat_last(intersect(extended, nxt), token))
        if not pieces:
            new[s] = classes[s]
            changed[s] = False
            continue
        refined = tuple(disjoin(pieces))
        new[s] = refined
        changed[s] = not _same_partition(refined, classes[s])
    return new, changed


def class_fixpoint(
    fa: FiniteAutomaton, classes: ClassMap, max_passes: int = DEFAULT_MAX_PASSES
) -> tuple[ClassMap, int]:
    """Iterate refinement until nothing changes.  Exceeding the pass cap is
    an error rather than a silent truncation."""
    for passes in range(1, max_passes + 1):
        classes, changed = refine_classes(fa, classes)
        if not any(changed.values()):
            return classes, passes
    raise OptimizeError(f"class refinement did not stabilize within {max_passes} passes")


def optimize(
    domains: Sequence[Domain], max_passes: int = DEFAULT_MAX_PASSES
) -> list[SplitDomain]:
    """Split every domain by its refined past classes.

    Each split state is an (original state, class) pair; transitions
    follow the original transition while the class coordinate moves to the
    unique class containing the extended language.  All split states are
    start and final, so the language is unchanged.
    """
    union = disjoint_union([d.fa for d in domains])
    classes, _passes = class_fixpoint(union, initial_classes(domains), max_passes)
    offsets = []
    total = 0
    for d in domains:
        offsets.append(total)
        total += d.fa.state_count
    out = []
    for i, d in enumerate(domains):
        off = offsets[i]
        members: list[tuple[int, int]] = [
            (s, j)
            for s in range(d.fa.state_count)
            for j in range(len(classes[off + s]))
        ]
        ids = {pair: n for n, pair in enumerate(members)}
        transitions = set()
        for (s, sym, s2) in sorted(d.fa.transitions):
            token = d.alphabet.symbols[sym]
            for j, cls in enumerate(classes[off + s]):
                extended = concat_letter(cls, token)
                targets = [
                    j2
                    for j2, nxt in enumerate(classes[off + s2])
                    if is_empty(difference(extended, nxt))
                ]
                if len(targets) != 1:
                    raise OptimizeError(
                        f"refinement incomplete at state {s} class {j} on {token!r}"
                    )
                transitions.add((ids[(s, j)], sym, ids[(s2, targets[0])]))
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
                classes={
                    s: classes[off + s] for s in range(d.fa.state_count)
                },
            )
        )
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
