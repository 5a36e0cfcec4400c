"""Finite automata and the constructions the filtering algorithms build on.

States are dense integers ``0..state_count-1``.  Construction provenance is
kept in ``state_tags`` so downstream algorithms can consult it instead of
re-deriving it: determinization tags each state with its source subset,
intersection with the contributing pair, disjoint union with
``(input index, original state)``.

There is one subset construction, ``SubsetSteps`` over bitmask state sets,
and its table is the one an automaton keeps: ``accepts`` fills its rows
lazily; ``determinize``, ``build_tracker``, ``minimize`` and ``complement``
explore it eagerly, the last two through one complete DFA with a sink;
``intersect`` pairs two automata's ``targets`` masks; ``MAX_SUBSETS``
bounds every exploration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .stackfilter import ScanAutomaton

Transition = tuple[int, int, int]  # (source, symbol index, target)

MAX_SUBSETS = 2**15  # reachable nonempty sets one subset construction may number


def clip(field: object) -> str:
    """``field`` as an error line echoes it: at most 40 characters, then ``…``.
    An int of more than 60 digits shows its leading digits, formed from its
    quotient by a power of ten, so one past Python's limit on int strings
    echoes too."""
    if isinstance(field, int) and field.bit_length() > 200:
        scale = int(field.bit_length() * math.log10(2)) - 45  # leaves 45 to 47 digits
        return clip(f"{'-' * (field < 0)}{abs(field) // 10**scale}")
    text = str(field)
    return text if len(text) <= 40 else text[:40] + "…"


class _Translation(dict):
    """Token code point -> ``chr(symbol index)`` for ``str.translate``; a missing key fails."""

    def __missing__(self, key: int):  # not a LookupError, which keeps the character
        raise ValueError(f"unknown symbol {chr(key)!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of symbol tokens with dense indices."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet is empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet has duplicate symbols")
        for tok in self.symbols:
            if not tok or not tok.isprintable() or any(c.isspace() for c in tok):
                raise ValueError(f"bad alphabet token {clip(tok)!r}")

    def __len__(self):
        return len(self.symbols)

    @cached_property
    def indices(self) -> dict[str, int]:
        """Token -> symbol index."""
        return {tok: i for i, tok in enumerate(self.symbols)}

    @cached_property
    def _translation(self) -> _Translation:  # of the single-character tokens
        return _Translation((ord(tok), chr(i)) for i, tok in enumerate(self.symbols) if len(tok) == 1)

    def encode(self, word: Iterable[str]) -> Sequence[int]:
        """The symbol indices of a word's tokens (one ``str.translate`` to
        ``bytes`` for a string over at most 256 tokens)."""
        if isinstance(word, str) and len(self.symbols) <= 256:
            return word.translate(self._translation).encode("latin-1")
        try:
            return list(map(self.indices.__getitem__, word))
        except KeyError as e:
            raise ValueError(f"unknown symbol {e.args[0]!r}") from None

    def index(self, token: str) -> int:
        return self.encode((token,))[0]

    def __contains__(self, token: str) -> bool:
        return token in self.indices


@dataclass(frozen=True)
class FiniteAutomaton:
    """Nondeterministic finite automaton over an :class:`Alphabet`.

    ``transitions`` is a set of ``(source, symbol index, target)`` triples.
    ``state_tags``, when present, gives one provenance annotation per state.
    Instances are immutable; every operation below is a pure function.
    """

    alphabet: Alphabet
    state_count: int
    starts: frozenset[int]
    finals: frozenset[int]
    transitions: frozenset[Transition]
    state_tags: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "starts", frozenset(self.starts))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        if self.state_tags is not None:
            object.__setattr__(self, "state_tags", tuple(self.state_tags))
            if len(self.state_tags) != self.state_count:
                raise ValueError("state_tags length != state_count")
        n, k = self.state_count, len(self.alphabet)
        if n < 0:
            raise ValueError("negative state count")
        for s in self.starts | self.finals:
            if not 0 <= s < n:
                raise ValueError(f"state {s} out of range")
        for (src, sym, dst) in self.transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition {(src, sym, dst)} references bad state")
            if not 0 <= sym < k:
                raise ValueError(f"transition {(src, sym, dst)} references bad symbol")

    @property
    def semi_deterministic(self) -> bool:
        """No two transitions share (source, symbol)."""
        return len({(src, sym) for src, sym, _ in self.transitions}) == len(self.transitions)

    @property
    def deterministic(self) -> bool:
        return len(self.starts) == 1 and self.semi_deterministic

    @cached_property
    def subset_steps(self) -> SubsetSteps:
        """The one subset construction of this automaton, kept with it."""
        return SubsetSteps(self)


def first_occurrence(signatures: Iterable) -> tuple[int, ...]:
    """Number equal signatures alike, in order of first occurrence: two
    partitions are the same exactly when their numberings compare equal."""
    signatures = list(signatures)
    ids = {sig: i for i, sig in enumerate(dict.fromkeys(signatures))}
    return tuple(map(ids.__getitem__, signatures))


def bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SubsetSteps:
    """The subset construction of an automaton over bitmask state sets.

    Bit s of a mask stands for state s, and ``targets[sym][s]`` is the mask
    of state s's successors on symbol index sym.  ``rows[sym]`` maps a
    set's mask to its successor's mask (``by_token`` holds the same dicts
    keyed by letter token); an entry is filled the first time its (set,
    letter) pair is met, by ORing the targets of the set's bits.
    ``explore`` fills the rows of every set reachable from the start, and
    ``accepts`` at most one entry per letter of its word, so the rows stay
    within the arcs of ``determinize(fa)`` plus those into the empty set.
    An entry depends only on its key, so two threads that fill it at once
    store the same value.
    """

    def __init__(self, fa: FiniteAutomaton):
        targets = [[0] * fa.state_count for _ in fa.alphabet.symbols]
        for (src, sym, dst) in fa.transitions:
            targets[sym][src] |= 1 << dst
        self.start = sum(1 << s for s in fa.starts)
        self.finals = sum(1 << s for s in fa.finals)
        self.targets = tuple(map(tuple, targets))
        self.rows: tuple[dict[int, int], ...] = tuple({} for _ in targets)
        self.by_token = dict(zip(fa.alphabet.symbols, self.rows))

    def fill(self, sym: int, mask: int) -> int:
        """The successor of set ``mask`` on symbol ``sym``, stored in its row."""
        targets = self.targets[sym]
        out = 0
        for s in bits(mask):
            out |= targets[s]
        self.rows[sym][mask] = out
        return out

    def explore(self) -> tuple[list[int], list[list[int | None]]]:
        """Number the nonempty sets reachable from the start breadth-first,
        symbols in alphabet order, the start set 0.  Returns the sets' masks
        by number and, per symbol, each set's successor number (None for
        the empty set).  Numbering more than ``MAX_SUBSETS`` sets fails."""
        if not self.start:
            raise ValueError("no start states")
        masks, ids = [self.start], {self.start: 0}
        succ: list[list[int | None]] = [[] for _ in self.rows]
        for mask in masks:  # grows while it is walked: the BFS queue
            for sym, row in enumerate(self.rows):
                nxt = row.get(mask)
                if nxt is None:
                    nxt = self.fill(sym, mask)
                if nxt and nxt not in ids:
                    if len(masks) == MAX_SUBSETS:
                        raise ValueError(f"subset construction exceeds {MAX_SUBSETS} states")
                    ids[nxt] = len(masks)
                    masks.append(nxt)
                succ[sym].append(ids[nxt] if nxt else None)
        return masks, succ


@dataclass(frozen=True)
class Domain:
    """Semi-deterministic automaton with every state both start and final.

    Such automata recognize factor-closed languages: any substring of an
    accepted string is accepted.  A violation raises ``ValueError`` with
    the message the domain-file parser reports.  Strong connectivity is
    required of user-supplied domains (the parser enforces it) but not
    here, because split domains produced by the optimizer legitimately
    carry non-recurrent states.
    """

    fa: FiniteAutomaton

    def __post_init__(self):
        fa = self.fa
        all_states = frozenset(range(fa.state_count))
        if fa.state_count == 0:
            raise ValueError("domain has no states")
        if fa.starts != all_states:
            raise ValueError("not all states are start states")
        if fa.finals != all_states:
            raise ValueError("not all states are final states")
        if not fa.semi_deterministic:
            raise ValueError("not semi-deterministic")

    @property
    def alphabet(self) -> Alphabet:
        return self.fa.alphabet


def determinize(fa: FiniteAutomaton) -> FiniteAutomaton:
    """Subset construction.  Result states are tagged with their source sets.

    Only subsets reachable from the start subset are materialized; a subset
    state is final iff it meets ``fa.finals``.  Numbering is breadth-first
    with symbols taken in alphabet order (``SubsetSteps.explore``), so the
    result is canonical for a given input.
    """
    steps = fa.subset_steps
    masks, succ = steps.explore()
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=len(masks),
        starts=frozenset([0]),
        finals=frozenset(i for i, mask in enumerate(masks) if mask & steps.finals),
        transitions=frozenset(
            (i, sym, j) for sym, row in enumerate(succ) for i, j in enumerate(row) if j is not None
        ),
        state_tags=tuple(frozenset(bits(mask)) for mask in masks),
    )


@dataclass(frozen=True)
class Tracker:
    """The deterministic tracker of a domain set, built once and shared.

    It is the subset construction over the disjoint ``union`` of the
    domains, start state 0, numbered as ``determinize(union)`` numbers it.
    ``step[sym][q]`` is the successor of tracker state q, None where every
    tracked path dies; ``masks[q]`` is q's subset of union states as a
    bitmask, and ``state_domains[q]`` the 1-based domains with a state in
    it.  ``scan_automaton``, the stack scan's table, is derived on first
    use, and the optimizer reads its past automaton off ``step``.
    """

    domains: tuple[Domain, ...]
    union: FiniteAutomaton
    step: tuple[tuple[int | None, ...], ...]
    state_domains: tuple[frozenset[int], ...]
    masks: tuple[int, ...]

    @property
    def alphabet(self) -> Alphabet:
        return self.union.alphabet

    @cached_property
    def scan_automaton(self) -> ScanAutomaton:
        """The stack scan's configuration automaton, kept across its calls."""
        from .stackfilter import ScanAutomaton  # that module imports this one

        return ScanAutomaton(self)


def build_tracker(domains: Sequence[Domain]) -> Tracker:
    """The one subset construction over a domain set's disjoint union."""
    if not domains:
        raise ValueError("need at least one domain")
    union = disjoint_union([d.fa for d in domains])
    masks, succ = union.subset_steps.explore()
    origin = union.state_tags
    state_domains = tuple(frozenset(origin[u][0] + 1 for u in bits(mask)) for mask in masks)
    return Tracker(tuple(domains), union, tuple(map(tuple, succ)), state_domains, tuple(masks))


def intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """Product construction over reachable state pairs, tagged ``(left, right)``,
    numbered breadth-first from the sorted start pairs as ``explore`` numbers
    sets: a pair's successors pair the bits of its states' ``targets`` masks."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    steps = tuple(zip(a.subset_steps.targets, b.subset_steps.targets))
    pairs = sorted((p, q) for p in a.starts for q in b.starts)
    ids = {pair: i for i, pair in enumerate(pairs)}
    transitions: set[Transition] = set()
    for i, (p, q) in enumerate(pairs):  # grows while it is walked: the BFS queue
        for sym, (ta, tb) in enumerate(steps):
            for pair in product(bits(ta[p]), bits(tb[q])):
                if pair not in ids:
                    ids[pair] = len(pairs)
                    pairs.append(pair)
                transitions.add((i, sym, ids[pair]))
    return FiniteAutomaton(
        alphabet=a.alphabet,
        state_count=len(pairs),
        starts=frozenset(range(len(a.starts) * len(b.starts))),
        finals=frozenset(i for i, (p, q) in enumerate(pairs) if p in a.finals and q in b.finals),
        transitions=frozenset(transitions),
        state_tags=tuple(pairs),
    )


def disjoint_union(fas: Sequence[FiniteAutomaton]) -> FiniteAutomaton:
    """Side-by-side union; states tagged ``(input index, original state)``."""
    if not fas:
        raise ValueError("empty disjoint union")
    alphabet = fas[0].alphabet
    for fa in fas[1:]:
        if fa.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
    starts: set[int] = set()
    finals: set[int] = set()
    transitions: set[Transition] = set()
    tags: list[tuple[int, int]] = []
    offset = 0
    for i, fa in enumerate(fas):
        starts.update(offset + s for s in fa.starts)
        finals.update(offset + s for s in fa.finals)
        transitions.update((offset + s, sym, offset + d) for (s, sym, d) in fa.transitions)
        tags.extend((i, s) for s in range(fa.state_count))
        offset += fa.state_count
    return FiniteAutomaton(
        alphabet=alphabet,
        state_count=offset,
        starts=frozenset(starts),
        finals=frozenset(finals),
        transitions=frozenset(transitions),
        state_tags=tuple(tags),
    )


def universal(alphabet: Alphabet) -> FiniteAutomaton:
    """One-state automaton accepting every string over ``alphabet``."""
    return FiniteAutomaton(
        alphabet=alphabet,
        state_count=1,
        starts=frozenset([0]),
        finals=frozenset([0]),
        transitions=frozenset((0, sym, 0) for sym in range(len(alphabet))),
    )


def empty_language(alphabet: Alphabet) -> FiniteAutomaton:
    """One-state automaton accepting nothing (complete sink)."""
    return FiniteAutomaton(
        alphabet=alphabet,
        state_count=1,
        starts=frozenset([0]),
        finals=frozenset(),
        transitions=frozenset((0, sym, 0) for sym in range(len(alphabet))),
    )


def _completed(fa: FiniteAutomaton) -> tuple[list[int], list[tuple[int, ...]]]:
    """The complete DFA of ``fa``: ``SubsetSteps.explore``'s sets, numbered
    as it numbers them, each set's mask and its successors in alphabet
    order, with a sink (mask 0) appended where some set lacks a successor."""
    masks, succ = fa.subset_steps.explore()
    sink = len(masks)
    rows = [tuple(sink if j is None else j for j in row) for row in zip(*succ)]
    if any(sink in row for row in rows):
        masks.append(0)
        rows.append((sink,) * len(succ))
    return masks, rows


def complement(fa: FiniteAutomaton) -> FiniteAutomaton:
    """Accept exactly the strings over ``fa.alphabet`` that ``fa`` rejects.
    Its states are tagged with their source sets, the sink with the empty one."""
    if not fa.starts:
        return universal(fa.alphabet)
    masks, rows = _completed(fa)
    finals = fa.subset_steps.finals
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=len(masks),
        starts=frozenset([0]),
        finals=frozenset(i for i, mask in enumerate(masks) if not mask & finals),
        transitions=frozenset((i, sym, j) for i, row in enumerate(rows) for sym, j in enumerate(row)),
        state_tags=tuple(frozenset(bits(mask)) for mask in masks),
    )


def difference(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    return intersect(a, complement(b))


def reverse(fa: FiniteAutomaton) -> FiniteAutomaton:
    """Mirror-image automaton: accepts exactly the reversed language."""
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=fa.state_count,
        starts=fa.finals,
        finals=fa.starts,
        transitions=frozenset((d, sym, s) for (s, sym, d) in fa.transitions),
    )


def minimize(fa: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical minimal complete DFA.

    States are renumbered breadth-first from the start with symbols in
    alphabet order, so two automata are language-equal iff their minimized
    forms compare equal.
    """
    if not fa.starts:
        return empty_language(fa.alphabet)
    masks, rows = _completed(fa)
    finals = fa.subset_steps.finals
    # Moore refinement from the final/non-final split, until a pass splits nothing
    block, refined = None, first_occurrence(bool(mask & finals) for mask in masks)
    while refined != block:
        block = refined
        refined = first_occurrence((b, tuple(block[t] for t in row)) for b, row in zip(block, rows))
    # explore numbered the sets breadth-first and the sink leads only to
    # itself, so the blocks in order of first arrival (the start, then each
    # set's successors in turn) are the quotient's breadth-first numbering
    number = {b: i for i, b in enumerate(dict.fromkeys(block[t] for t in chain((0,), *rows)))}
    return FiniteAutomaton(
        alphabet=fa.alphabet,
        state_count=len(number),
        starts=frozenset([0]),
        finals=frozenset(number[b] for b, mask in zip(block, masks) if mask & finals),
        transitions=frozenset(
            (number[b], sym, number[block[t]]) for b, row in zip(block, rows) for sym, t in enumerate(row)
        ),
    )


def accepts(fa: FiniteAutomaton, word: str | Sequence[str]) -> bool:
    """NFA membership by set simulation on ``fa.subset_steps``: one table
    lookup per letter once a (set, letter) pair has been met.  The empty
    string is accepted iff some start state is final; an empty set rejects
    at once, before the next letter is checked against the alphabet."""
    steps = fa.subset_steps
    rows = steps.by_token
    cur = steps.start
    for tok in word:
        try:
            row = rows[tok]
        except KeyError:
            raise ValueError(f"unknown symbol {tok!r}") from None
        nxt = row.get(cur)
        if nxt is None:
            nxt = steps.fill(fa.alphabet.indices[tok], cur)
        if not nxt:
            return False
        cur = nxt
    return bool(cur & steps.finals)


def _reachable(starts: Iterable[int], arcs: Iterable[tuple[int, int]]) -> set[int]:
    """The states reachable from ``starts`` over (source, target) arcs."""
    nexts: dict[int, list[int]] = {}
    for src, dst in arcs:
        nexts.setdefault(src, []).append(dst)
    seen = set(starts)
    stack = list(seen)
    while stack:
        for d in nexts.get(stack.pop(), ()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def is_empty(fa: FiniteAutomaton) -> bool:
    """True iff no final state is reachable from a start state."""
    return fa.finals.isdisjoint(_reachable(fa.starts, ((s, d) for s, _sym, d in fa.transitions)))


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    """Language equality via canonical minimized forms."""
    return minimize(a) == minimize(b)


def is_strongly_connected(fa: FiniteAutomaton) -> bool:
    """Every state reaches state 0 and state 0 reaches every state."""
    n = fa.state_count
    forward = [(s, d) for s, _sym, d in fa.transitions]
    backward = [(d, s) for s, d in forward]
    return n <= 1 or len(_reachable([0], forward)) == len(_reachable([0], backward)) == n


def cyclic_domain(word: str | Sequence[str], alphabet: Alphabet | None = None) -> Domain:
    """Domain of all factors of the two-way infinite repetition of ``word``.

    One state per letter position, wired in a cycle; every state is start
    and final.
    """
    tokens = list(word)
    if not tokens:
        raise ValueError("empty cycle word")
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(set(tokens))))
    n = len(tokens)
    transitions = frozenset(
        (i, a, (i + 1) % n) for i, a in enumerate(alphabet.encode(tokens))
    )
    fa = FiniteAutomaton(
        alphabet=alphabet,
        state_count=n,
        starts=frozenset(range(n)),
        finals=frozenset(range(n)),
        transitions=transitions,
    )
    return Domain(fa)


def reverse_domain(d: Domain) -> Domain:
    """Domain reading right-to-left.  Fails if the reversal loses
    semi-determinism; such domains need the stack filter instead."""
    rev = reverse(d.fa)
    if not rev.semi_deterministic:
        raise ValueError("domain not reversible; use stack filter")
    return Domain(rev)

