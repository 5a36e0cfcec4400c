"""One-dimensional cellular automata and space-time diagram filtering.

Rules are numbered by reading the outputs over all neighborhoods, highest
neighborhood first, as a base-k integer.  Evolution uses periodic
boundaries; rows of the resulting diagram are filtered independently by
any of the three methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .automata import Alphabet, Domain
from .stackfilter import MaximalCover, filter_global, orbit_multiplicity
from .transducer import (
    AMBIGUOUS,
    DomainBreak,
    DomainLabel,
    OutputSymbol,
    Transducer,
    bidirectional,
    bidirectional_filters,
    walk_codes,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class CARule:
    """Local update rule: radius-r neighborhoods over k symbols."""

    k: int
    r: int
    table: tuple[int, ...]
    wolfram_number: int

    def __post_init__(self):
        width = self.k ** (2 * self.r + 1)
        if len(self.table) != width:
            raise ValueError("rule table has the wrong size")
        if any(not 0 <= v < self.k for v in self.table):
            raise ValueError("rule table entry out of range")

    def apply(self, neighborhood: Sequence[int]) -> int:
        idx = 0
        for v in neighborhood:
            idx = idx * self.k + v
        return self.table[idx]


@dataclass(frozen=True)
class SpaceTimeDiagram:
    """Rows of symbol indices; row 0 is the initial configuration."""

    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("empty diagram")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("ragged diagram")
            if any(not 0 <= v < self.k for v in row):
                raise ValueError("symbol out of range")

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def steps(self) -> int:
        return len(self.rows) - 1


@dataclass(frozen=True)
class LabeledDiagram:
    """Filtered counterpart of a diagram: one output symbol per cell.

    For the stack method the per-row covers are kept alongside the
    rendered grid.
    """

    rows: tuple[tuple[OutputSymbol, ...], ...]
    covers: tuple[MaximalCover, ...] | None = None


@dataclass(frozen=True)
class CodedDiagram:
    """A diagram labeled by a filter: one wire code per cell (see
    ``symbol_code``) and the filter's map from each code to its shared
    output symbol.  ``rows`` decodes the codes on first use, so it reads
    like a ``LabeledDiagram``.
    """

    codes: tuple[tuple[int, ...], ...]
    symbols: Mapping[int, OutputSymbol]

    @cached_property
    def rows(self) -> tuple[tuple[OutputSymbol, ...], ...]:
        decode = self.symbols.__getitem__
        return tuple(tuple(map(decode, row)) for row in self.codes)


def rule_from_number(k: int, r: int, number: int) -> CARule:
    """Decode a rule number into its lookup table.

    Neighborhoods are ordered lexicographically; the output for the
    highest neighborhood is the most significant base-k digit.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if r < 1:
        raise ValueError("r must be at least 1")
    width = k ** (2 * r + 1)
    if not 0 <= number < k**width:
        raise ValueError(f"rule number out of range for k={k}, r={r}")
    digits = []
    rest = number
    for _ in range(width):
        digits.append(rest % k)
        rest //= k
    return CARule(k=k, r=r, table=tuple(digits), wolfram_number=number)


def number_from_table(k: int, r: int, table: Sequence[int]) -> int:
    number = 0
    for v in reversed(table):
        number = number * k + v
    return number


def evolve(rule: CARule, initial: Sequence[int], steps: int) -> SpaceTimeDiagram:
    """Iterate the global map with wrap-around indexing."""
    row = tuple(initial)
    n = len(row)
    if any(not 0 <= v < rule.k for v in row):
        raise ValueError("symbol out of range")
    rows = [row]
    k, r, table = rule.k, rule.r, rule.table
    size = k ** (2 * r + 1)
    for _ in range(steps):
        prev = rows[-1]
        ext = [prev[j % n] for j in range(-r, n + r)]  # the row with its wrap-around
        idx = 0
        for v in ext[: 2 * r]:
            idx = idx * k + v
        # rolling neighborhood index: drop the leftmost cell, append the next
        rows.append(tuple([table[idx := idx * k % size + v] for v in ext[2 * r :]]))
    return SpaceTimeDiagram(k=rule.k, rows=tuple(rows))


def random_row(k: int, width: int, seed: int) -> tuple[int, ...]:
    """Reproducible uniform initial row.

    Generator: splitmix64 seeded with the given value; each cell is the
    next output modulo k.
    """
    state = seed & _MASK64
    out = []
    for _ in range(width):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append((z ^ (z >> 31)) % k)
    return tuple(out)


def _row_tokens(row: Sequence[int], alphabet: Alphabet) -> list[str]:
    tokens = []
    for v in row:
        tok = str(v)
        if tok not in alphabet:
            raise ValueError(f"diagram symbol {v} not in the filter alphabet")
        tokens.append(tok)
    return tokens


def _stack_row(domains: Sequence[Domain], tokens: list[str]) -> tuple[tuple[OutputSymbol, ...], MaximalCover]:
    cover = filter_global(domains, "".join(tokens))
    n = len(tokens)
    if cover.whole_string:
        doms = cover.whole_domains or frozenset()
        label = DomainLabel(next(iter(doms))) if len(doms) == 1 else AMBIGUOUS
        return tuple([label] * n), cover
    out: list[OutputSymbol] = []
    for pos in range(1, n + 1):
        count, owners = orbit_multiplicity(cover, pos)
        if count == 1:
            doms = cover.domain_sets[owners[0]]
            out.append(DomainLabel(next(iter(doms))) if len(doms) == 1 else AMBIGUOUS)
        else:
            # overlapping maximal substrings or none at all: a defect cell
            out.append(DomainBreak())
    return tuple(out), cover


def filter_diagram(
    method: str,
    source: Transducer | Sequence[Domain],
    diagram: SpaceTimeDiagram,
) -> LabeledDiagram | CodedDiagram:
    """Filter every row of a diagram independently.

    ``transducer`` takes a built filter and runs it circularly per row on
    the cells' symbol indices, giving a ``CodedDiagram``; ``bidi``
    combines circular passes in both directions; ``stack`` covers each
    row as one period of an infinite string and marks cells by their
    cover multiplicity (one cover: its label; overlap or no cover: a
    break).
    """
    if method == "transducer":
        t = source
        if not isinstance(t, Transducer):
            raise ValueError("transducer method needs a built filter")
        indices = t.alphabet.indices
        sym_of = {v: indices[str(v)] for v in range(diagram.k) if str(v) in indices}
        codes = []
        for row in diagram.rows:
            try:
                symbols = list(map(sym_of.__getitem__, row))
            except KeyError as e:
                raise ValueError(f"diagram symbol {e.args[0]} not in the filter alphabet") from None
            codes.append(tuple(walk_codes(t, symbols, circular=True)))
        return CodedDiagram(codes=tuple(codes), symbols=t.table.symbols)
    if method == "bidi":
        domains = list(source)
        alphabet = domains[0].alphabet
        filters = bidirectional_filters(domains)
        rows = tuple(
            tuple(
                bidirectional(domains, _row_tokens(row, alphabet), "circular", filters=filters)
            )
            for row in diagram.rows
        )
        return LabeledDiagram(rows=rows)
    if method == "stack":
        domains = list(source)
        alphabet = domains[0].alphabet
        labeled = []
        covers = []
        for row in diagram.rows:
            symbols, cover = _stack_row(domains, _row_tokens(row, alphabet))
            labeled.append(symbols)
            covers.append(cover)
        return LabeledDiagram(rows=tuple(labeled), covers=tuple(covers))
    raise ValueError(f"unknown method {method!r}")
