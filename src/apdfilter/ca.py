"""One-dimensional cellular automata and space-time diagram filtering.

Rules are numbered by reading the outputs over all neighborhoods, highest
neighborhood first, as a base-k integer.  Evolution uses periodic
boundaries; rows of the resulting diagram are filtered independently by
any of the three methods: ``filter_diagram`` turns the cells into symbol
indices and wraps the codes of the method's own coder
(``transducer.circular_codes``, ``transducer.bidi_circular_codes`` or
``stackfilter.periodic_codes``) in a ``CodedDiagram``: wire codes per
cell, as tuples or byte rows, and the domain and break counts that bound
them.  Diagram text is one ASCII digit codec: ``TO_TEXT`` maps cell bytes
0-9 to ``0``-``9`` and ``FROM_TEXT`` maps them back.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # filter_diagram imports the filter modules its method runs
    from .automata import Alphabet, Domain
    from .transducer import Transducer

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's state increment
RANDOM_CHUNK = 4096  # cells random_row mixes in one big-int pass
MAX_RULE_TABLE = 2**20  # bits of a rule number: k**(2r+1) entries of log2(k) bits
MAX_DIAGRAM_CELLS = 2**30  # cells of one evolved diagram, its initial row included
TO_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")
FROM_TEXT = bytes.maketrans(b"0123456789", bytes(range(10)))


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
    """Rows of symbol indices, one byte per cell (so ``k`` is at most 256);
    row 0 is the initial configuration.  Rows given as any sequence of
    ints are stored as ``bytes``."""

    k: int
    rows: tuple[bytes, ...]

    def __post_init__(self):
        rows = tuple(map(_row_bytes, self.rows))
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise ValueError("empty diagram")
        width = len(rows[0])
        symbols = bytes(range(min(self.k, 256)))
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged diagram")
            if row.translate(None, symbols):  # a cell that is no symbol is left
                raise ValueError("symbol out of range")

    @property
    def width(self) -> int:
        return len(self.rows[0])


def _row_bytes(row: Sequence[int]) -> bytes:
    """One row as ``bytes``; a cell below 0 or above 255 is out of range."""
    try:
        return bytes(row)
    except ValueError:
        raise ValueError("symbol out of range") from None


@dataclass(frozen=True)
class CodedDiagram:
    """A filtered diagram: one wire code per cell (see ``symbol_code``),
    each a domain label up to ``domain_count``, 0 for ambiguity, or one of
    ``break_count`` break codes below 0.

    Each row of ``rows`` is a tuple of codes or ``bytes`` of ``code mod
    256``; byte rows hold no label above ``255 - break_count``, so every
    byte names one code.  ``codes`` reads every row as a tuple of codes.
    """

    rows: tuple[bytes | tuple[int, ...], ...]
    domain_count: int
    break_count: int

    @cached_property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        decode = [*range(256 - self.break_count), *range(-self.break_count, 0)]  # byte -> code
        return tuple(
            tuple(map(decode.__getitem__, row)) if isinstance(row, bytes) else row for row in self.rows
        )


def table_size(k: int, r: int) -> int:
    """Entries of a rule table, one per neighborhood: k**(2r+1).  Tables
    whose rule numbers take more than ``MAX_RULE_TABLE`` bits are refused,
    before any big number is formed."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if r < 1:
        raise ValueError("r must be at least 1")
    # an entry takes at least one bit (k >= 2), so n or k**n past the limit is over it
    n = 2 * r + 1
    if n >= MAX_RULE_TABLE.bit_length() or k**n > MAX_RULE_TABLE or k**n * math.log2(k) > MAX_RULE_TABLE:
        from .automata import clip  # the error line echoes k and r cut short

        raise ValueError(f"rule table for k={clip(k)}, r={clip(r)} exceeds {MAX_RULE_TABLE} bits")
    return k**n


def rule_from_number(k: int, r: int, number: int) -> CARule:
    """Decode a rule number into its lookup table.

    Neighborhoods are ordered lexicographically; the output for the
    highest neighborhood is the most significant base-k digit.  Tables of
    more than ``MAX_RULE_TABLE`` bits are refused.
    """
    size = table_size(k, r)
    if not 0 <= number < k**size:
        raise ValueError(f"rule number out of range for k={k}, r={r}")
    # halving: each split divides by a precomputed k**(2**j), so only a few
    # divisions are big, where one digit at a time divides all of n per digit
    powers = [k]
    while 2 ** len(powers) < size:
        powers.append(powers[-1] ** 2)
    digits: list[int] = []

    def decode(n: int, count: int):  # the low `count` base-k digits of n
        if count <= 64:
            for _ in range(count):
                n, d = divmod(n, k)
                digits.append(d)
            return
        j = (count - 1).bit_length() - 1  # 2**j < count <= 2**(j + 1)
        high, low = divmod(n, powers[j])
        decode(low, 2**j)
        decode(high, count - 2**j)

    decode(number, size)
    return CARule(k=k, r=r, table=tuple(digits), wolfram_number=number)


def evolve(rule: CARule, initial: Sequence[int], steps: int) -> SpaceTimeDiagram:
    """Iterate the global map with wrap-around indexing.  Diagrams of more
    than ``MAX_DIAGRAM_CELLS`` cells are refused before the first step.

    Tables of at most 256 entries step a whole row as byte lanes: one
    big-integer sum forms every neighborhood index at once, and one
    ``translate`` looks them all up.  Larger tables roll one index along
    the row.
    """
    row = _row_bytes(initial)
    n = len(row)
    if not n:
        raise ValueError("empty initial row")
    if steps < 0:
        raise ValueError(f"negative step count {steps}")
    if (steps + 1) * n > MAX_DIAGRAM_CELLS:
        raise ValueError(f"{steps + 1} rows of {n} cells exceed {MAX_DIAGRAM_CELLS} cells")
    if max(row) >= rule.k:
        raise ValueError("symbol out of range")
    rows = [row]
    k, r, table = rule.k, rule.r, rule.table
    size = len(table)
    laps = -(-r // n)  # copies of the row that each side of the wrap-around needs
    lo, hi = laps * n - r, (laps + 1) * n + r  # cells -r..n+r-1 of the repeated row
    if size <= 256:
        lookup = bytes(table).ljust(256, b"\0")
        for _ in range(steps):
            x = int.from_bytes((row * (2 * laps + 1))[lo:hi], "little")
            # byte i of x >> 8d is cell i - r + d, so byte i of the sum is
            # cell i's neighborhood index; each is below 256, so none carries
            # past the n + 2r bytes of x, and bytes n.. are dropped
            idx = x
            for d in range(1, 2 * r + 1):
                idx = idx * k + (x >> 8 * d)
            row = idx.to_bytes(n + 2 * r, "little")[:n].translate(lookup)
            rows.append(row)
    else:
        for _ in range(steps):
            ext = (row * (2 * laps + 1))[lo:hi]
            idx = 0
            for v in ext[: 2 * r]:
                idx = idx * k + v
            # rolling neighborhood index: drop the leftmost cell, append the next
            row = bytes([table[idx := idx * k % size + v] for v in ext[2 * r :]])
            rows.append(row)
    return SpaceTimeDiagram(k=rule.k, rows=tuple(rows))


def random_row(k: int, width: int, seed: int) -> bytes:
    """Reproducible uniform initial row, one byte per cell (so k is at
    most 256).  The row is allocated before the generator runs.

    Generator: splitmix64 seeded with the given value; cell i is the mix
    of the state ``seed + (i + 1) * GAMMA`` (mod 2**64), modulo k.  The
    cells are mixed ``RANDOM_CHUNK`` at a time: one int holds a 128-bit
    lane per cell, its state in the low word, so that a 64-bit value
    times a 64-bit constant cannot carry into the next lane, and every
    lane's state steps on by ``RANDOM_CHUNK * GAMMA`` to the next chunk.
    """
    if not 1 <= k <= 256:
        raise ValueError(f"k={k}: a row holds one byte per cell, so k is between 1 and 256")
    row = bytearray(width)
    n = min(width, RANDOM_CHUNK)
    # the lanes' low words, little-endian on every host: a cast view copies 8-byte
    # words byte for byte, and only this format reads their values (big-endian
    # hosts are untested: CI runs on little-endian ones only)
    words = f"<{n}Q"
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * n, "little")  # 1 in every lane
    lanes = ones * _MASK64  # the low word of every lane
    index = bytearray(16 * n)  # lane i is words 2i (low) and 2i + 1 (high, zero)
    memoryview(index).cast("Q")[::2] = memoryview(struct.pack(words, *range(1, n + 1))).cast("Q")
    state = (int.from_bytes(index, "little") * _GAMMA + (seed & _MASK64) * ones) & lanes
    advance = (n * _GAMMA & _MASK64) * ones
    for lo in range(0, width, RANDOM_CHUNK):
        if width - lo < n:  # a shorter last chunk: drop the lanes past the row's end
            state &= (1 << 128 * (width - lo)) - 1
        z = ((state ^ (state >> 30) & lanes) * 0xBF58476D1CE4E5B9) & lanes
        z = ((z ^ (z >> 27) & lanes) * 0x94D049BB133111EB) & lanes
        z ^= z >> 31 & lanes
        low = memoryview(z.to_bytes(16 * n, "little")).cast("Q")[::2].tobytes()
        row[lo : lo + n] = bytes(map(k.__rmod__, struct.unpack(words, low)[: width - lo]))
        state = (state + advance) & lanes
    return bytes(row)


def _symbol_rows(diagram: SpaceTimeDiagram, alphabet: Alphabet) -> list:
    """Every row as its cells' symbol indices (cell v is the token ``str(v)``),
    one ``translate`` per row; the first cell in row order that is no token fails."""
    index = {v: alphabet.indices[str(v)] for v in range(min(diagram.k, 256)) if str(v) in alphabet}
    tokens = bytes(index)
    if left := b"".join(diagram.rows).translate(None, tokens):  # the cells that are no token
        raise ValueError(f"diagram symbol {left[0]} not in the filter alphabet")
    if len(alphabet) > 256:  # indices may not fit a byte
        return [list(map(index.__getitem__, row)) for row in diagram.rows]
    lookup = bytes.maketrans(tokens, bytes(index.values()))
    return [row.translate(lookup) for row in diagram.rows]


def filter_diagram(
    method: str,
    source: Transducer | Sequence[Domain],
    diagram: SpaceTimeDiagram,
) -> CodedDiagram:
    """Filter every row of a diagram independently, circularly, on its
    cells' symbol indices, with the coder of the method's module.

    ``transducer`` runs a built filter and keeps its break codes
    (``transducer.circular_codes``); ``bidi`` combines passes in both
    directions (``transducer.bidi_circular_codes``); ``stack`` marks cells
    by their cover multiplicity (``stackfilter.periodic_codes``); these
    two take domains and code every break as -1.
    """
    if method == "transducer":
        from .transducer import Transducer, circular_codes

        t = source
        if not isinstance(t, Transducer):
            raise ValueError("transducer method needs a built filter")
        return CodedDiagram(circular_codes(t, _symbol_rows(diagram, t.alphabet)), t.domain_count, len(t.breaks))
    if method not in ("bidi", "stack"):
        raise ValueError(f"unknown method {method!r}")
    domains = list(source)
    if not domains:
        raise ValueError("need at least one domain")
    rows = _symbol_rows(diagram, domains[0].alphabet)
    if method == "bidi":
        from .transducer import bidi_circular_codes, bidirectional_filters

        codes = bidi_circular_codes(bidirectional_filters(domains), rows)
    else:
        from .stackfilter import periodic_codes

        codes = periodic_codes(domains, rows)
    return CodedDiagram(codes, len(domains), 1)
