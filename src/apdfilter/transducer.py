"""Synchronizing filter transducers.

The filter is the deterministic tracker of all domains at once
(``build_tracker``, the package's one subset construction, which keeps
each state's subset as a bitmask), its arcs labeled from the tracker's
per-state domain sets, with every forbidden (state, letter) pair (a None
in the tracker's step table) filled in by a resynchronization
transition.  The resynchronization target comes from a table of
candidate tracker states indexed by (specificity, imagined past length):
the states the tracker reaches on an imagined past that ends in the
forbidden state, plus the forbidden letter.  One layered walk per filter
over the tracker's own transitions fills the tables of all forbidden
pairs (``resync``) from per-letter ORs of bitmask pasts, one step per
incidence, and one diff mask per letter ends them all; in each table the
first singleton in the order specificity (the popcount of the state's
subset mask) first, then past length, wins.

A filter is one dense integer table (``Transducer``) with exactly one
arc per (state, letter), filled in one pass over the tracker's step
table, written to and read from ``.tdx`` as is (a file that leaves an arc
out fails to load), and run as is: for ``i = state*k + symbol``,
``next[i]`` is the target state times k and ``code[i]`` the wire code of
the arc's output (``symbol_code``), with break code -j naming the
(source, target) pair ``breaks[j - 1]``.  ``_lap`` and ``_walk`` are the
letter loops over it: ``walk_codes`` emits codes, one letter a step, and
``transduce`` maps them to the filter's shared output symbols
(``Transducer.symbols``); ``walk_text`` emits text, blocks at a time, over
the filter composed with itself (``_block_table``).  ``walk_lanes`` walks
many strings of one length at once, one byte lane each, a letter of every
string a step, where the table fits a byte.  Every code lies in
``-len(breaks)..domain_count``; outputs without break identity (the
two-pass combination and the stack cover) code every break as -1.
``circular_codes`` and ``bidi_circular_codes`` code ``ca.filter_diagram``'s
rows, as byte lanes where ``_lanes_fit``, otherwise row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .automata import (
    Alphabet,
    Domain,
    Tracker,
    bits,
    build_tracker,
    label_code,
    reverse_domain,
)


@dataclass(frozen=True)
class DomainLabel:
    """Position lies inside domain ``index`` (1-based)."""

    index: int


@dataclass(frozen=True)
class DomainBreak:
    """Domain-to-domain jump between the named filter states.

    Stack- and gap-derived breaks carry no state pair; the endpoints are
    then ``None``.
    """

    source: int | None = None
    target: int | None = None


@dataclass(frozen=True)
class Ambiguous:
    """Classification is ambiguous or undetermined (serialized ``lam``)."""


AMBIGUOUS = Ambiguous()
_GAP = DomainBreak()  # a two-pass cell inside a gap: a break with no state pair

OutputSymbol = Union[DomainLabel, DomainBreak, Ambiguous]

MAX_RESYNC_WALK = 2**17  # elements over all layers of one resync walk


@dataclass(frozen=True)
class ResyncReport:
    """Where one forbidden transition was redirected and why.

    ``candidates`` is the nonempty part of the examined table, ordered:
    for each (specificity, past length) in scan order, the candidate
    tracker states found there.
    """

    state: int
    symbol: str
    target: int
    specificity: int
    past_length: int
    candidates: tuple[tuple[tuple[int, int], frozenset[int]], ...]


@dataclass(frozen=True)
class Transducer:
    """Finite-state filter as one dense integer table over ``(input letter,
    output symbol)`` arcs, indexed by ``i = state*k + symbol``.

    Every (state, letter) has exactly one arc: ``next[i]`` is its target
    state times k and ``code[i]`` its wire code (``symbol_code``); break
    code -j stands for the (source, target) pair ``breaks[j - 1]``.  So
    the filter transduces any string, one output per letter.  Every state
    is final.  State tags are the subset tags of the underlying tracker
    when known.  States, letters and codes lie in their ranges and the
    table is full (``load_transducer`` checks this for files), so a run
    needs no checks.
    """

    alphabet: Alphabet
    start: int
    next: tuple[int, ...]
    code: tuple[int, ...]
    breaks: tuple[tuple[int, int], ...]
    domain_count: int
    state_tags: tuple[frozenset[int], ...] | None = None
    resync_reports: tuple[ResyncReport, ...] = ()

    @property
    def state_count(self) -> int:
        return len(self.next) // len(self.alphabet)

    @cached_property
    def symbols(self) -> dict[int, OutputSymbol]:
        """The filter's one output symbol per wire code."""
        symbols: dict[int, OutputSymbol] = {0: AMBIGUOUS}
        # the labels the table emits, not every declared one: a count costs nothing
        symbols.update((c, DomainLabel(c)) for c in sorted(set(self.code)) if c > 0)
        symbols.update((-j, DomainBreak(*pair)) for j, pair in enumerate(self.breaks, start=1))
        return symbols


def resync(tracker: Tracker) -> tuple[ResyncReport, ...]:
    """Choose the state to jump to for every forbidden (state, letter)
    pair of the tracker: one report per pair, in (state, letter) order.

    The candidates of a pair (q, a) for imagined-past length l are the
    tracker states reached from the start by the words w + a of length l
    whose imagined past w ends in q (some path labeled w leads from some
    tracker state to q); length 0 holds the start state alone.  One walk
    goes over layers of (past, tracker state) elements, one per word u of
    that length: the bitmask of the tracker states some path labeled u
    reaches, and the state the tracker reaches by u from its start, up to
    the first empty or repeated layer r; beyond ``MAX_RESYNC_WALK`` elements
    in all it fails.  Entry l of (q, a) holds the a-targets of layer l - 1
    whose OR of a-predecessor pasts has bit q, one step per incidence.

    A pair's own walk, flagging the words w + a, would end its table at r,
    or at r + 1 where its flagged layers r and repeats differ (flags
    dropped, they are the shared layers).  There an element is flagged True
    for the q in the OR of its a-predecessors' pasts, and False for every q
    if another letter reaches it, else for the q outside their AND; letter
    a's diff mask holds the q where the two layers differ.  The cost is the
    walk, the incidences and one diff per letter.

    The first singleton in the (specificity, past length) dictionary order
    wins; at the top specificity, the start alone at length 0 is one.
    """
    step, masks = tracker.step, tracker.masks
    k, full = len(step), (1 << len(masks)) - 1
    elements, ids = [(full, 0)], {(full, 0): 0}  # (past, tracker state) elements, numbered
    arcs: list[list[tuple[int, int, int]]] = []  # element -> (letter, tracker target, successor)
    forbidden = [sum(1 << q for q, d in enumerate(row) if d is None) for row in step]
    tables = {(q, a): {0: 1} for q in range(len(masks)) for a in range(k) if forbidden[a] >> q & 1}
    index, layer, total = {}, frozenset([0]), 0  # index: layer -> its number, in walk order
    while layer and layer not in index:
        index[layer] = l = len(index)
        if (total := total + len(layer)) > MAX_RESYNC_WALK:
            raise ValueError(f"resync walk exceeds {MAX_RESYNC_WALK} elements")
        for past, t in elements[len(arcs) :]:  # the arcs of the elements new in this layer
            qs = list(bits(past))
            arcs.append([])
            for a, row in enumerate(step):
                if row[t] is not None:
                    e = (sum({1 << row[q] for q in qs if row[q] is not None}), row[t])
                    if e not in ids:
                        ids[e] = len(elements)
                        elements.append(e)
                    arcs[-1].append((a, row[t], ids[e]))
        ors: dict[tuple[int, int], int] = {}  # (letter, target) -> OR of pasts
        for e in layer:
            for a, d, _s in arcs[e]:
                ors[a, d] = ors.get((a, d), 0) | elements[e][0]
        for (a, d), past in ors.items():
            for q in bits(past & forbidden[a]):  # one step per incidence
                entry = tables[q, a]
                entry[l + 1] = entry.get(l + 1, 0) | 1 << d
        layer = frozenset(s for e in layer for _a, _d, s in arcs[e])
    layers, r, repeats = list(index), len(index), index.get(layer)  # None after an empty layer

    def flags(l: int) -> dict:  # (b, element) -> OR, AND of its predecessors' pasts, 0 off b
        masks: dict[tuple[int, int], tuple[int, int]] = {}
        for e in layers[l - 1]:
            for a, _d, s in arcs[e]:
                for b in range(k):
                    past = elements[e][0] if a == b else 0
                    true, kept = masks.get((b, s), (0, full))
                    masks[b, s] = (true | past, kept & past)
        return masks

    diff = [0] * k  # per letter: the q whose flagged layers r and repeats differ
    if repeats is not None:
        then = flags(repeats) if repeats else {(b, 0): (full, full) for b in range(k)}
        for (b, s), (true, kept) in flags(r).items():
            diff[b] |= true ^ then[b, s][0] | kept ^ then[b, s][1]
    sizes = [mask.bit_count() for mask in masks]  # specificity: subset-tag size
    by_size = [(i, sum(1 << s for s, n in enumerate(sizes) if n == i)) for i in sorted(set(sizes))]
    reports = []
    for (q, a), table in tables.items():
        if not diff[a] >> q & 1:
            table.pop(r, None)
        examined, winner = [], None
        for i, sized in by_size:
            for l, candidates in table.items():
                hit = sized & candidates
                if hit:
                    examined.append(((i, l), frozenset(bits(hit))))
                    if winner is None and hit & (hit - 1) == 0:
                        winner = (hit.bit_length() - 1, i, l)
            if winner is not None:
                break
        reports.append(ResyncReport(q, tracker.alphabet.symbols[a], *winner, tuple(examined)))
    return tuple(reports)


def build_filter(domains: Sequence[Domain]) -> Transducer:
    """Complete filter: every tracker arc labeled with its target's
    domain, and a break to the resync target for every forbidden
    (state, letter) pair.  Break codes go by first use in (state, letter)
    order."""
    tracker = build_tracker(domains)
    reports = resync(tracker)
    k = len(tracker.step)
    labels = [label_code(doms) for doms in tracker.state_domains]
    jumps = iter(reports)  # one per forbidden pair, in (state, letter) order
    breaks: dict[tuple[int, int], int] = {}  # (source, target) -> code
    nxt: list[int] = []
    code: list[int] = []
    for s in range(len(tracker.masks)):
        for row in tracker.step:
            d = row[s]
            if d is None:
                d = next(jumps).target
                code.append(breaks.setdefault((s, d), -len(breaks) - 1))
            else:
                code.append(labels[d])
            nxt.append(d * k)
    return Transducer(
        alphabet=tracker.alphabet,
        start=0,
        next=tuple(nxt),
        code=tuple(code),
        breaks=tuple(breaks),
        domain_count=len(tracker.domains),
        state_tags=tuple(frozenset(bits(mask)) for mask in tracker.masks),
        resync_reports=reports,
    )


def symbol_code(symbol: OutputSymbol) -> int:
    """Integer wire code: positive = domain index, 0 = ambiguity, -1 =
    break.  Break identity is not kept: stack and two-pass outputs have
    none, and a filter's own runs read its codes off its table."""
    if isinstance(symbol, DomainLabel):
        return symbol.index
    if isinstance(symbol, Ambiguous):
        return 0
    if isinstance(symbol, DomainBreak):
        return -1
    raise ValueError(f"not an output symbol: {symbol!r}")


def _lap(nxt: Sequence[int], state: int, symbols: Sequence[int]) -> int:
    """The state a walk over ``nxt`` reaches from ``state``, with no output."""
    for a in symbols:
        state = nxt[state + a]
    return state


def _walk(nxt: Sequence[int], out: Sequence, state: int, symbols: Sequence[int], push) -> int:
    """Push each step's ``out`` entry on a walk over ``nxt`` from ``state``;
    return the state reached."""
    for a in symbols:
        i = state + a
        push(out[i])
        state = nxt[i]
    return state


def walk_lanes(t: Transducer, rows: Sequence[bytes]) -> list[bytes]:
    """Wire codes of one circular run per row, as circular ``walk_codes``
    gives them, each code as its byte ``code mod 256``.  The rows are
    ``bytes`` of symbol indices, all of one width; the table must fit a
    byte (``len(t.next) <= 256``).

    Every row is one byte lane, walked one column a step: one lane sum of
    the states (times k) and the column's symbols gives every row's arc
    index, which cannot carry past its byte, and one ``translate`` each
    reads the next states and the codes off the table.  The warm-up lap,
    as in circular ``walk_codes``, reads next states only.
    """
    count, width = len(rows), len(rows[0])
    flat = b"".join(rows)
    columns = [int.from_bytes(flat[j::width], "little") for j in range(width)]
    nxt = bytes(t.next).ljust(256, b"\0")
    out = bytes(c % 256 for c in t.code).ljust(256, b"\0")
    state = int.from_bytes(bytes([t.start * len(t.alphabet)]) * count, "little")
    for column in columns:
        state = int.from_bytes((state + column).to_bytes(count, "little").translate(nxt), "little")
    codes = []
    for column in columns:
        arcs = (state + column).to_bytes(count, "little")
        codes.append(arcs.translate(out))
        state = int.from_bytes(arcs.translate(nxt), "little")
    flat = b"".join(codes)  # column by column, so row i is every count-th byte from i
    return [flat[i::count] for i in range(count)]


def walk_codes(t: Transducer, symbols: Sequence[int], circular: bool = False) -> list[int]:
    """Wire codes of one run over symbol indices (each in ``0..k-1``): one
    table lookup per letter, as every (state, letter) has its arc.

    Circular mode first walks the string once without output (the
    warm-up lap), then records the second lap.
    """
    state = t.start * len(t.alphabet)
    if circular:
        state = _lap(t.next, state, symbols)
    out: list[int] = []
    _walk(t.next, t.code, state, symbols, out.append)
    return out


# Diagrams of at least LANE_ROWS rows walk the filter with all rows as byte
# lanes (``walk_lanes``), shorter ones row by row (``walk_codes``): one
# column of lanes costs about as much as 12 letters of row walk.  Measured
# in-process on rule-110 diagrams (width x rows) with the 27-state rule-110
# filter, best of 5 x 200 runs on a 2-core VM under CPython 3.11, rows then
# lanes: 256x4 0.071 / 0.188 ms, 256x8 0.144 / 0.204, 256x12 0.212 / 0.214,
# 256x16 0.269 / 0.220, 128x32 0.303 / 0.132 and 100x100 0.741 / 0.180 ms.
# Bidi keeps 12, though its lanes win from about 3 rows (256x4: 0.66 / 0.40 ms):
# perfbench's smoke test counts ca-rule110 breaks from its 10-row bidi diagram.
LANE_ROWS = 12


def _lanes_fit(t: Transducer, rows: Sequence) -> bool:
    """Whether ``walk_lanes`` runs ``t`` over ``rows``: at least
    ``LANE_ROWS`` rows of ``bytes``, a table that fits a byte and codes
    whose bytes each name one code."""
    return (
        len(rows) >= LANE_ROWS
        and isinstance(rows[0], bytes)
        and len(t.next) <= 256
        and max(t.code) + len(t.breaks) < 256
    )


def circular_codes(t: Transducer, rows: Sequence[Sequence[int]]) -> tuple[bytes | tuple[int, ...], ...]:
    """Wire codes of one circular run per row of symbol indices, all of one
    width: ``walk_lanes``' byte rows where ``_lanes_fit``, else one tuple
    per row from ``walk_codes``."""
    if _lanes_fit(t, rows):
        return tuple(walk_lanes(t, rows))
    return tuple(tuple(walk_codes(t, row, circular=True)) for row in rows)


# A b-letter block table holds S*k**b entries, and a run of n letters takes
# blocks of b letters only where it holds at most n / BLOCK_LETTERS_PER_ENTRY
# of them, so building it costs a small share of the walk it shortens.
# Measured in-process with the 27-state rule-110 filter (k = 2, CSV texts,
# best of 40-200 runs on a 2-core VM under CPython 3.11): over 20 000 noise
# letters the one-letter walk took 1.70 ms, b = 2 0.96 ms, b = 4 0.74 ms
# (its 432-entry table built in the 0.26 ms included) and b = 8 1.44 ms
# (1.7 ms of table); over 2000 letters b = 4 took 0.21 ms against 0.17 ms.
BLOCK_LETTERS_PER_ENTRY = 32


def block_length(n: int, state_count: int, k: int) -> int:
    """Letters per block for a run of ``n`` letters: the largest b in 1, 2,
    4, 8 whose block index fits a byte (k**b <= 256) and whose table of
    ``state_count * k**b`` entries holds at most n / BLOCK_LETTERS_PER_ENTRY.
    A one-letter alphabet keeps b = 1: its blocks all have index 0, so the
    table cannot grow past one letter per entry."""
    b = 1
    while b < 8 and k > 1 and k ** (2 * b) <= 256 and BLOCK_LETTERS_PER_ENTRY * state_count * k ** (2 * b) <= n:
        b *= 2
    return b


def _block_table(
    t: Transducer, texts: Sequence[str], sep: str, b: int
) -> tuple[list[int], list[str]]:
    """The filter composed with itself over b-letter blocks (b a power of
    two): entry ``state*k**b + block``, whose index reads the block's
    letters as base-k digits, first letter highest, holds the target state
    times k**b and the block's per-arc ``texts`` joined by ``sep``.  Built
    by doubling the block length from the one-letter table."""
    k = size = len(t.alphabet)
    nxt, out = [d // k for d in t.next], list(texts)  # unscaled targets, while the table grows
    while size < k**b:
        grown_next: list[int] = []
        grown_out: list[str] = []
        for i in range(len(nxt)):  # entry i = state*size + first half, then every second half
            mid, head = nxt[i] * size, out[i] + sep
            grown_next += nxt[mid : mid + size]
            grown_out += [head + tail for tail in out[mid : mid + size]]
        nxt, out, size = grown_next, grown_out, size * size
    return [d * size for d in nxt], out


def walk_text(t: Transducer, sigma: str | Sequence[str], mode: str, texts: Sequence[str], sep: str) -> str:
    """The per-arc ``texts`` of a run in ``mode``, one per letter, joined
    by ``sep``, walked ``block_length`` letters at a time.  Over b > 1, one
    lane sum over the symbol bytes (``k**b <= 256``, so no lane carries)
    gives every block's index into ``_block_table``, and the one-letter
    walk reads the last n mod b letters from the state the blocks reach;
    over b = 1 the blocks are the letters and the table is the filter's.
    Circular mode's warm-up lap reads next states only."""
    symbols = _encode(t, sigma, mode)
    n, k = len(symbols), len(t.alphabet)
    b = block_length(n, t.state_count, k)
    size, m = k**b, n - n % b
    nxt, out, blocks, tail = t.next, texts, symbols, symbols[m:]  # b = 1: the filter's own table
    if b > 1:
        nxt, out = _block_table(t, texts, sep, b)
        lanes = 0
        for j in range(b):  # lane j holds letter j of every block
            lanes = lanes * k + int.from_bytes(symbols[j:m:b], "little")
        blocks = lanes.to_bytes(m // b, "little")
    state = t.start * size
    if mode == "circular":
        state = _lap(t.next, _lap(nxt, state, blocks) // size * k, tail) // k * size
    cells: list[str] = []
    state = _walk(nxt, out, state, blocks, cells.append)
    _walk(t.next, texts, state // size * k, tail, cells.append)
    return sep.join(cells)


def _encode(t: Transducer, sigma: str | Sequence[str], mode: str) -> Sequence[int]:
    """The symbol indices of a string to run in ``mode``."""
    if mode not in ("linear", "circular"):
        raise ValueError(f"bad mode {mode!r}")
    symbols = t.alphabet.encode(sigma)
    if mode == "circular" and not symbols:
        raise ValueError("circular mode needs a non-empty string")
    return symbols


def transduce_codes(t: Transducer, sigma: str | Sequence[str], mode: str = "linear") -> list[int]:
    """Run the filter over a string: one wire code per input letter."""
    return walk_codes(t, _encode(t, sigma, mode), mode == "circular")


def transduce(
    t: Transducer, sigma: str | Sequence[str], mode: str = "linear"
) -> list[OutputSymbol]:
    """Run the filter over a string, one output symbol per input letter.

    Circular mode reads the string twice from the start state and keeps
    only the second pass, so the state has synchronized to the periodic
    content before any output is recorded.  The symbols are the filter's
    shared output objects, one per wire code.
    """
    return list(map(t.symbols.__getitem__, transduce_codes(t, sigma, mode)))


def bidirectional(
    filters: tuple[Transducer, Transducer],
    sigma: str | Sequence[str],
    mode: str = "linear",
) -> list[OutputSymbol]:
    """Combine a left-to-right and a right-to-left pass of the
    (forward, backward) filters, as ``bidirectional_filters`` builds them.

    Per position, in this order: the forward pass's break, the backward
    pass's break, a break inside a gap, the domain label both passes share,
    and the ambiguity mark.  A backward break opens a gap and the next
    forward break closes it: the cells between them sit inside a defect
    that neither pass saw whole.  A gap still open at the end stays
    unfilled in linear mode and wraps around to the first forward break in
    circular mode.
    """
    forward_t, backward_t = filters
    forward = transduce(forward_t, sigma, mode)
    backward = transduce(backward_t, sigma[::-1], mode)[::-1]
    combined: list[OutputSymbol] = []
    first = gap = None  # the first forward break; where the open gap starts

    def fill(lo: int, hi: int | None) -> None:
        combined[lo:hi] = [o if o.__class__ is DomainBreak else _GAP for o in combined[lo:hi]]

    for i, (fwd, bwd) in enumerate(zip(forward, backward)):
        if fwd.__class__ is DomainBreak:
            if gap is not None:
                fill(gap, None)
                gap = None
            if first is None:
                first = i
            combined.append(fwd)
        elif bwd.__class__ is DomainBreak:
            if gap is None:
                gap = i
            combined.append(bwd)
        else:
            combined.append(fwd if fwd == bwd else AMBIGUOUS)
    if gap is not None and first is not None and mode == "circular":
        fill(gap, None)
        fill(0, first)
    return combined


def bidirectional_filters(domains: Sequence[Domain]) -> tuple[Transducer, Transducer]:
    reversed_domains = [reverse_domain(d) for d in domains]
    return build_filter(domains), build_filter(reversed_domains)


# tables over the two passes' bytes (see ``_bidi_lanes``)
_SAME = bytes([255]).ljust(256, b"\0")  # a zero byte of their XOR: both passes agree
_FLAG = bytes([0, 1, 2, 2]).ljust(256, b"\0")  # a forward break, where both passes break
_OPEN = bytes([255, 255]).ljust(256, b"\0")  # no forward break: a gap carries on
_START = bytes([0, 1]).ljust(256, b"\0")  # a backward-only break opens a gap
_MARKED = bytes([0]).ljust(256, b"\xff")  # a break or a gap


def _bidi_lanes(filters: tuple[Transducer, Transducer], rows: list[bytes]) -> list[bytes]:
    """The circular two-pass codes of ``bidirectional`` for every row, as
    bytes of ``code mod 256`` with one break code (byte 255).

    Each pass walks all rows as byte lanes, the backward one over the
    reversed rows, and whole-diagram integer and ``translate`` operations
    combine them: a break in either pass is a break, a label both passes
    share stays, and anything else is ambiguity.  A flag row marks each
    backward-only break 1 and each forward break 2; turned to end at its
    last forward break, every gap, the one that wraps round the row's end
    included, runs from a 1 up to the next 2, and one big-int sum fills
    all of them: a 1 added to a run of 255s (no forward break) carries
    through it up to the next forward break, zeroing every byte on its
    way.  A row with no forward break has no gap.
    """
    forward_t, backward_t = filters
    width, size = len(rows[0]), len(rows) * len(rows[0])
    offsets = range(0, size, width)
    flat = b"".join(rows)[::-1]  # every row reversed, the rows in reverse order
    backward = b"".join(walk_lanes(backward_t, [flat[i : i + width] for i in offsets]))[::-1]
    labels, flags = [], 0
    for t, coded, flag in ((forward_t, b"".join(walk_lanes(forward_t, rows)), 2), (backward_t, backward, 1)):
        b = len(t.breaks)  # label bytes stay and break bytes become 255; a break flags its pass
        labels.append(int.from_bytes(coded.translate(bytes(range(256 - b)) + b"\xff" * b), "little"))
        flags |= int.from_bytes(coded.translate(bytes(256 - b) + bytes([flag]) * b), "little")
    forward, backward = labels
    flags = flags.to_bytes(size, "little").translate(_FLAG)
    turned, cuts = [], []  # each row turned to end at its last forward break, blank with none
    for i in offsets:
        row = flags[i : i + width]
        cuts.append(cut := row.rfind(2) + 1)
        turned.append(row[cut:] + row[:cut] if cut else bytes(width))
    flat = b"".join(turned)
    run = int.from_bytes(flat.translate(_OPEN), "little")
    flat = (run & ~(run + int.from_bytes(flat.translate(_START), "little"))).to_bytes(size, "little")  # the gaps
    gaps = b"".join(  # each row turned back
        [flat[i + width - cut : i + width] + flat[i : i + width - cut] for i, cut in zip(offsets, cuts)]
    )
    marked = (int.from_bytes(gaps, "little") | int.from_bytes(flags, "little")).to_bytes(size, "little")
    same = (forward ^ backward).to_bytes(size, "little").translate(_SAME)
    out = forward & int.from_bytes(same, "little") | int.from_bytes(marked.translate(_MARKED), "little")
    out = out.to_bytes(size, "little")
    return [out[i : i + width] for i in offsets]


def bidi_circular_codes(filters: tuple[Transducer, Transducer], rows: Sequence[Sequence[int]]) -> tuple:
    """``circular_codes`` for ``bidirectional``'s combination, every break
    -1: ``_bidi_lanes`` where both filters fit and at most 254 labels leave
    the break byte 255 free, else per-row ``bidirectional``."""
    if filters[0].domain_count <= 254 and all(_lanes_fit(t, rows) for t in filters):
        return tuple(_bidi_lanes(filters, rows))
    tokens = list(filters[0].alphabet.symbols)  # a bound list __getitem__ calls faster than a tuple's
    passes = (bidirectional(filters, list(map(tokens.__getitem__, row)), "circular") for row in rows)
    return tuple(tuple(map(symbol_code, out)) for out in passes)
