"""Reference checks for every timed CLI output.

Each check recomputes the expected output without the code path under
test: ``run`` and ``ca-filter --method transducer`` by walking the
``.tdx`` transition lines, ``run --bidi`` and ``ca-filter --method bidi``
by combining two such walks, ``stack`` with the brute oracle of
``tests/helpers.py`` on short strings and a direct longest-extension scan
on long ones, ``ca`` by re-evolving the rule.  Built filters are checked
for completeness and a load/save round trip.  ``ca-filter --method stack``
has no independent reference; its pixels are checked for shape and
palette, and its bytes against the recorded digest at the default seed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from pathlib import Path

BRUTE_MAX_LEN = 64
_MASK64 = (1 << 64) - 1


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class DomainDef:
    """A domain as written to a ``.dom`` file: a cycle word, or explicit
    states and (source, letter, target) transitions.  All states are start
    and final."""

    name: str
    word: str | None = None
    states: tuple[str, ...] = ()
    trans: tuple[tuple[str, str, str], ...] = ()

    def table(self) -> dict[tuple[str, str], str]:
        if self.word is not None:
            n = len(self.word)
            return {(str(i), tok): str((i + 1) % n) for i, tok in enumerate(self.word)}
        return {(s, tok): d for (s, tok, d) in self.trans}


def dom_text(defs, reverse: bool = False) -> str:
    lines = ["alphabet 0 1"]
    for d in defs:
        if d.word is not None:
            lines.append(f"domain {d.name} cyclic {d.word[::-1] if reverse else d.word}")
            continue
        lines += [f"domain {d.name}", "  state " + " ".join(d.states)]
        for (s, tok, t) in d.trans:
            lines.append(f"  trans {t} {tok} {s}" if reverse else f"  trans {s} {tok} {t}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def _expect(got: bytes, want: str, what: str):
    if got != want.encode():
        raise CheckError(f"{what}: output differs from the reference")


# --- .tdx ---------------------------------------------------------------


@dataclass
class Tdx:
    symbols: tuple[str, ...]
    states: int
    start: int
    domains: int
    arcs: dict[tuple[int, str], tuple[str, int]]  # (state, letter) -> (code, target)


def parse_tdx(text: str) -> Tdx:
    head: dict[str, list[str]] = {}
    arcs: dict[tuple[int, str], tuple[str, int]] = {}
    breaks = set()
    try:
        for line in text.splitlines():
            f = line.split()
            if f[0] == "trans":
                key = (int(f[1]), f[2])
                if key in arcs:
                    raise CheckError(f"tdx: two transitions for {key}")
                arcs[key] = (f[3], int(f[4]))
            elif f[0].startswith("brk"):
                breaks.add(f[0])
            else:
                head[f[0]] = f[1:]
        t = Tdx(tuple(head["alphabet"]), int(head["states"][0]), int(head["start"][0]), int(head["domains"][0]), arcs)
    except (KeyError, IndexError, ValueError):
        raise CheckError("tdx: malformed file") from None
    for s in range(t.states):
        for tok in t.symbols:
            code, target = arcs.get((s, tok), ("", -1))
            if not 0 <= target < t.states:
                raise CheckError(f"tdx: state {s} on {tok!r} has no valid target")
            if code.startswith("brk") and code not in breaks:
                raise CheckError(f"tdx: undeclared break code {code}")
    if len(arcs) != t.states * len(t.symbols):
        raise CheckError("tdx: transitions outside the declared states")
    return t


def check_tdx(out: bytes):
    from apdfilter.tdx import load_transducer, save_transducer

    text = out.decode()
    parse_tdx(text)
    t, digest = load_transducer(text)
    if save_transducer(t, domains_digest=digest) != text:
        raise CheckError("tdx: load/save round trip changed the file")


def walk(t: Tdx, tokens: str, circular: bool) -> list[str]:
    """Output codes (``d<i>``, ``lam``, ``brk<j>``) of one pass; circular
    mode reads the string twice and keeps the second lap."""
    state = t.start
    codes: list[str] = []
    for _lap in range(2 if circular else 1):
        codes = []
        for tok in tokens:
            code, state = t.arcs[(state, tok)]
            codes.append(code)
    return codes


def wire_code(code: str) -> int:
    if code == "lam":
        return 0
    if code.startswith("brk"):
        return -int(code[3:])
    return int(code[1:])


def bidi_codes(fwd: Tdx, bwd: Tdx, tokens: str, circular: bool) -> list[int]:
    """Two-pass combination: a break where either pass breaks or inside a
    gap from a backward break to the next forward break, the shared label
    where both passes agree, ambiguity otherwise."""
    f = walk(fwd, tokens, circular)
    b = walk(bwd, tokens[::-1], circular)[::-1]
    n = len(tokens)
    out = []
    for cf, cb in zip(f, b):
        if cf.startswith("brk") or cb.startswith("brk"):
            out.append(-1)
        elif cf.startswith("d") and cf == cb:
            out.append(int(cf[1:]))
        else:
            out.append(0)
    fwd_breaks = [i for i, c in enumerate(f) if c.startswith("brk")]
    for start in (i for i, c in enumerate(b) if c.startswith("brk")):
        k = bisect.bisect_left(fwd_breaks, start)
        if k < len(fwd_breaks):
            end = fwd_breaks[k]
        elif circular and fwd_breaks:
            end = fwd_breaks[0] + n
        else:
            continue
        for p in range(start, end + 1):
            out[p % n] = -1
    return out


def _read_tdx(path: Path) -> Tdx:
    return parse_tdx(path.read_text())


def check_run(out: bytes, tdx: Path, text: str):
    codes = walk(_read_tdx(tdx), text, circular=False)
    _expect(out, ",".join(str(wire_code(c)) for c in codes) + "\n", "run")


def check_bidi(out: bytes, tdx: Path, rev: Path, text: str):
    codes = bidi_codes(_read_tdx(tdx), _read_tdx(rev), text, circular=False)
    _expect(out, ",".join(map(str, codes)) + "\n", "run --bidi")


# --- stack --------------------------------------------------------------


def longest_extensions(defs, text: str) -> list[int]:
    """E[a] = last 1-based index b with text[a..b] accepted by some domain
    (a - 1 when not even one letter is), by direct subset simulation."""
    tables = [d.table() for d in defs]
    starts = frozenset((k, s) for k, tab in enumerate(tables) for (s, _tok) in tab)
    n = len(text)
    ext = [0] * (n + 2)
    for a in range(1, n + 1):
        cur = starts
        b = a - 1
        while b < n and cur:
            tok = text[b]
            cur = frozenset((k, tables[k][(s, tok)]) for (k, s) in cur if (s, tok) in tables[k])
            if cur:
                b += 1
        ext[a] = b
    return ext


def maximal_cover(defs, text: str) -> list[tuple[int, int]]:
    """Domains are factor-closed, so text[a..E[a]] is maximal iff it is
    nonempty and E[a-1] < E[a]."""
    ext = longest_extensions(defs, text)
    return [
        (a, ext[a])
        for a in range(1, len(text) + 1)
        if ext[a] >= a and (a == 1 or ext[a - 1] < ext[a])
    ]


def check_stack(out: bytes, defs, text: str):
    if len(text) <= BRUTE_MAX_LEN:
        from helpers import brute_maximal_cover

        from apdfilter.domspec import parse_domain_spec

        domains = [pd.domain for pd in parse_domain_spec(dom_text(defs))[1]]
        cover = brute_maximal_cover(domains, text)
    else:
        cover = maximal_cover(defs, text)
    _expect(out, "\n".join(f"{a},{b}" for (a, b) in cover) + "\n", "stack")


# --- cellular automata ---------------------------------------------------


def splitmix_row(width: int, seed: int) -> list[int]:
    state = seed & _MASK64
    row = []
    for _ in range(width):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        row.append((z ^ (z >> 31)) & 1)
    return row


def elementary_rows(rule: int, width: int, steps: int, seed: int) -> list[list[int]]:
    rows = [splitmix_row(width, seed)]
    for _ in range(steps):
        prev = rows[-1]
        rows.append([
            (rule >> (4 * prev[i - 1] + 2 * prev[i] + prev[(i + 1) % width])) & 1
            for i in range(width)
        ])
    return rows


def check_ca(out: bytes, rule: int, width: int, steps: int, seed: int):
    rows = elementary_rows(rule, width, steps, seed)
    _expect(out, "\n".join("".join(map(str, r)) for r in rows) + "\n", "ca")


def _diagram_rows(path: Path) -> list[str]:
    return [line.strip() for line in path.read_text().splitlines() if line.strip()]


def gray(code: int, domain_count: int) -> int:
    if code > 0:
        return 255 - 160 * (code - 1) // max(1, domain_count - 1)
    return 128 if code == 0 else 0


def pgm(grid: list[list[int]]) -> str:
    lines = ["P2", f"{len(grid[0])} {len(grid)}", "255"]
    lines += [" ".join(map(str, row)) for row in grid]
    return "\n".join(lines) + "\n"


def check_ca_transducer(out: bytes, tdx: Path, diagram: Path):
    t = _read_tdx(tdx)
    grid = [
        [gray(wire_code(c), t.domains) for c in walk(t, row, circular=True)]
        for row in _diagram_rows(diagram)
    ]
    _expect(out, pgm(grid), "ca-filter --method transducer")


def check_ca_bidi(out: bytes, tdx: Path, rev: Path, diagram: Path, domain_count: int):
    fwd, bwd = _read_tdx(tdx), _read_tdx(rev)
    grid = [
        [gray(c, domain_count) for c in bidi_codes(fwd, bwd, row, circular=True)]
        for row in _diagram_rows(diagram)
    ]
    _expect(out, pgm(grid), "ca-filter --method bidi")


def check_ca_stack(out: bytes, diagram: Path, domain_count: int):
    rows = _diagram_rows(diagram)
    lines = out.decode().splitlines()
    if lines[:3] != ["P2", f"{len(rows[0])} {len(rows)}", "255"] or len(lines) != len(rows) + 3:
        raise CheckError("ca-filter --method stack: bad PGM header or height")
    allowed = {gray(c, domain_count) for c in range(-1, domain_count + 1)}
    for line in lines[3:]:
        values = [int(v) for v in line.split()]
        if len(values) != len(rows[0]) or not set(values) <= allowed:
            raise CheckError("ca-filter --method stack: bad PGM row")
