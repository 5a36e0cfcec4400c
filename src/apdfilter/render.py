"""Gray-level rendering of diagrams.

A filtered diagram's wire codes shade themselves (``gray``): domain
labels spread over light grays (domain 1 is white), every break is
black, ambiguity is mid gray.  Raw diagrams render with 0 white and the
highest symbol black, matching the usual space-time convention.  The
CSV wire code, ``symbol_code``, lives with the filter transducer in
``transducer`` and is re-exported here.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .ca import CodedDiagram, SpaceTimeDiagram
from .transducer import symbol_code  # noqa: F401  (re-exported: the CSV wire code)


def gray(code: int, domain_count: int) -> int:
    """Shade of one wire code out of ``domain_count`` domains."""
    if code > 0:
        return 255 - 160 * (code - 1) // max(1, domain_count - 1)
    return 128 if code == 0 else 0


def code_texts(text: Callable[[int], str], domain_count: int, break_count: int) -> list[str]:
    """``text(c)`` at list index c for every wire code c (breaks, below 0, from the end)."""
    return [text(c) for c in (*range(domain_count + 1), *range(-break_count, 0))]


def plain_pgm(lines: Sequence[str], width: int) -> bytes:
    """Plain (P2) PGM of rows of ``width`` space-separated gray levels."""
    if not lines or not width:
        raise ValueError("empty grid")
    return "\n".join(["P2", f"{width} {len(lines)}", "255", *lines, ""]).encode("ascii")


def emit_pgm(diagram: CodedDiagram | SpaceTimeDiagram) -> bytes:
    """Plain (P2) PGM; byte-identical output for identical input.

    Every cell indexes one list of shade texts, one per code or symbol."""
    if isinstance(diagram, CodedDiagram):
        n, rows = diagram.domain_count, diagram.codes
        shade = code_texts(lambda c: str(gray(c, n)), n, diagram.break_count)
    else:
        shade, rows = [str(255 - v * 255 // (diagram.k - 1)) for v in range(diagram.k)], diagram.rows
    return plain_pgm([" ".join(map(shade.__getitem__, row)) for row in rows], len(rows[0]) if rows else 0)


def parse_pgm(data: bytes) -> list[list[int]]:
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
