"""Gray-level rendering of diagrams.

A filtered diagram's wire codes shade themselves (``gray``): domain
labels spread over light grays (domain 1 is white), every break is
black, ambiguity is mid gray.  Raw diagrams render with 0 white and the
highest symbol black, matching the usual space-time convention.  The
CSV wire code, ``symbol_code``, lives with the filter transducer in
``transducer`` and is re-exported here.
"""

from __future__ import annotations

from .ca import CodedDiagram, SpaceTimeDiagram
from .transducer import symbol_code  # noqa: F401  (re-exported: the CSV wire code)


def gray(code: int, domain_count: int) -> int:
    """Shade of one wire code out of ``domain_count`` domains."""
    if code > 0:
        return 255 - 160 * (code - 1) // max(1, domain_count - 1)
    return 128 if code == 0 else 0


def emit_pgm(diagram: CodedDiagram | SpaceTimeDiagram) -> bytes:
    """Plain (P2) PGM; byte-identical output for identical input.

    A filtered diagram is shaded per code in its range, not per cell."""
    if isinstance(diagram, CodedDiagram):
        n = diagram.domain_count
        shade = {c: str(gray(c, n)) for c in diagram.code_range}
        grid = [list(map(shade.__getitem__, row)) for row in diagram.codes]
    else:
        top = diagram.k - 1
        grid = [[str(255 - v * 255 // top) for v in row] for row in diagram.rows]
    height = len(grid)
    width = len(grid[0]) if grid else 0
    if not height or not width:
        raise ValueError("empty grid")
    lines = ["P2", f"{width} {height}", "255"]
    lines.extend(" ".join(row) for row in grid)
    return ("\n".join(lines) + "\n").encode("ascii")


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
