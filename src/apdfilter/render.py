"""Gray-level rendering of diagrams.

Domain labels spread over light grays (domain 1 is white), breaks are
black, ambiguity is mid gray.  Raw diagrams render with 0 white and the
highest symbol black, matching the usual space-time convention.  The
CSV wire code, ``symbol_code``, lives with the filter transducer in
``transducer`` and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ca import CodedDiagram, SpaceTimeDiagram
from .transducer import Ambiguous, DomainBreak, DomainLabel, OutputSymbol
from .transducer import symbol_code  # noqa: F401  (re-exported: the CSV wire code)


@dataclass(frozen=True)
class RenderPalette:
    domain_count: int

    def gray(self, symbol: OutputSymbol) -> int:
        if isinstance(symbol, DomainLabel):
            spread = 160 * (symbol.index - 1) // max(1, self.domain_count - 1)
            return 255 - spread
        if isinstance(symbol, DomainBreak):
            return 0
        if isinstance(symbol, Ambiguous):
            return 128
        raise ValueError(f"not an output symbol: {symbol!r}")


def emit_pgm(
    diagram: CodedDiagram | SpaceTimeDiagram,
    palette: RenderPalette | None = None,
) -> bytes:
    """Plain (P2) PGM; byte-identical output for identical input.

    A filtered diagram is shaded per distinct code, not per cell."""
    if isinstance(diagram, CodedDiagram):
        if palette is None:
            raise ValueError("filtered diagrams need a palette")
        shade = {c: str(palette.gray(s)) for c, s in diagram.symbols.items()}
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
