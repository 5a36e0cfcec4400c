"""Gray-level rendering of diagrams.

A filtered diagram's wire codes shade themselves (``gray``): domain
labels spread over light grays (domain 1 is white), every break is
black, ambiguity is mid gray.  Raw diagrams render with 0 white and the
highest symbol black, matching the usual space-time convention.  The
writers share one row loop.  The CSV wire code, ``symbol_code``, lives
with the filter transducer in ``transducer`` and is re-exported here on
first use (PEP 562), so rendering loads no transducer code.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from .ca import CodedDiagram, SpaceTimeDiagram


def __getattr__(name: str):
    if name != "symbol_code":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .transducer import symbol_code

    globals()[name] = symbol_code  # later lookups skip this hook
    return symbol_code


def gray(code: int, domain_count: int) -> int:
    """Shade of one wire code out of ``domain_count`` domains."""
    if code > 0:
        return 255 - 160 * (code - 1) // max(1, domain_count - 1)
    return 128 if code == 0 else 0


def code_texts(text: Callable[[int], str], top: int, break_count: int) -> list[str]:
    """``text(c)`` at list index c for every wire code c from 0 up to label
    ``top`` (breaks, below 0, from the end), padded to at least 256 entries,
    so that a code's byte ``c mod 256`` indexes its text too where
    ``top + break_count < 256``."""
    labels = list(map(text, range(max(top, 0) + 1)))
    breaks = list(map(text, range(-break_count, 0)))
    return labels + [""] * (256 - len(labels) - len(breaks)) + breaks


def diagram_texts(text: Callable[[int], str], diagram: CodedDiagram) -> list[str]:
    """``code_texts`` for a coded diagram, up to its domain count, or up to
    a smaller bound on its labels: ``255 - break_count`` on byte rows, and
    its largest code where the count passes its cell count.  So a declared
    count costs at most one pass over the cells, never a table of its size."""
    top, b, rows = diagram.domain_count, diagram.break_count, diagram.rows
    if rows and isinstance(rows[0], bytes):
        top = min(top, 255 - b)
    if top > sum(map(len, rows)):
        top = max(chain.from_iterable(diagram.codes), default=0)
    return code_texts(text, top, b)


def plain_pgm(lines: Sequence[str], width: int) -> bytes:
    """Plain (P2) PGM of rows of ``width`` space-separated gray levels."""
    if not lines or not width:
        raise ValueError("empty grid")
    return "\n".join(["P2", f"{width} {len(lines)}", "255", *lines, ""]).encode("ascii")


def _lines(texts: list[str], rows, sep: str) -> list[str]:
    """One line per row: each cell's text, at its code or symbol, ``sep`` between."""
    return [sep.join(map(texts.__getitem__, row)) for row in rows]


def emit_pgm(diagram: CodedDiagram | SpaceTimeDiagram) -> bytes:
    """Plain (P2) PGM; byte-identical output for identical input.

    Every cell indexes one list of shade texts, one per code or symbol."""
    from .ca import CodedDiagram  # here, so that ``run`` does not load the CA layer

    if isinstance(diagram, CodedDiagram):
        n, rows = diagram.domain_count, diagram.rows
        shade = diagram_texts(lambda c: str(gray(c, n)), diagram)
    else:
        top = max(1, diagram.k - 1)  # a one-symbol diagram is all white
        shade, rows = [str(255 - v * 255 // top) for v in range(diagram.k)], diagram.rows
    return plain_pgm(_lines(shade, rows, " "), len(rows[0]) if rows else 0)


def emit_csv(diagram: CodedDiagram) -> str:
    """One line of wire codes per row, each cell indexing one list of code texts."""
    return "\n".join(_lines(diagram_texts(str, diagram), diagram.rows, ",")) + "\n"
