"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 domain or filter construction
error (parse failures, invariant violations, CA rule tables or diagrams
over their size limits) or a file that cannot be read or written.
"""

# Each command imports the package functions it calls, so a call loads only
# the modules it runs.  An import inside a function reads the module's name
# at call time, so code that rebinds a module attribute still reaches here.

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ca import SpaceTimeDiagram
    from .domspec import ParsedDomain


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _check_value(self, action, value):  # argparse's own message echoes the whole value
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_clip(value)!r} (choose from {choices})")


def _clip(field: object) -> str:
    """``automata.clip``, imported when an error line needs it, so that
    importing ``cli`` loads no filter module."""
    from .automata import clip

    return clip(field)


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _read_input(value: str) -> str:
    if value.startswith("@"):
        return _read_text(value[1:]).strip()
    return value


def _load_domains(path: str) -> tuple[str, list[ParsedDomain]]:
    from .domspec import parse_domain_spec

    text = _read_text(path)
    _alphabet, parsed = parse_domain_spec(text)
    return text, parsed


def _write(path: str | None, data: str | bytes):
    if isinstance(data, str):
        data = data.encode()
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)


def _split_to_parsed(split_domains, originals) -> list[ParsedDomain]:
    from .domspec import ParsedDomain

    out = []
    for sd, pd in zip(split_domains, originals):
        names = tuple(
            f"{pd.state_names[s]}.{j}" for (s, j) in sd.members
        )
        out.append(ParsedDomain(name=pd.name, domain=sd.domain, state_names=names))
    return out


def _cmd_build(args) -> int:
    from .domspec import spec_digest
    from .tdx import save_transducer
    from .transducer import build_filter

    text, parsed = _load_domains(args.domains)
    domains = [pd.domain for pd in parsed]
    if args.optimize:
        from .optimizer import optimize

        domains = [sd.domain for sd in optimize(domains)]
    t = build_filter(domains)
    _write(args.output, save_transducer(t, domains_digest=spec_digest(text)))
    return 0


def _cmd_optimize(args) -> int:
    from .domspec import format_domain_spec
    from .optimizer import optimize

    _text, parsed = _load_domains(args.domains)
    split = optimize([pd.domain for pd in parsed])
    before = sum(pd.domain.fa.state_count for pd in parsed)
    after = sum(sd.domain.fa.state_count for sd in split)
    out = format_domain_spec(
        parsed[0].domain.alphabet, _split_to_parsed(split, parsed), nonrecurrent=True
    )
    _write(args.output, out)
    print(f"states_before={before}, states_after={after}", file=sys.stderr)
    return 0


def _cmd_stack(args) -> int:
    from .automata import build_tracker
    from .stackfilter import filter_global, filter_local

    _text, parsed = _load_domains(args.domains)
    tracker = build_tracker([pd.domain for pd in parsed])
    sigma = _read_input(args.input)
    lines = []
    if args.periodic:
        cover = filter_global(tracker, sigma)
        lines.append(f"whole_string={'true' if cover.whole_string else 'false'}")
    else:
        cover = filter_local(tracker, sigma)
    lines.extend(f"{a},{b}" for (a, b) in cover.intervals)
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_run(args) -> int:
    from .render import code_texts, emit_csv, emit_pgm, gray, plain_pgm
    from .tdx import load_transducer

    t, digest = load_transducer(_read_text(args.filter))
    sigma = _read_input(args.input)
    mode, pgm = "circular" if args.circular else "linear", args.format == "pgm"
    if args.bidi:
        if not args.domains:
            raise UsageError("--bidi needs --domains (the reverse filter is built from them)")
        from .automata import reverse_domain
        from .ca import CodedDiagram
        from .domspec import spec_digest
        from .transducer import bidi_codes, build_filter

        text, parsed = _load_domains(args.domains)
        alphabet = parsed[0].domain.alphabet
        if set(alphabet.symbols) != set(t.alphabet.symbols) or len(parsed) != t.domain_count:
            # the two passes' labels would name different domain sets
            raise ValueError(
                f"--domains has {len(parsed)} domain(s) over {' '.join(alphabet.symbols)}, "
                f"the filter {t.domain_count} over {' '.join(t.alphabet.symbols)}"
            )
        reverse = build_filter([reverse_domain(pd.domain) for pd in parsed])
        labeled = CodedDiagram((bidi_codes((t, reverse), sigma, mode),), t.domain_count, 1)
        data = emit_pgm(labeled) if pgm else emit_csv(labeled)
        if digest is not None and spec_digest(text) != digest:  # after the run, so an error is the one line
            print("warning: filter was built from a different domain file", file=sys.stderr)
    else:  # one walk emits each letter's text straight from a per-arc text table, blocks at a time
        from .transducer import walk_text

        n = t.domain_count  # the shade spread; the texts run up to the largest label
        text = code_texts((lambda c: str(gray(c, n))) if pgm else str, max(t.code), len(t.breaks))
        row = walk_text(t, sigma, mode, list(map(text.__getitem__, t.code)), " " if pgm else ",")
        data = plain_pgm([row], len(sigma)) if pgm else row + "\n"  # a string is read one letter per character
    _write(args.output, data)
    return 0


def _integer(text: str) -> int:
    """An optional ``-`` and ASCII digits, of any length, as an int (``int``
    alone also reads other Unicode digits, ``+``, underscores and spaces)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{_clip(text)!r} is not an integer")
    return -_decimal(digits) if digits != text else _decimal(digits)


def _shown(init: str) -> str:
    """``--init`` as an error line echoes it: a file name whole, anything else cut short."""
    return init if init.startswith("@") else _clip(init)


def _parse_int(text: str, init: str) -> int:
    try:
        return _integer(text)
    except argparse.ArgumentTypeError as e:
        raise UsageError(f"bad --init {_shown(init)!r}: {e}") from None


def _parse_init(init: str, k: int, width: int | None) -> bytes:
    from .ca import FROM_TEXT, random_row

    if init.startswith("random:"):
        if width is None:
            raise UsageError("random initial conditions need --width")
        if width < 1:
            raise UsageError(f"--width {_clip(width)} is not a positive integer")
        seed = _parse_int(init.split(":", 1)[1], init)
        try:  # the row is allocated first: one that cannot be built fails before the generator runs
            return random_row(k, width, seed)
        except (MemoryError, OverflowError):
            raise UsageError(f"--width {_clip(width)}: the initial row does not fit in memory") from None
    if init.startswith("word:"):
        word, _, reps = init.split(":", 1)[1].partition("^")
        # argv holds undecodable bytes as surrogates; the digit check refuses them
        text = word.encode(errors="surrogateescape")
        if word and not text.isdigit():  # on bytes, only b"0".."9" are digits
            raise _not_digits(f"bad --init {_shown(init)!r}", text)
        row = text.translate(FROM_TEXT)
        count = _parse_int(reps, init) if reps else 1
        # both checks come before the repeat, whose row may not fit in memory
        if not row or count < 1:
            raise UsageError(f"bad --init {_shown(init)!r}: the initial row is empty")
        _check_symbols(row, k, init)
        if width is not None and width != len(row) * count:
            raise UsageError(f"--width {_clip(width)} does not match initial row length {_clip(len(row) * count)}")
        try:
            return row * count
        except (MemoryError, OverflowError):
            raise UsageError(f"bad --init {_shown(init)!r}: {_clip(len(row) * count)} cells do not fit in memory") from None
    if not init.startswith("@"):
        raise UsageError(f"bad --init {_shown(init)!r}; use random:SEED, word:W[^N], or @FILE")
    row, *more = _read_diagram(init[1:]).rows
    if more:
        raise UsageError(f"bad --init {_shown(init)!r}: the file holds {len(more) + 1} rows, not one")
    if width is not None and width != len(row):
        raise UsageError(f"--width {_clip(width)} does not match initial row length {len(row)}")
    _check_symbols(row, k, init)
    return row


def _check_symbols(row: bytes, k: int, init: str):
    if max(row) >= k:
        raise UsageError(f"bad --init {_shown(init)!r}: digit {max(row)} is not a symbol of k={k}")


def _cmd_ca(args) -> int:
    from .ca import TO_TEXT, evolve, rule_from_number

    if args.k > 10:
        raise UsageError("text output supports k up to 10")
    if args.steps < 0:
        raise UsageError(f"--steps {_clip(args.steps)} is negative")
    rule = rule_from_number(args.k, args.r, _rule_number(args.rule, args.k, args.r))
    row = _parse_init(args.init, args.k, args.width)
    diagram = evolve(rule, row, args.steps)
    # cells are 0..9 and the separator is byte 10, so one translate codes them all
    _write(args.output, b"\n".join(diagram.rows).translate(TO_TEXT) + b"\n")
    return 0


def _rule_number(text: str, k: int, r: int) -> int:
    """``--rule`` as a decimal integer.  Its digit count is checked against
    the rule table before it is converted, in halves down to pieces of at
    most 4000 digits, below Python's process-wide limit on int strings."""
    from .ca import table_size

    if not (text.isascii() and text.isdigit()):
        raise UsageError("--rule is not a non-negative decimal integer")
    digits = text.lstrip("0") or "0"
    # a number of d digits is at least 10**(d-1), and the table holds k**size
    if len(digits) - 1 > table_size(k, r) * math.log10(k):
        raise ValueError(f"rule number out of range for k={k}, r={r}")
    return _decimal(digits)


def _decimal(digits: str) -> int:
    if len(digits) <= 4000:
        return int(digits)
    low = len(digits) // 2
    return _decimal(digits[:-low]) * 10**low + _decimal(digits[-low:])


def _not_digits(where: str, text: bytes) -> UsageError:
    """The usage error of a row that is not ASCII digits."""
    return UsageError(f"{where}: {_clip(text.decode(errors='replace'))!r} is not a row of digits")


def _read_diagram(path: str) -> SpaceTimeDiagram:
    """One row per line (LF, CRLF or CR ends); blank lines are skipped.
    One check finds a cell that is no ASCII digit, and one ``translate``
    reads every row."""
    from .ca import FROM_TEXT, SpaceTimeDiagram

    lines = [line.strip() for line in Path(path).read_bytes().splitlines()]
    text = b"\n".join(filter(None, lines))
    if not text:
        raise UsageError(f"{path}: empty diagram")
    if text.translate(None, b"0123456789\n"):  # the first line that is no row of digits fails
        n, line = next((n, line) for n, line in enumerate(lines, 1) if line and not line.isdigit())
        raise _not_digits(f"{path}: line {n}", line)
    rows = tuple(text.translate(FROM_TEXT).split(b"\n"))  # a digit becomes byte 0-9, never 10
    return SpaceTimeDiagram(k=max(max(map(max, rows)) + 1, 2), rows=rows)


def _cmd_ca_filter(args) -> int:
    from .ca import filter_diagram
    from .render import emit_csv, emit_pgm

    diagram = _read_diagram(args.input)
    if args.method == "transducer":
        if not args.filter:
            raise UsageError("--method transducer needs --filter")
        from .tdx import load_transducer

        source, _digest = load_transducer(_read_text(args.filter))
    else:
        if not args.domains:
            raise UsageError(f"--method {args.method} needs --domains")
        _text, parsed = _load_domains(args.domains)
        source = [pd.domain for pd in parsed]
    labeled = filter_diagram(args.method, source, diagram)
    _write(args.output, emit_csv(labeled) if args.format == "csv" else emit_pgm(labeled))
    return 0


@functools.cache  # parsing does not mutate the parser; build it once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="apdfilter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a filter transducer from domains")
    p.add_argument("--domains", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--optimize", action="store_true", help="split domain states first")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("optimize", help="split domain states for unambiguous resync")
    p.add_argument("--domains", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("stack", help="exact maximal-substring cover")
    p.add_argument("--domains", required=True)
    p.add_argument("--input", required=True, help="string or @file")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("run", help="run a filter over a string")
    p.add_argument("--filter", required=True)
    p.add_argument("--input", required=True, help="string or @file")
    p.add_argument("--circular", action="store_true")
    p.add_argument("--bidi", action="store_true")
    p.add_argument("--domains", help="domain file the --bidi reverse filter is built from")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ca", help="evolve a cellular automaton")
    p.add_argument("--k", type=_integer, default=2)
    p.add_argument("--r", type=_integer, default=1)
    p.add_argument("--rule", required=True, help="rule number, in decimal")
    p.add_argument("--width", type=_integer)
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--init", required=True, help="random:SEED, word:W[^N], or @FILE")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ca)

    p = sub.add_parser("ca-filter", help="filter a space-time diagram")
    p.add_argument("--method", choices=("stack", "transducer", "bidi"), required=True)
    p.add_argument("--filter", help=".tdx filter (transducer method)")
    p.add_argument("--domains", help="domain file (stack and bidi methods)")
    p.add_argument("--input", required=True, help="diagram file, one row per line")
    p.add_argument("--format", choices=("csv", "pgm"), default="pgm")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ca_filter)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
