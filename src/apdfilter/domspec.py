"""Text format for domain collections.

One file declares a shared alphabet and any number of domains, either as
explicit state/transition blocks or through the ``cyclic`` shorthand::

    alphabet 0 1
    domain D1 cyclic 00010011011111
    domain D2
      state p q
      start p q
      final p q
      trans p 0 q
      trans q 0 p
      trans q 1 p
    end

``#`` starts a comment line; ``end`` takes no arguments.  Parse errors carry
line numbers, and echo fields cut short by ``clip``; invariant violations
name the domain and the failed property.

Split domains written by the optimizer keep their non-recurrent states, so
their blocks carry a ``nonrecurrent`` marker line, with no arguments, that
waives the strong connectivity check on re-parse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
    clip,
    cyclic_domain,
    is_strongly_connected,
)


class DomainSpecError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedDomain:
    name: str
    domain: Domain
    state_names: tuple[str, ...]


def _fail(line_no: int, message: str):
    raise DomainSpecError(f"line {line_no}: {message}")


# block directives with a fixed argument count, and the message when it differs
_ARITY = {
    "trans": (3, "trans needs: source symbol target"),
    "end": (0, "end takes no arguments"),
    "nonrecurrent": (0, "nonrecurrent takes no arguments"),
}


@dataclass
class _Block:  # the open domain block; a start or final mark of None is every state
    name: str
    states: dict[str, int]  # numbered as declared
    starts: set[int] | None
    finals: set[int] | None
    arcs: set[tuple[int, int, int]]
    nonrecurrent: bool


def parse_domain_spec(text: str) -> tuple[Alphabet, list[ParsedDomain]]:
    alphabet: Alphabet | None = None
    parsed: dict[str, ParsedDomain] = {}
    block: _Block | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        word, args = fields[0], fields[1:]
        if block is None:
            if word == "alphabet":
                if alphabet is not None:
                    _fail(line_no, "alphabet declared twice")
                try:
                    alphabet = Alphabet(tuple(args))
                except ValueError as e:
                    _fail(line_no, str(e))
            elif word == "domain":
                if alphabet is None:
                    _fail(line_no, "alphabet must be declared before domains")
                if not args:
                    _fail(line_no, "domain needs a name")
                name = args[0]
                if name in parsed:
                    _fail(line_no, f"duplicate domain {clip(name)}")
                if len(args) == 1:
                    block = _Block(name, {}, None, None, set(), False)
                    continue
                if args[1] != "cyclic" or len(args) != 3:
                    _fail(line_no, "expected: domain NAME cyclic WORD")
                for c in args[2]:
                    if c not in alphabet:
                        _fail(line_no, f"symbol {c} not in the alphabet")
                dom = cyclic_domain(args[2], alphabet)
                parsed[name] = ParsedDomain(name, dom, tuple(map(str, range(dom.fa.state_count))))
            else:
                _fail(line_no, f"unknown directive {clip(word)!r}")
            continue
        if word in _ARITY and len(args) != _ARITY[word][0]:
            _fail(line_no, _ARITY[word][1])
        states = block.states
        for s in args[::2] if word == "trans" else args if word in ("start", "final") else ():
            if s not in states:
                _fail(line_no, f"unknown state {clip(s)}")
        if word == "state":
            for s in args:
                if s in states:
                    _fail(line_no, f"duplicate state {clip(s)}")
                states[s] = len(states)
        elif word == "start":
            block.starts = (block.starts or set()) | {states[s] for s in args}
        elif word == "final":
            block.finals = (block.finals or set()) | {states[s] for s in args}
        elif word == "trans":
            s, tok, d = args
            if tok not in alphabet:
                _fail(line_no, f"symbol {clip(tok)} not in the alphabet")
            block.arcs.add((states[s], alphabet.indices[tok], states[d]))
        elif word == "nonrecurrent":
            block.nonrecurrent = True
        elif word == "end":
            if not states:
                _fail(line_no, f"domain {clip(block.name)}: no states declared")
            every = frozenset(range(len(states)))
            starts, finals = (every if m is None else frozenset(m) for m in (block.starts, block.finals))
            fa = FiniteAutomaton(alphabet, len(states), starts, finals, frozenset(block.arcs))
            try:
                domain = Domain(fa)
            except ValueError as e:
                _fail(line_no, f"domain {clip(block.name)}: {e}")
            if not block.nonrecurrent and not is_strongly_connected(fa):
                _fail(line_no, f"domain {clip(block.name)}: not strongly connected")
            parsed[block.name] = ParsedDomain(block.name, domain, tuple(states))
            block = None
        else:
            _fail(line_no, f"unexpected {clip(word)!r} inside a domain block")
    if block is not None:
        _fail(line_no, f"domain {clip(block.name)}: missing end")
    if alphabet is None:
        _fail(1, "no alphabet declared")
    if not parsed:
        _fail(1, "no domains declared")
    return alphabet, list(parsed.values())


def format_domain_spec(
    alphabet: Alphabet, domains: list[ParsedDomain], nonrecurrent: bool = False
) -> str:
    """Emit the explicit-block form of the format (no cyclic shorthand)."""
    lines = ["alphabet " + " ".join(alphabet.symbols)]
    for pd in domains:
        fa = pd.domain.fa
        lines.append(f"domain {pd.name}")
        if nonrecurrent:
            lines.append("  nonrecurrent")
        lines.append("  state " + " ".join(pd.state_names))
        lines.append("  start " + " ".join(pd.state_names[s] for s in sorted(fa.starts)))
        lines.append("  final " + " ".join(pd.state_names[s] for s in sorted(fa.finals)))
        for (s, sym, d) in sorted(fa.transitions):
            lines.append(
                f"  trans {pd.state_names[s]} {alphabet.symbols[sym]} {pd.state_names[d]}"
            )
        lines.append("end")
    return "\n".join(lines) + "\n"


def spec_digest(text: str) -> str:
    import hashlib  # only build and run --bidi need it; it is slow to import

    return hashlib.sha256(text.encode()).hexdigest()
