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

Lines starting with ``#`` are comments.  Parse errors carry line numbers;
invariant violations name the domain and the failed property.

Split domains written by the optimizer keep their non-recurrent states, so
their blocks carry a ``nonrecurrent`` marker line that waives the strong
connectivity check on re-parse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
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


def _validate(name: str, fa: FiniteAutomaton, line_no: int, nonrecurrent: bool) -> Domain:
    try:
        domain = Domain(fa)
    except ValueError as e:
        _fail(line_no, f"domain {name}: {e}")
    if not nonrecurrent and not is_strongly_connected(fa):
        _fail(line_no, f"domain {name}: not strongly connected")
    return domain


def parse_domain_spec(text: str) -> tuple[Alphabet, list[ParsedDomain]]:
    alphabet: Alphabet | None = None
    parsed: list[ParsedDomain] = []
    names = set()
    block: dict | None = None

    def close_block(line_no: int):
        nonlocal block
        assert block is not None
        if not block["states"]:
            _fail(line_no, f"domain {block['name']}: no states declared")
        order = block["states"]
        index = {s: i for i, s in enumerate(order)}
        starts = block["starts"] if block["starts"] is not None else set(order)
        finals = block["finals"] if block["finals"] is not None else set(order)
        fa = FiniteAutomaton(
            alphabet=alphabet,
            state_count=len(order),
            starts=frozenset(index[s] for s in starts),
            finals=frozenset(index[s] for s in finals),
            transitions=frozenset(
                (index[s], sym, index[d]) for (s, sym, d) in block["trans"]
            ),
        )
        parsed.append(
            ParsedDomain(
                name=block["name"],
                domain=_validate(block["name"], fa, line_no, block["nonrecurrent"]),
                state_names=tuple(order),
            )
        )
        block = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        word, args = fields[0], fields[1:]
        if block is not None:
            if word == "state":
                for s in args:
                    if s in block["states"]:
                        _fail(line_no, f"duplicate state {s}")
                    block["states"].append(s)
            elif word in ("start", "final"):
                key = word + "s"
                unknown = [s for s in args if s not in block["states"]]
                if unknown:
                    _fail(line_no, f"unknown state {unknown[0]}")
                block[key] = set(args) if block[key] is None else block[key] | set(args)
            elif word == "trans":
                if len(args) != 3:
                    _fail(line_no, "trans needs: source symbol target")
                s, tok, d = args
                for st in (s, d):
                    if st not in block["states"]:
                        _fail(line_no, f"unknown state {st}")
                if tok not in alphabet:
                    _fail(line_no, f"symbol {tok} not in the alphabet")
                block["trans"].append((s, alphabet.indices[tok], d))
            elif word == "nonrecurrent":
                block["nonrecurrent"] = True
            elif word == "end":
                close_block(line_no)
            else:
                _fail(line_no, f"unexpected {word!r} inside a domain block")
            continue
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
            if name in names:
                _fail(line_no, f"duplicate domain {name}")
            names.add(name)
            if len(args) >= 2:
                if args[1] != "cyclic" or len(args) != 3:
                    _fail(line_no, "expected: domain NAME cyclic WORD")
                for c in args[2]:
                    if c not in alphabet:
                        _fail(line_no, f"symbol {c} not in the alphabet")
                dom = cyclic_domain(args[2], alphabet)
                parsed.append(
                    ParsedDomain(
                        name=name,
                        domain=dom,
                        state_names=tuple(str(i) for i in range(dom.fa.state_count)),
                    )
                )
            else:
                block = {
                    "name": name,
                    "states": [],
                    "starts": None,
                    "finals": None,
                    "trans": [],
                    "nonrecurrent": False,
                }
        else:
            _fail(line_no, f"unknown directive {word!r}")
    if block is not None:
        _fail(len(text.splitlines()), f"domain {block['name']}: missing end")
    if alphabet is None:
        _fail(1, "no alphabet declared")
    if not parsed:
        _fail(1, "no domains declared")
    return alphabet, parsed


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
