"""Text serialization of filter transducers (``.tdx``).

Header lines give the alphabet, state count, start state, and domain
count; each transition line is ``trans s a OUT s'`` with OUT one of
``d<i>`` (domain label), ``brk<j>`` (break code), or ``lam`` (ambiguity).
A trailing table maps each ``brk<j>`` back to its state pair.  An optional
``hash`` line carries the digest of the domain file the filter was built
from, so later runs can flag a mismatched domain set.

Loading checks that every state, label and break pair is in range, that
every transition letter is in the alphabet, that no transition line
repeats and that each ``brk<j>`` is declared once, so a loaded filter
runs on its dense table without a range check per letter.
"""

from __future__ import annotations

import re

from .automata import Alphabet
from .transducer import (
    AMBIGUOUS,
    DomainBreak,
    DomainLabel,
    Transducer,
)


class TdxError(ValueError):
    pass


_OUTPUT_CODE = re.compile(r"lam|d\d+|brk\d+")


def save_transducer(t: Transducer, domains_digest: str | None = None) -> str:
    table = t.table.breaks
    lines = [
        "alphabet " + " ".join(t.alphabet.symbols),
        f"states {t.state_count}",
        f"start {t.start}",
        f"domains {t.domain_count}",
    ]
    if domains_digest:
        lines.append(f"hash {domains_digest}")
    for (s, sym, out, d) in sorted(t.transitions, key=lambda tr: (tr[0], tr[1])):
        if isinstance(out, DomainLabel):
            code = f"d{out.index}"
        elif isinstance(out, DomainBreak):
            code = f"brk{-table[(out.source, out.target)]}"
        else:
            code = "lam"
        lines.append(f"trans {s} {t.alphabet.symbols[sym]} {code} {d}")
    for (source, target), number in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(f"brk{-number} {source} {target}")
    return "\n".join(lines) + "\n"


def load_transducer(text: str) -> tuple[Transducer, str | None]:
    alphabet: Alphabet | None = None
    state_count = start = domains = None
    digest = None
    raw_transitions: dict[tuple[int, str, str, int], int] = {}  # -> line number
    pairs: dict[int, tuple[int, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        word = fields[0]
        try:
            if word == "alphabet":
                alphabet = Alphabet(tuple(fields[1:]))
            elif word == "states":
                state_count = int(fields[1])
            elif word == "start":
                start = int(fields[1])
            elif word == "domains":
                domains = int(fields[1])
            elif word == "hash":
                digest = fields[1]
            elif word == "trans":
                s, tok, code, d = fields[1], fields[2], fields[3], fields[4]
                if not _OUTPUT_CODE.fullmatch(code):
                    raise TdxError(f"line {line_no}: bad output code {code!r}")
                key = (int(s), tok, code, int(d))
                if key in raw_transitions:
                    raise TdxError(f"line {line_no}: duplicate transition")
                raw_transitions[key] = line_no
            elif word.startswith("brk"):
                number = int(word[3:])
                if number in pairs:
                    raise TdxError(f"line {line_no}: duplicate {word!r} declaration")
                pairs[number] = (int(fields[1]), int(fields[2]))
            else:
                raise TdxError(f"line {line_no}: unknown directive {word!r}")
        except (IndexError, ValueError) as e:
            if isinstance(e, TdxError):
                raise
            raise TdxError(f"line {line_no}: malformed {word!r} line") from None
    if alphabet is None or state_count is None or start is None:
        raise TdxError("missing header line")
    top = state_count - 1
    if not 0 <= start <= top:
        raise TdxError(f"start state {start} outside the states 0..{top}")
    for number, (source, target) in sorted(pairs.items()):
        if not (0 <= source <= top and 0 <= target <= top):
            raise TdxError(f"brk{number} {source} {target}: outside the states 0..{top}")
    transitions = set()
    for (s, tok, code, d), line_no in raw_transitions.items():
        if tok not in alphabet:
            raise TdxError(f"line {line_no}: unknown symbol {tok!r}")
        if not (0 <= s <= top and 0 <= d <= top):
            raise TdxError(f"trans {s} {tok} {code} {d}: outside the states 0..{top}")
        if code == "lam":
            out = AMBIGUOUS
        elif code.startswith("brk"):
            number = int(code[3:])
            if number not in pairs:
                raise TdxError(f"undeclared break code brk{number}")
            out = DomainBreak(*pairs[number])
        else:
            out = DomainLabel(int(code[1:]))
        transitions.add((s, alphabet.index(tok), out, d))
    labels = {out.index for (_s, _a, out, _d) in transitions if isinstance(out, DomainLabel)}
    if domains is None:
        domains = max(labels, default=1)
    for index in sorted(labels):
        if not 1 <= index <= domains:
            raise TdxError(f"domain label d{index} outside the domains 1..{domains}")
    try:
        t = Transducer(
            alphabet=alphabet,
            state_count=state_count,
            start=start,
            finals=frozenset(range(state_count)),
            transitions=frozenset(transitions),
            domain_count=domains,
        )
    except ValueError as e:
        raise TdxError(str(e)) from None
    return t, digest
