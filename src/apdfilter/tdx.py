"""Text serialization of filter transducers (``.tdx``).

Header lines give the alphabet, state count, start state, and domain
count; each transition line is ``trans s a OUT s'`` with OUT one of
``d<i>`` (domain label), ``brk<j>`` (break code), or ``lam`` (ambiguity).
A trailing table maps each ``brk<j>`` back to its state pair.  An optional
``hash`` line carries the digest of the domain file the filter was built
from, so later runs can flag a mismatched domain set.

Every line but ``alphabet`` has a fixed number of fields, each header
line (``alphabet``, ``states``, ``start``, ``domains``, ``hash``)
appears at most once, and a filter has at least one domain.  A filter
has exactly one arc per (state, letter), so a file has one ``trans``
line for each.  Saving writes the filter's table in index order: one
``trans`` line per arc in (state, letter) order, then ``brk1``,
``brk2``, ... .  Loading fills the table directly.  It refuses a file
with fewer ``trans`` lines than states times letters before allocating
the table, and checks that every state, label and break pair is in
range, that every transition letter is in the alphabet, that no (state,
letter) has two transition lines and that each ``brk<j>`` is declared
once; so a partial file fails to load, and a loaded filter runs without
a check per letter.
Break codes are renumbered by first use in (state, letter) order: a pair
declared under two numbers becomes one code, and unused declarations are
dropped.
"""

from __future__ import annotations

import re

from .automata import Alphabet
from .transducer import Transducer


class TdxError(ValueError):
    pass


_OUTPUT_CODE = re.compile(r"lam|d\d+|brk\d+")
# fields per line, directive included; ``alphabet`` takes any number
_FIELD_COUNTS = {"states": 2, "start": 2, "domains": 2, "hash": 2, "trans": 5, "brk": 3}
_HEADER_WORDS = frozenset({"alphabet", "states", "start", "domains", "hash"})  # once per file


def _output_word(code: int) -> str:
    if code > 0:
        return f"d{code}"
    return f"brk{-code}" if code else "lam"


def save_transducer(t: Transducer, domains_digest: str | None = None) -> str:
    symbols = t.alphabet.symbols
    k = len(symbols)
    lines = [
        "alphabet " + " ".join(symbols),
        f"states {t.state_count}",
        f"start {t.start}",
        f"domains {t.domain_count}",
    ]
    if domains_digest:
        lines.append(f"hash {domains_digest}")
    for i, (d, code) in enumerate(zip(t.next, t.code)):
        s, a = divmod(i, k)
        lines.append(f"trans {s} {symbols[a]} {_output_word(code)} {d // k}")
    for j, (source, target) in enumerate(t.breaks, start=1):
        lines.append(f"brk{j} {source} {target}")
    return "\n".join(lines) + "\n"


def load_transducer(text: str) -> tuple[Transducer, str | None]:
    alphabet: Alphabet | None = None
    state_count = start = domains = None
    digest = None
    arcs: list[tuple[int, int, str, str, int]] = []  # (line, s, token, output, s')
    pairs: dict[int, tuple[int, int]] = {}
    headers: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        word = fields[0]
        if len(fields) != _FIELD_COUNTS.get("brk" if word.startswith("brk") else word, len(fields)):
            raise TdxError(f"line {line_no}: malformed {word!r} line")
        if word in _HEADER_WORDS:
            if word in headers:
                raise TdxError(f"line {line_no}: duplicate {word!r} line")
            headers.add(word)
        try:
            if word == "alphabet":
                alphabet = Alphabet(tuple(fields[1:]))
            elif word == "states":
                state_count = int(fields[1])
            elif word == "start":
                start = int(fields[1])
            elif word == "domains":
                domains = int(fields[1])
                if domains < 1:
                    raise TdxError(f"line {line_no}: domains {domains}: a filter has at least one")
            elif word == "hash":
                digest = fields[1]
            elif word == "trans":
                s, tok, code, d = fields[1], fields[2], fields[3], fields[4]
                if not _OUTPUT_CODE.fullmatch(code):
                    raise TdxError(f"line {line_no}: bad output code {code!r}")
                arcs.append((line_no, int(s), tok, code, int(d)))
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
    k = len(alphabet)
    # Checked before the table is allocated.  Each arc below lands in its
    # own in-range slot (range and duplicate checks), so with at least
    # state_count * k arcs every slot of the table is filled.
    if len(arcs) < state_count * k:
        raise TdxError(
            f"states {state_count} over {k} letters need {state_count * k} trans lines, "
            f"found {len(arcs)}"
        )
    top = state_count - 1
    if not 0 <= start <= top:
        raise TdxError(f"start state {start} outside the states 0..{top}")
    for number, (source, target) in sorted(pairs.items()):
        if not (0 <= source <= top and 0 <= target <= top):
            raise TdxError(f"brk{number} {source} {target}: outside the states 0..{top}")
    nxt: list[int | None] = [None] * (state_count * k)
    code = [0] * (state_count * k)
    broken: dict[int, tuple[int, int]] = {}  # table index -> break pair
    labels = set()
    for line_no, s, tok, out, d in arcs:
        if tok not in alphabet:
            raise TdxError(f"line {line_no}: unknown symbol {tok!r}")
        if not (0 <= s <= top and 0 <= d <= top):
            raise TdxError(f"trans {s} {tok} {out} {d}: outside the states 0..{top}")
        i = s * k + alphabet.indices[tok]
        if nxt[i] is not None:
            raise TdxError(f"line {line_no}: second transition from state {s} on {tok!r}")
        nxt[i] = d * k
        if out.startswith("brk"):
            number = int(out[3:])
            if number not in pairs:
                raise TdxError(f"undeclared break code brk{number}")
            broken[i] = pairs[number]
        elif out != "lam":
            code[i] = int(out[1:])
            labels.add(code[i])
    if domains is None:
        domains = max(labels, default=1)
    for index in sorted(labels):
        if not 1 <= index <= domains:
            raise TdxError(f"domain label d{index} outside the domains 1..{domains}")
    breaks: dict[tuple[int, int], int] = {}  # pair -> code, by first use
    for i in sorted(broken):
        code[i] = breaks.setdefault(broken[i], -len(breaks) - 1)
    t = Transducer(
        alphabet=alphabet,
        start=start,
        next=tuple(nxt),
        code=tuple(code),
        breaks=tuple(breaks),
        domain_count=domains,
    )
    return t, digest
