"""Text serialization of filter transducers (``.tdx``).

Header lines give the alphabet, state count, start state, and domain
count; each transition line is ``trans s a OUT s'`` with the output field
OUT one of ``lam`` (ambiguity), ``d<i>`` (domain label) or ``brk<j>``
(break code).  A trailing table maps each ``brk<j>`` back to its state
pair.  An optional ``hash`` line carries the digest of the domain file
the filter was built from, so later runs can flag a mismatched domain set.

Every number is ASCII digits, converted as its line is read, so a bad one
fails with its line number; an error echoes a field cut short by ``clip``.
Every line but ``alphabet`` has a fixed number of fields, each header
line (``alphabet``, ``states``, ``start``, ``domains``, ``hash``)
appears at most once and anywhere in the file, and a filter has at
least one domain.  A filter has exactly one arc per (state, letter), so
a file has one ``trans`` line for each.  Saving writes the filter's
table in index order: one ``trans`` line per arc in (state, letter)
order, then ``brk1``, ``brk2``, ... .  Loading reads every line once,
then fills the table, since a header line may follow the arcs.  It
refuses a file with fewer ``trans`` lines than states times letters
before allocating the table, and checks that every state, label and
break pair is in range, that every transition letter is in the
alphabet, that no (state, letter) has two transition lines and that
each ``brk<j>`` is declared once; so a partial file fails to load, and a
loaded filter runs without a check per letter.
Break codes are renumbered by first use in (state, letter) order: a pair
declared under two numbers becomes one code, and unused declarations are
dropped.
"""

from __future__ import annotations

import re
from typing import Any

from .automata import Alphabet, clip
from .transducer import Transducer


class TdxError(ValueError):
    pass


# arguments per directive (``brk<j>`` under ``brk``); ``alphabet`` takes any number
_ARGS = {"alphabet": None, "states": 1, "start": 1, "domains": 1, "hash": 1, "trans": 4, "brk": 2}
# every number is ASCII digits (``\d`` and ``int`` take any Unicode digit, ``int``
# also signs and underscores), converted inside the per-line ``try``
_OUTPUT = re.compile(r"lam|d([0-9]+)|brk([0-9]+)")  # groups: domain label, break number


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
    header: dict[str, Any] = {}  # directive -> value, each header line at most once
    # (line, s, token, output field, its domain label or None, its break number or None, s')
    arcs: list[tuple[int, int, str, str, int | None, int | None, int]] = []
    pairs: dict[int, tuple[int, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        word = fields[0]
        kind = "brk" if word.startswith("brk") else word
        if kind not in _ARGS:
            raise TdxError(f"line {line_no}: unknown directive {clip(word)!r}")
        count = _ARGS[kind]
        if count is not None and len(fields) != count + 1:
            raise TdxError(f"line {line_no}: malformed {clip(word)!r} line")
        try:
            if kind == "trans":
                _, s, tok, out, d = fields
                numbers = s + d  # one check per line
                if not (numbers.isdigit() and numbers.isascii()):
                    raise ValueError(numbers)
                output = _OUTPUT.fullmatch(out)
                if not output:
                    raise TdxError(f"line {line_no}: bad output code {clip(out)!r}")
                label, brk = output.groups()
                arcs.append((line_no, int(s), tok, out, label and int(label), brk and int(brk), int(d)))
            elif kind == "brk":
                declared = _OUTPUT.fullmatch(word)  # word starts with brk: a match is a brk<j>
                numbers = fields[1] + fields[2]
                if not (declared and numbers.isdigit() and numbers.isascii()):
                    raise ValueError(word)
                number = int(declared[2])
                if number in pairs:
                    raise TdxError(f"line {line_no}: duplicate {clip(word)!r} declaration")
                pairs[number] = (int(fields[1]), int(fields[2]))
            elif word in header:
                raise TdxError(f"line {line_no}: duplicate {word!r} line")
            elif word == "alphabet":
                header[word] = Alphabet(tuple(fields[1:]))
            elif word == "hash":
                header[word] = fields[1]
            else:  # states, start, domains
                if not (fields[1].isdigit() and fields[1].isascii()):
                    raise ValueError(fields[1])
                header[word] = int(fields[1])
                if word == "domains" and header[word] < 1:
                    raise TdxError(f"line {line_no}: domains {header[word]}: a filter has at least one")
        except TdxError:
            raise
        except ValueError:
            raise TdxError(f"line {line_no}: malformed {clip(word)!r} line") from None
    if not header.keys() >= {"alphabet", "states", "start"}:
        raise TdxError("missing header line")
    alphabet, state_count, start = header["alphabet"], header["states"], header["start"]
    k = len(alphabet)
    # Checked before the table is allocated.  Each arc below lands in its
    # own in-range slot (range and duplicate checks), so with at least
    # state_count * k arcs every slot of the table is filled.
    if len(arcs) < state_count * k:
        raise TdxError(
            f"states {clip(state_count)} over {k} letters need {clip(state_count * k)} trans lines, "
            f"found {len(arcs)}"
        )
    top = state_count - 1
    if not 0 <= start <= top:
        raise TdxError(f"start state {clip(start)} outside the states 0..{top}")
    for number, (source, target) in sorted(pairs.items()):
        if not (0 <= source <= top and 0 <= target <= top):
            raise TdxError(f"brk{clip(number)} {clip(source)} {clip(target)}: outside the states 0..{top}")
    nxt: list[int | None] = [None] * (state_count * k)
    code = [0] * (state_count * k)
    broken: dict[int, tuple[int, int]] = {}  # table index -> break pair
    labels = set()
    indices = alphabet.indices
    for line_no, s, tok, out, label, brk, d in arcs:
        if tok not in indices:
            raise TdxError(f"line {line_no}: unknown symbol {clip(tok)!r}")
        if not (0 <= s <= top and 0 <= d <= top):
            raise TdxError(f"trans {clip(s)} {clip(tok)} {clip(out)} {clip(d)}: outside the states 0..{top}")
        i = s * k + indices[tok]
        if nxt[i] is not None:
            raise TdxError(f"line {line_no}: second transition from state {s} on {clip(tok)!r}")
        nxt[i] = d * k
        if brk is not None:
            if brk not in pairs:
                raise TdxError(f"undeclared break code brk{clip(brk)}")
            broken[i] = pairs[brk]
        elif label is not None:
            code[i] = label
            labels.add(label)
    domains = header.get("domains") or max(labels, default=1)
    for index in sorted(labels):
        if not 1 <= index <= domains:
            raise TdxError(f"domain label d{clip(index)} outside the domains 1..{clip(domains)}")
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
    return t, header.get("hash")
