"""Brute-force oracles shared by the test modules.

Everything here works by direct enumeration or simulation so it stays
independent of the constructions under test.
"""

from __future__ import annotations

import itertools
from random import Random

from apdfilter.automata import Alphabet, Domain, FiniteAutomaton, accepts

ALPHA01 = Alphabet(("0", "1"))


def all_words(alphabet: Alphabet, max_len: int, min_len: int = 0):
    """Every word over the alphabet with min_len <= length <= max_len."""
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet.symbols, repeat=n):
            yield "".join(combo)


def language(fa: FiniteAutomaton, max_len: int) -> frozenset[str]:
    return frozenset(w for w in all_words(fa.alphabet, max_len) if accepts(fa, w))


def accepted_by_any(domains, word) -> bool:
    return any(accepts(d.fa, word) for d in domains)


def accepting_domains(domains, word) -> frozenset[int]:
    """1-based indices of the domains that accept ``word``."""
    return frozenset(i + 1 for i, d in enumerate(domains) if accepts(d.fa, word))


def brute_maximal_cover(domains, sigma: str) -> list[tuple[int, int]]:
    """Maximal accepted substrings by direct enumeration.

    Domains are factor-closed, so an interval is maximal iff neither
    one-letter extension is accepted.
    """
    n = len(sigma)
    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if not accepted_by_any(domains, sigma[a - 1 : b]):
                continue
            if a > 1 and accepted_by_any(domains, sigma[a - 2 : b]):
                continue
            if b < n and accepted_by_any(domains, sigma[a - 1 : b + 1]):
                continue
            out.append((a, b))
    return out


def brute_resync_candidates(
    tracker: FiniteAutomaton, state: int, symbol: str, max_len: int = 8
) -> tuple[list[frozenset[int]], int | None]:
    """Candidate resynchronization targets per imagined-past length, and the
    length at which the candidate table ends.

    Every word u with |u| <= max_len is simulated on its own, one letter at
    a time: the tracker states some path labeled u reaches, the run from
    the start, and whether u is flagged.  The empty word is flagged; a
    longer word is flagged when it is w + symbol and some path labeled w
    ends in ``state``.  Entry l of the list holds the runs of the flagged
    words of length l.  The table ends at the first length whose set of
    live word summaries is empty or equals an earlier one; the returned
    end is None when that lies beyond ``max_len``.
    """
    sym = tracker.alphabet.index(symbol)
    out: list[frozenset[int]] = []
    seen = []
    # (states some path labeled u reaches, run from the start, flag) per word u
    words = [(frozenset(range(tracker.state_count)), frozenset(tracker.starts), True)]
    for length in range(max_len + 1):
        live = frozenset(w for w in words if w[1] and (w[0] or w[2]))
        if not live or live in seen:
            return out, length
        seen.append(live)
        out.append(frozenset(t for (_reach, run, flag) in live if flag for t in run))
        words = [
            (tracker.step(reach, a), tracker.step(run, a), a == sym and state in reach)
            for reach, run, _flag in words
            for a in range(len(tracker.alphabet))
        ]
    return out, None


def random_nfa(rng: Random, alphabet: Alphabet = ALPHA01, max_states: int = 5) -> FiniteAutomaton:
    n = rng.randint(1, max_states)
    k = len(alphabet)
    transitions = set()
    for s in range(n):
        for sym in range(k):
            for d in range(n):
                if rng.random() < 0.35:
                    transitions.add((s, sym, d))
    starts = frozenset(s for s in range(n) if rng.random() < 0.5) or frozenset([rng.randrange(n)])
    finals = frozenset(s for s in range(n) if rng.random() < 0.5)
    return FiniteAutomaton(
        alphabet=alphabet,
        state_count=n,
        starts=starts,
        finals=finals,
        transitions=frozenset(transitions),
    )


def random_domain(rng: Random, alphabet: Alphabet = ALPHA01, max_states: int = 4) -> Domain:
    """Random semi-deterministic domain, not necessarily strongly connected."""
    n = rng.randint(1, max_states)
    transitions = frozenset(
        (s, sym, rng.randrange(n))
        for s in range(n)
        for sym in range(len(alphabet))
        if rng.random() < 0.6
    )
    return Domain(FiniteAutomaton(alphabet, n, range(n), range(n), transitions))


def walk_transitions(t, tokens, circular: bool = False):
    """Outputs of a filter over ``tokens`` by a direct walk over its
    transition set, and the (state, token) of the first missing arc (None
    when every arc exists; the outputs then stop there).  Circular mode
    walks twice from the start and keeps the second lap.
    """
    arcs = {(s, t.alphabet.symbols[a]): (out, d) for (s, a, out, d) in t.transitions}
    state = t.start
    outputs = []
    for _lap in range(2 if circular else 1):
        outputs = []
        for tok in tokens:
            if (state, tok) not in arcs:
                return outputs, (state, tok)
            out, state = arcs[(state, tok)]
            outputs.append(out)
    return outputs, None


def d18_domain() -> Domain:
    """Two-state domain of the rule-18 pattern: pairs of 0-then-anything."""
    fa = FiniteAutomaton(
        alphabet=ALPHA01,
        state_count=2,
        starts=frozenset([0, 1]),
        finals=frozenset([0, 1]),
        # state 0 = pair boundary (must read 0), state 1 = mid pair
        transitions=frozenset([(0, 0, 1), (1, 0, 0), (1, 1, 0)]),
    )
    return Domain(fa)
