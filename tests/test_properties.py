"""Property tests: generated domain sets and words, checked against the
brute-force oracles.  Examples are derandomized and capped, so every run
tests the same cases in about the same time."""

from helpers import ALPHA01, accepting_domains, brute_maximal_cover
from hypothesis import given, settings
from hypothesis import strategies as st

from apdfilter.automata import Alphabet, Domain, FiniteAutomaton, build_tracker
from apdfilter.stackfilter import filter_local

ALPHA012 = Alphabet(("0", "1", "2"))


@st.composite
def domain(draw, alphabet: Alphabet) -> Domain:
    """A semi-deterministic domain of up to 4 states, not necessarily
    strongly connected: at most one arc per (state, letter)."""
    n = draw(st.integers(1, 4))
    state, letter = st.integers(0, n - 1), st.integers(0, len(alphabet) - 1)
    arcs = draw(st.lists(st.tuples(state, letter, state), unique_by=lambda arc: arc[:2]))
    return Domain(FiniteAutomaton(alphabet, n, range(n), range(n), frozenset(arcs)))


@st.composite
def domains_and_word(draw) -> tuple[list[Domain], str]:
    alphabet = draw(st.sampled_from([ALPHA01, ALPHA012]))
    domains = draw(st.lists(domain(alphabet), min_size=1, max_size=3))
    word = draw(st.text(st.sampled_from(alphabet.symbols), max_size=16))
    return domains, word


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(domains_and_word())
def test_filter_local_is_the_maximal_cover(case):
    domains, word = case
    cover = filter_local(build_tracker(domains), word)
    assert list(cover.intervals) == brute_maximal_cover(domains, word)
    assert cover.domain_sets == tuple(
        accepting_domains(domains, word[a - 1 : b]) for (a, b) in cover.intervals
    )
