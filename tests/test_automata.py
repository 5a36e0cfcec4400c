from random import Random

import pytest
from helpers import (
    ALPHA01,
    all_words,
    language,
    random_nfa,
    reference_determinize,
    replace_finals,
    sigma_star_prefix,
    tracker_dfa,
    transition_table,
    unconcat_last,
    zero_cycle_domain,
)

from apdfilter import automata

from apdfilter.automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
    accepts,
    build_tracker,
    complement,
    cyclic_domain,
    determinize,
    difference,
    disjoint_union,
    empty_language,
    equivalent,
    intersect,
    is_empty,
    is_strongly_connected,
    minimize,
    reverse_domain,
    universal,
)


def word_automaton(words, alphabet=ALPHA01):
    """Trie automaton accepting exactly the given finite set of words."""
    states = {"": 0}
    transitions = set()
    for w in words:
        for i in range(len(w)):
            prefix, nxt = w[:i], w[: i + 1]
            if nxt not in states:
                states[nxt] = len(states)
            transitions.add((states[prefix], alphabet.index(w[i]), states[nxt]))
    return FiniteAutomaton(
        alphabet=alphabet,
        state_count=len(states),
        starts=frozenset([0]),
        finals=frozenset(states[w] for w in words),
        transitions=frozenset(transitions),
    )


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("0", "0"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_index_unknown(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            ALPHA01.index("2")


class TestDeterminize:
    def test_d18_subsets(self, d18):
        det = determinize(d18.fa)
        assert det.deterministic
        assert set(det.state_tags) == {
            frozenset({0, 1}),
            frozenset({0}),
            frozenset({1}),
        }
        assert det.state_tags[0] == frozenset({0, 1})
        # ({pair-boundary}, 1) has no transition
        boundary = det.state_tags.index(frozenset({0}))
        assert 1 not in transition_table(det)[boundary]

    def test_already_deterministic_fixpoint(self):
        fa = word_automaton(["01", "00"])
        det = determinize(fa)
        assert det.deterministic
        assert all(len(tag) == 1 for tag in det.state_tags)
        assert language(det, 4) == language(fa, 4)

    def test_three_state_cycle(self):
        d = cyclic_domain("001", ALPHA01)
        det = determinize(d.fa)
        assert det.state_tags[0] == frozenset({0, 1, 2})
        assert language(det, 8) == language(d.fa, 8)

    def test_no_start_states_rejected(self):
        fa = FiniteAutomaton(ALPHA01, 1, frozenset(), frozenset([0]), frozenset())
        with pytest.raises(ValueError, match="no start states"):
            determinize(fa)

    def test_tags_distinct(self):
        rng = Random(7)
        for _ in range(25):
            det = determinize(random_nfa(rng))
            assert len(set(det.state_tags)) == det.state_count


class TestSubsetBudget:
    def test_every_construction_stops_at_the_budget(self, monkeypatch):
        fa = zero_cycle_domain(Random(3), 10).fa
        n = determinize(fa).state_count
        monkeypatch.setattr(automata, "MAX_SUBSETS", n)
        assert determinize(fa).state_count == n  # exactly the budget is allowed
        monkeypatch.setattr(automata, "MAX_SUBSETS", n - 1)
        message = f"subset construction exceeds {n - 1} states"
        for construct in (determinize, minimize, complement):
            with pytest.raises(ValueError, match=message):
                construct(fa)
        with pytest.raises(ValueError, match=message):
            build_tracker([Domain(fa)])

    def test_minimize_keeps_a_sink_past_the_budget(self, monkeypatch):
        # "the third letter from the end is a", where c kills every path:
        # all 8 sets of the construction and the sink are distinct states
        alphabet = Alphabet(("a", "b", "c"))
        arcs = {(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 2), (1, 1, 2), (2, 0, 3), (2, 1, 3)}
        fa = FiniteAutomaton(alphabet, 4, {0}, {3}, arcs)
        monkeypatch.setattr(automata, "MAX_SUBSETS", 8)
        assert minimize(fa).state_count == complement(fa).state_count == 9
        assert language(minimize(fa), 5) == language(fa, 5)

    @pytest.mark.parametrize("seed, n", [(9, 18), (2, 24)])
    def test_large_trackers_number_as_the_reference(self, seed, n):
        # 2116 and 2221 tracker states
        tracker = build_tracker([zero_cycle_domain(Random(seed), n)])
        ref = reference_determinize(tracker.union)
        assert tracker.masks == tuple(sum(1 << u for u in tag) for tag in ref.state_tags)
        assert tracker_dfa(tracker) == ref


class TestIntersect:
    def test_idempotent_language(self, d18):
        both = intersect(d18.fa, d18.fa)
        assert language(both, 8) == language(d18.fa, 8)

    def test_two_cycles(self):
        a = cyclic_domain("01", ALPHA01)
        b = cyclic_domain("0011", ALPHA01)
        both = intersect(a.fa, b.fa)
        expect = language(a.fa, 8) & language(b.fa, 8)
        assert language(both, 8) == expect
        assert {"", "0", "1", "01", "10"} <= expect

    def test_empty_finals(self, d18):
        dead = replace_finals(d18.fa, ())
        assert is_empty(intersect(d18.fa, dead))

    def test_alphabet_mismatch(self, d18):
        other = universal(Alphabet(("a", "b")))
        with pytest.raises(ValueError, match="alphabet mismatch"):
            intersect(d18.fa, other)

    def test_deterministic_inputs_give_deterministic_product(self, d18):
        a = determinize(d18.fa)
        b = determinize(cyclic_domain("001", ALPHA01).fa)
        assert intersect(a, b).deterministic


class TestDisjointUnion:
    def test_singleton(self, d18):
        u = disjoint_union([d18.fa])
        assert u.state_tags == ((0, 0), (0, 1))
        assert language(u, 6) == language(d18.fa, 6)

    def test_union_language(self, d18):
        c = cyclic_domain("001", ALPHA01)
        u = disjoint_union([d18.fa, c.fa])
        assert u.state_count == 5
        assert language(u, 8) == language(d18.fa, 8) | language(c.fa, 8)

    def test_duplicate_inputs(self):
        c = cyclic_domain("0", ALPHA01)
        u = disjoint_union([c.fa, c.fa])
        assert u.state_count == 2
        assert language(u, 6) == {"0" * n for n in range(7)}


class TestBooleanOperations:
    def test_complement_universal(self):
        assert is_empty(complement(universal(ALPHA01)))

    def test_double_complement(self, d18):
        twice = complement(complement(d18.fa))
        assert language(twice, 8) == language(d18.fa, 8)

    def test_complement_zero_run(self):
        c = cyclic_domain("0", ALPHA01)
        comp = complement(c.fa)
        assert language(comp, 6) == {w for w in all_words(ALPHA01, 6) if "1" in w}

    def test_difference_self_and_empty(self, d18):
        assert is_empty(difference(d18.fa, d18.fa))
        diff = difference(d18.fa, empty_language(ALPHA01))
        assert language(diff, 8) == language(d18.fa, 8)

    def test_difference_from_universal(self, d18):
        rejected = difference(universal(ALPHA01), d18.fa)
        assert language(rejected, 8) == set(all_words(ALPHA01, 8)) - language(d18.fa, 8)
        assert accepts(rejected, "11")


class TestConcat:
    """The letter preimage the reference optimizer in helpers.py builds on."""

    def test_unconcat_word_sets(self):
        assert language(unconcat_last(word_automaton(["01"]), "1"), 4) == {"0"}
        assert language(unconcat_last(word_automaton(["0", "1"]), "0"), 4) == {""}

    def test_unconcat_random(self):
        rng = Random(11)
        for _ in range(20):
            fa = random_nfa(rng)
            for tok in "01":
                got = language(unconcat_last(fa, tok), 7)
                want = {w[:-1] for w in language(fa, 8) if w.endswith(tok)}
                assert got == want


class TestSigmaStarPrefix:
    def test_epsilon_gives_everything(self):
        star = sigma_star_prefix(word_automaton([""]))
        assert language(star, 5) == set(all_words(ALPHA01, 5))

    def test_suffix_one(self):
        fa = sigma_star_prefix(word_automaton(["1"]))
        assert language(fa, 6) == {w for w in all_words(ALPHA01, 6) if w.endswith("1")}

    def test_contains_original(self):
        rng = Random(5)
        for _ in range(15):
            fa = random_nfa(rng)
            assert language(fa, 5) <= language(sigma_star_prefix(fa), 5)


class TestMinimize:
    def test_fixpoint(self, d18):
        once = minimize(d18.fa)
        assert minimize(once) == once

    def test_duplicate_union_collapses(self, d18):
        doubled = minimize(disjoint_union([d18.fa, d18.fa]))
        assert doubled == minimize(d18.fa)

    def test_language_preserved(self):
        rng = Random(13)
        for _ in range(30):
            fa = random_nfa(rng)
            assert language(minimize(fa), 8) == language(fa, 8)

    def test_no_starts_is_empty_language(self):
        fa = FiniteAutomaton(ALPHA01, 2, frozenset(), frozenset([1]), frozenset())
        assert minimize(fa) == empty_language(ALPHA01)

    def test_complete_dfa_skips_subset_construction(self):
        # a complete DFA's subset construction has no sink; its doubled
        # union has two starts and a construction of pairs, so the
        # canonical forms must agree
        rng = Random(17)
        for alphabet in (ALPHA01, Alphabet(("a", "b", "c"))):
            k = len(alphabet)
            for _ in range(60):
                n = rng.randint(1, 7)
                d = FiniteAutomaton(
                    alphabet,
                    n,
                    frozenset([rng.randrange(n)]),
                    frozenset(s for s in range(n) if rng.random() < 0.4),
                    frozenset((s, sym, rng.randrange(n)) for s in range(n) for sym in range(k)),
                )
                once = minimize(d)
                assert minimize(disjoint_union([d, d])) == once
                assert language(once, 6) == language(d, 6)


class TestAcceptsEmptyEquivalent:
    def test_d18_membership(self, d18):
        assert not accepts(d18.fa, "11")
        assert accepts(d18.fa, "")
        assert accepts(d18.fa, "001")

    def test_unknown_symbol(self, d18):
        # the message names the token, also once the table is warm
        for word in ("02", ["0", "0", "10"], "02"):
            with pytest.raises(ValueError, match=r"^unknown symbol '(2|10)'$"):
                accepts(d18.fa, word)

    def test_rejects_before_reading_past_the_empty_set(self, d18):
        assert not accepts(d18.fa, "112")
        no_starts = FiniteAutomaton(ALPHA01, 1, (), (0,), {(0, 0, 0)})
        assert not accepts(no_starts, "")
        with pytest.raises(ValueError, match=r"^unknown symbol '2'$"):
            accepts(no_starts, "2")

    def test_equivalent_det(self):
        rng = Random(17)
        for _ in range(20):
            fa = random_nfa(rng)
            assert equivalent(determinize(fa), fa)

    def test_equivalent_matches_enumeration(self):
        rng = Random(19)
        for _ in range(40):
            a, b = random_nfa(rng, max_states=3), random_nfa(rng, max_states=3)
            assert equivalent(a, b) == (language(a, 8) == language(b, 8))

    def test_is_empty(self, d18):
        assert not is_empty(d18.fa)
        assert is_empty(empty_language(ALPHA01))


class TestDomains:
    def test_cyclic_counts(self):
        assert cyclic_domain("00010011011111").fa.state_count == 14
        one = cyclic_domain("0")
        assert one.fa.state_count == 1
        assert language(one.fa, 4) == {"0" * n for n in range(5)}

    def test_cyclic_wraparound(self):
        c = cyclic_domain("001", ALPHA01)
        reference = "001" * 5
        subwords = {
            reference[i:j] for i in range(len(reference)) for j in range(i, min(i + 9, len(reference)) + 1)
        }
        for w in all_words(ALPHA01, 6):
            assert accepts(c.fa, w) == (w in subwords)
        assert accepts(c.fa, "0100")
        assert not accepts(c.fa, "11")

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            cyclic_domain("")

    def test_domain_invariants_enforced(self):
        fa = FiniteAutomaton(
            ALPHA01, 2, frozenset([0]), frozenset([0, 1]), frozenset([(0, 0, 1)])
        )
        with pytest.raises(ValueError, match="start"):
            Domain(fa)

    def test_not_semi_deterministic_rejected(self):
        fa = FiniteAutomaton(
            ALPHA01,
            2,
            frozenset([0, 1]),
            frozenset([0, 1]),
            frozenset([(0, 0, 0), (0, 0, 1), (1, 1, 0)]),
        )
        with pytest.raises(ValueError, match="semi-deterministic"):
            Domain(fa)

    def test_strong_connectivity(self, d18):
        assert is_strongly_connected(d18.fa)
        line = FiniteAutomaton(
            ALPHA01, 2, frozenset([0, 1]), frozenset([0, 1]), frozenset([(0, 0, 1)])
        )
        assert not is_strongly_connected(line)

    def test_reverse_domain(self, d18):
        rev = reverse_domain(d18)
        assert language(rev.fa, 7) == {w[::-1] for w in language(d18.fa, 7)}


class TestPropertySuite:
    def test_boolean_identities(self):
        rng = Random(23)
        for _ in range(25):
            a, b = random_nfa(rng, max_states=4), random_nfa(rng, max_states=4)
            la, lb = language(a, 6), language(b, 6)
            sigma = set(all_words(ALPHA01, 6))
            assert language(intersect(a, b), 6) == la & lb
            assert language(disjoint_union([a, b]), 6) == la | lb
            assert language(difference(a, b), 6) == la - lb
            assert language(complement(a), 6) == sigma - la
