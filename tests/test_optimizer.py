import dataclasses
import logging
from pathlib import Path
from random import Random

import pytest
from helpers import (
    ALPHA01,
    all_words,
    canonical_key,
    check_partition,
    class_fixpoint,
    disjoin,
    forbidden_pairs,
    initial_classes,
    language,
    oracle_stages,
    past_classes,
    random_domain,
    random_nfa,
    refinement_stages,
    resync_pasts,
    set_step,
    step_det,
)

from apdfilter import optimizer
from apdfilter.automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
    accepts,
    build_tracker,
    cyclic_domain,
    determinize,
    disjoint_union,
    empty_language,
    equivalent,
    is_empty,
    minimize,
    reverse_domain,
    universal,
)
from apdfilter.domspec import parse_domain_spec
from apdfilter.optimizer import (
    OptimizeError,
    initial_partition,
    optimize,
    refine,
)
from apdfilter.optimizer import class_fixpoint as block_fixpoint
from apdfilter.tdx import save_transducer
from apdfilter.transducer import build_filter


ALPHA012 = Alphabet(("0", "1", "2"))
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def binary_domain(transitions):
    """A binary domain given as (src, sym, dst) triples, every state start
    and final."""
    n = 1 + max(max(s, d) for (s, _a, d) in transitions)
    return Domain(FiniteAutomaton(ALPHA01, n, range(n), range(n), transitions))


# three binary domains with many past classes: 90 tracker states, 594
# states in P and 400 classes
SLOW_SET = (
    [(1, 0, 0), (0, 0, 2), (2, 0, 0), (3, 0, 1), (3, 1, 0), (2, 1, 3), (1, 1, 2)],
    [(2, 1, 1), (1, 1, 3), (3, 0, 0), (3, 1, 0), (1, 0, 3), (0, 0, 2), (0, 1, 2), (2, 0, 3)],
    [(0, 1, 2), (2, 0, 1), (1, 0, 0), (1, 1, 2)],
)


def relabeled(rng, fa):
    """The same domain with its states renumbered by a random permutation."""
    perm = list(range(fa.state_count))
    rng.shuffle(perm)
    return Domain(
        FiniteAutomaton(
            fa.alphabet,
            fa.state_count,
            range(fa.state_count),
            range(fa.state_count),
            [(perm[s], a, perm[d]) for (s, a, d) in fa.transitions],
        )
    )


def in_exactly_one_class(classes, max_len=8):
    alphabet = classes[0].alphabet
    for w in all_words(alphabet, max_len):
        if sum(accepts(c, w) for c in classes) != 1:
            return False
    return True


class TestResyncPasts:
    def setup_method(self):
        from helpers import d18_domain

        self.d18 = d18_domain()
        self.union = disjoint_union([self.d18.fa])
        self.tracker = determinize(self.union)

    def state_tagged(self, tag):
        return self.tracker.state_tags.index(frozenset(tag))

    def test_nonempty_target(self):
        # pasts of the pair-boundary state whose 1-extension lands on the
        # boundary-only tracker state: exactly the all-zero strings
        b = resync_pasts(self.union, self.tracker, 0, "1", self.state_tagged({0}))
        assert language(b, 8) == {"0" * n for n in range(9)}

    def test_empty_target(self):
        b = resync_pasts(self.union, self.tracker, 0, "1", self.state_tagged({1}))
        assert is_empty(b)

    def test_epsilon_membership(self):
        # the state reached by the letter alone always admits the empty past
        after_one = step_det(self.tracker, 0, 1)
        b = resync_pasts(self.union, self.tracker, 0, "1", after_one)
        assert accepts(b, "")

    def test_oracle_contract(self):
        # w is a past iff some w-path ends at the state and w + letter drives
        # the tracker from its start to the target
        rng = Random(31)
        for alphabet, max_len in ((ALPHA01, 5), (Alphabet(("0", "1", "2")), 3)):
            for _ in range(8):
                doms = [random_domain(rng, alphabet) for _ in range(rng.randint(1, 3))]
                union = disjoint_union([d.fa for d in doms])
                tracker = determinize(union)
                self.check_oracle(union, tracker, alphabet, max_len)
        self.check_oracle(self.union, self.tracker, ALPHA01, 6)

    @staticmethod
    def check_oracle(union, tracker, alphabet, max_len):
        # per word: the union states some path labeled it ends in, and the
        # tracker run from the start
        walks = []
        for w in all_words(alphabet, max_len):
            ends = frozenset(range(union.state_count))
            run = 0
            for tok in w:
                sym = alphabet.index(tok)
                ends = set_step(union, ends, sym)
                run = None if run is None else step_det(tracker, run, sym)
            walks.append((w, ends, run))
        for (state, sym) in forbidden_pairs(union):
            token = alphabet.symbols[sym]
            for target in range(tracker.state_count):
                b = resync_pasts(union, tracker, state, token, target)
                want = {
                    w
                    for w, ends, run in walks
                    if state in ends
                    and run is not None
                    and step_det(tracker, run, sym) == target
                }
                assert language(b, max_len) == want, (state, token, target)

    def test_needs_every_union_state_as_start(self):
        union = FiniteAutomaton(
            ALPHA01, 2, frozenset([0]), frozenset([0, 1]), self.union.transitions
        )
        with pytest.raises(ValueError, match="every union state must be a start"):
            resync_pasts(union, determinize(union), 0, "1", 0)

    def test_not_forbidden_rejected(self):
        with pytest.raises(ValueError, match="not forbidden"):
            resync_pasts(self.union, self.tracker, 1, "0", 0)


class TestDisjoin:
    def test_singleton(self, d18):
        assert disjoin([d18.fa]) == [minimize(d18.fa)]

    def test_universal_vs_domain(self, d18):
        classes = disjoin([universal(ALPHA01), d18.fa])
        assert len(classes) == 2
        assert in_exactly_one_class(classes)
        # one class is the domain itself
        assert minimize(d18.fa) in classes

    def test_two_cycles(self):
        a, b = cyclic_domain("01", ALPHA01), cyclic_domain("0011", ALPHA01)
        classes = disjoin([a.fa, b.fa])
        assert len(classes) == 3
        # pairwise disjoint, covering exactly the union
        for i, x in enumerate(classes):
            for y in classes[i + 1 :]:
                assert language(x, 8).isdisjoint(language(y, 8))
        union_lang = language(a.fa, 8) | language(b.fa, 8)
        got = set()
        for x in classes:
            got |= language(x, 8)
        assert got == union_lang
        # compatibility: each input language is a union of classes
        for fa in (a.fa, b.fa):
            for cls in classes:
                overlap = language(fa, 8) & language(cls, 8)
                assert overlap in (set(), language(cls, 8))

    def test_empty_inputs_pruned(self, d18):
        from apdfilter.automata import empty_language

        assert disjoin([empty_language(ALPHA01)]) == []
        assert disjoin([d18.fa, empty_language(ALPHA01)]) == [minimize(d18.fa)]

    def test_duplicates_merge(self, d18):
        assert disjoin([d18.fa, d18.fa]) == [minimize(d18.fa)]

    def test_membership_signature_oracle(self):
        # the classes are exactly the non-empty sets of words that share
        # which inputs accept them
        rng = Random(17)
        for alphabet in (ALPHA01, Alphabet(("0", "1", "2"))):
            for _ in range(40):
                machines = [
                    random_nfa(rng, alphabet, max_states=3)
                    for _ in range(rng.randint(0, 5))
                ]
                if machines:
                    machines.append(rng.choice(machines))
                    machines.insert(rng.randrange(len(machines)), empty_language(alphabet))
                max_len = 6 if len(alphabet) == 2 else 5
                signatures: dict[tuple[bool, ...], set[str]] = {}
                for w in all_words(alphabet, max_len):
                    sig = tuple(accepts(fa, w) for fa in machines)
                    if any(sig):
                        signatures.setdefault(sig, set()).add(w)
                classes = disjoin(machines)
                assert classes == sorted(classes, key=canonical_key)
                assert all(cls == minimize(cls) for cls in classes)
                assert sorted(sorted(language(cls, max_len)) for cls in classes) == sorted(
                    sorted(words) for words in signatures.values()
                )


class TestInitialClasses:
    def test_single_letter_domain_trivial(self):
        zero = Alphabet(("0",))
        classes = past_classes(initial_partition([cyclic_domain("0", zero)]))
        assert classes[0] == (minimize(universal(zero)),)

    def test_d18_partitions(self, d18):
        classes = past_classes(initial_partition([d18]))
        assert classes == initial_classes([d18])
        for s, cls in classes.items():
            assert check_partition(cls)
            assert in_exactly_one_class(cls)

    def test_multi_domain_partitions(self, runs01):
        doms = runs01 + [cyclic_domain("01", ALPHA01)]
        classes = past_classes(initial_partition(doms))
        assert classes == initial_classes(doms)
        for s, cls in classes.items():
            assert check_partition(cls)
        # the two run states split by last-seen letter
        sizes = [len(classes[s]) for s in sorted(classes)]
        assert sizes == [2, 2, 2, 2]

    @pytest.mark.parametrize(
        "domains, warned",
        [
            ([cyclic_domain("0", ALPHA01)], [0]),
            # the all-{0,1} shift forbids only 2, which no domain reads;
            # the 01 cycle's states also forbid a letter that some domain reads
            (
                [
                    cyclic_domain("01", ALPHA012),
                    Domain(FiniteAutomaton(ALPHA012, 1, [0], [0], [(0, 0, 0), (0, 1, 0)])),
                ],
                [2],
            ),
        ],
        ids=["zeros-over-01", "shift-over-012"],
    )
    def test_complement_warning(self, caplog, domains, warned):
        with caplog.at_level(logging.WARNING):
            got = past_classes(initial_partition(domains))
            want = initial_classes(domains)
        assert got == want
        by_logger: dict[str, list] = {"apdfilter.optimizer": [], "helpers": []}
        for record in caplog.records:
            assert "adding complement" in record.getMessage()
            by_logger[record.name].append(record.args[0])
        assert by_logger == {"apdfilter.optimizer": warned, "helpers": warned}


class TestRefine:
    def test_fixpoint_unchanged(self, d18):
        part = initial_partition([d18])
        assert refine(part) == part
        assert refinement_stages([d18]) == oracle_stages([d18])

    def test_multi_pass_refinement(self):
        doms = [cyclic_domain("01", ALPHA01), cyclic_domain("001", ALPHA01)]
        stages = refinement_stages(doms)
        assert stages == oracle_stages(doms)
        part = initial_partition(doms)
        assert refine(part) != part
        _fixed, passes = block_fixpoint(part)
        assert passes == len(stages) - 1 == 2
        # monotone class counts and valid partitions at every stage
        for before, after in zip(stages, stages[1:]):
            for s in before:
                assert len(before[s]) <= len(after[s])
        for stage in stages:
            for cls in stage.values():
                assert check_partition(cls)

    def test_pass_cap_is_loud(self, monkeypatch):
        doms = [cyclic_domain("01", ALPHA01), cyclic_domain("00101", ALPHA01)]
        part = initial_partition(doms)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "MAX_PASSES", 2)
            with pytest.raises(OptimizeError, match="did not stabilize within 2"):
                block_fixpoint(part)
        _fixed, passes = block_fixpoint(part)
        assert passes == 4
        union = disjoint_union([d.fa for d in doms])
        assert class_fixpoint(union, initial_classes(doms))[1] == 4

    def test_random_sets_match_oracle(self):
        # every stage's class map, hence also the pass count, equals the
        # language-algebra reference on seeded random sets
        rng = Random(60)
        for alphabet, max_states, max_domains in ((ALPHA01, 4, 3), (ALPHA012, 3, 2)):
            for _ in range(20):
                doms = [
                    random_domain(rng, alphabet, max_states)
                    for _ in range(rng.randint(1, max_domains))
                ]
                assert refinement_stages(doms) == oracle_stages(doms)


class TestOptimize:
    def test_single_letter_unchanged(self):
        zero = Alphabet(("0",))
        dom = cyclic_domain("0", zero)
        (split,) = optimize([dom])
        assert split.domain.fa.state_count == 1
        assert equivalent(split.domain.fa, dom.fa)

    def test_languages_preserved(self, d18, cyc001, runs01):
        for doms in ([d18], [cyc001], runs01):
            for sd in optimize(doms):
                assert language(sd.domain.fa, 10) == language(sd.original.fa, 10)

    def test_one_subset_construction_for_the_past(self, d18, runs01, determinize_calls):
        # the tracker is read off its step table, never determinized again;
        # P, on the tracker's states plus a hub, is the one construction
        optimize([d18, *runs01])
        (nfa,) = determinize_calls
        assert nfa.state_count == len(build_tracker([d18, *runs01]).masks) + 1

    def test_domains_build_no_memo_cache(self):
        # validation reads a domain's arcs as they stand, and a build reads
        # them off its union: no parsed, split or reversed domain of a build
        # keeps a memo cache, so each holds its dataclass fields alone
        _alphabet, parsed = parse_domain_spec((GOLDEN / "rule110.dom").read_text())
        domains = [pd.domain for pd in parsed]
        split = [sd.domain for sd in optimize(domains)]
        build_filter(domains)
        build_filter(split)
        fields = {f.name for f in dataclasses.fields(FiniteAutomaton)}
        for d in domains + split + [reverse_domain(d) for d in domains]:
            assert vars(d.fa).keys() == fields

    def test_strict_growth_with_ambiguous_third_domain(self, runs01):
        doms = runs01 + [cyclic_domain("01", ALPHA01)]
        split = optimize(doms)
        before = sum(d.fa.state_count for d in doms)
        after = sum(sd.domain.fa.state_count for sd in split)
        assert after > before
        for sd in split:
            assert language(sd.domain.fa, 10) == language(sd.original.fa, 10)
            # member naming: (original state, class ordinal), the ordinals
            # at each original state running 0..c-1
            ordinals: dict[int, list[int]] = {}
            for (s, j) in sd.members:
                ordinals.setdefault(s, []).append(j)
            assert sorted(ordinals) == list(range(sd.original.fa.state_count))
            for js in ordinals.values():
                assert sorted(js) == list(range(len(js)))

    def test_filter_from_split_domains(self, runs01):
        split = optimize(runs01)
        t = build_filter([sd.domain for sd in split])
        assert None not in t.next
        union = disjoint_union([sd.domain.fa for sd in split])
        for (_source, target) in t.breaks:
            origins = {union.state_tags[m][0] for m in t.state_tags[target]}
            assert len(origins) == 1

    def test_split_keeps_non_recurrent_states(self, runs01):
        from apdfilter.automata import is_strongly_connected

        doms = runs01 + [cyclic_domain("01", ALPHA01)]
        split = optimize(doms)
        assert any(not is_strongly_connected(sd.domain.fa) for sd in split)

    def test_slow_set(self):
        doms = [binary_domain(ts) for ts in SLOW_SET]
        split = optimize(doms)
        assert sum(sd.domain.fa.state_count for sd in split) == 400
        for sd in split:
            assert language(sd.domain.fa, 10) == language(sd.original.fa, 10)
        assert None not in build_filter([sd.domain for sd in split]).next

    def test_classes_ordered_by_shortlex_least_past(self, runs01):
        # P is numbered breadth-first and blocks by first occurrence, so
        # class 0 holds P's start (the empty past), the first P-state of
        # each class grows with j, and so does its shortlex-least past
        rng = Random(9)
        sets = [runs01 + [cyclic_domain("01", ALPHA01)], [binary_domain(SLOW_SET[2])]]
        sets += [[random_domain(rng, ALPHA012, 3) for _ in range(2)] for _ in range(4)]
        for doms in sets:
            part, _passes = block_fixpoint(initial_partition(doms))
            past = part.past
            least: dict[int, str] = {}  # P-state -> its shortlex-least word
            for w in all_words(past.alphabet, past.state_count):
                q = 0
                for c in w:
                    q = step_det(past, q, past.alphabet.index(c))
                least.setdefault(q, w)
                if len(least) == past.state_count:
                    break
            for row in part.blocks:
                assert row[0] == 0
                firsts: list[int] = []
                for p, b in enumerate(row):
                    if b == len(firsts):
                        firsts.append(p)
                    assert b < len(firsts)
                words = [least[p] for p in firsts]
                assert words == sorted(words, key=lambda w: (len(w), w))
            # split state (s, j) is block j at s: every P-state of that block
            # steps into the block of the split transition's target
            off = 0
            for sd in optimize(doms):
                for (n, sym, n2) in sd.domain.fa.transitions:
                    (s, j), (s2, j2) = sd.members[n], sd.members[n2]
                    row, row2 = part.blocks[off + s], part.blocks[off + s2]
                    assert {
                        row2[step_det(past, p, sym)] for p, b in enumerate(row) if b == j
                    } == {j2}
                off += sd.original.fa.state_count

    def test_filter_independent_of_state_numbering(self, d18, runs01):
        # tracker states are subsets in discovery order, so renumbering the
        # split states leaves the filter byte-identical
        rng = Random(23)
        sets = [[d18], runs01 + [cyclic_domain("01", ALPHA01)]]
        sets += [[random_domain(rng, ALPHA01, 4) for _ in range(3)] for _ in range(4)]
        for doms in sets:
            split = [sd.domain for sd in optimize(doms)]
            want = save_transducer(build_filter(split))
            for _trial in range(3):
                shuffled = [relabeled(rng, d.fa) for d in split]
                assert save_transducer(build_filter(shuffled)) == want
