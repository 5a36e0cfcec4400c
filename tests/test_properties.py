"""Property tests: generated automata, domain sets and words, checked
against the brute-force oracles.  The derandomized profile loaded in
``conftest.py`` and a fixed ``max_examples`` make every run test the same
cases in about the same time."""

import contextlib
import io
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from helpers import (
    ALPHA01,
    accepting_domains,
    all_words,
    brute_maximal_cover,
    d18_domain,
    filter_global_full_window,
    full_window_codes,
    language,
    parse_pgm,
    random_domain,
    random_nfa,
    reference_accepts,
    reference_bidirectional,
    reference_determinize,
    reference_evolve,
    reference_intersect,
    reference_random_row,
    resync_walk_size,
    scan_trace,
    sigma_star_prefix,
    stack_letter_outputs,
    tracker_dfa,
    transition_table,
    walk_arc_table,
    zero_cycle_domain,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apdfilter.automata import (
    Alphabet,
    Domain,
    FiniteAutomaton,
    accepts,
    build_tracker,
    complement,
    cyclic_domain,
    determinize,
    disjoint_union,
    equivalent,
    intersect,
    is_strongly_connected,
    minimize,
    reverse_domain,
)
from apdfilter import cli, stackfilter
from apdfilter.ca import (
    MAX_RULE_TABLE,
    RANDOM_CHUNK,
    CodedDiagram,
    SpaceTimeDiagram,
    evolve,
    filter_diagram,
    random_row,
    rule_from_number,
)
from apdfilter.domspec import ParsedDomain, format_domain_spec, parse_domain_spec, spec_digest
from apdfilter.optimizer import OptimizeError, class_fixpoint, initial_partition, optimize, past_automaton
from apdfilter.render import emit_csv, emit_pgm, gray
from apdfilter.stackfilter import FilterStats, filter_global, filter_local
from apdfilter.tdx import load_transducer, save_transducer
from apdfilter.transducer import (
    BLOCK_LETTERS_PER_ENTRY,
    LANE_ROWS,
    Transducer,
    _bidi_lanes,
    bidi_codes,
    bidirectional,
    bidirectional_filters,
    build_filter,
    resync,
    symbol_code,
    transduce_codes,
    walk_codes,
    walk_text,
)

ALPHA012 = Alphabet(("0", "1", "2"))
ALPHABETS = st.sampled_from([ALPHA01, ALPHA012])
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN_FILTERS = [
    load_transducer((GOLDEN / f"{name}.tdx").read_text())[0]
    for name in ("d18", "runs", "rule110", "optimized-d18", "optimized-runs", "optimized-rule110")
]


def words(alphabet: Alphabet, min_size: int = 0, max_size: int = 16):
    return st.text(st.sampled_from(alphabet.symbols), min_size=min_size, max_size=max_size)


@st.composite
def nfa_and_words(draw) -> tuple[FiniteAutomaton, list[str]]:
    """An arbitrary automaton of 0-6 states (start and final sets may be
    empty, arcs may be nondeterministic) and several words to query it with."""
    alphabet = draw(ALPHABETS)
    n = draw(st.integers(0, 6))
    state = st.integers(0, n - 1) if n else st.nothing()
    arcs = draw(st.frozensets(st.tuples(state, st.integers(0, len(alphabet) - 1), state)))
    fa = FiniteAutomaton(
        alphabet, n, draw(st.frozensets(state)), draw(st.frozensets(state)), arcs
    )
    return fa, draw(st.lists(words(alphabet, max_size=12), min_size=1, max_size=6))


@st.composite
def domain(draw, alphabet: Alphabet) -> Domain:
    """A semi-deterministic domain of up to 4 states, not necessarily
    strongly connected: at most one arc per (state, letter)."""
    n = draw(st.integers(1, 4))
    state, letter = st.integers(0, n - 1), st.integers(0, len(alphabet) - 1)
    arcs = draw(st.lists(st.tuples(state, letter, state), unique_by=lambda arc: arc[:2]))
    return Domain(FiniteAutomaton(alphabet, n, range(n), range(n), frozenset(arcs)))


@st.composite
def domains_and_word(draw, min_size: int = 0, max_size: int = 16) -> tuple[list[Domain], str]:
    alphabet = draw(ALPHABETS)
    domains = draw(st.lists(domain(alphabet), min_size=1, max_size=3))
    return domains, draw(words(alphabet, min_size, max_size))


@st.composite
def domains_and_calls(draw) -> tuple[list[Domain], list[tuple[bool, str]]]:
    """A domain set and a sequence of stack covers to ask of it: (periodic,
    word) for ``filter_global`` or ``filter_local``."""
    alphabet = draw(ALPHABETS)
    domains = draw(st.lists(domain(alphabet), min_size=1, max_size=3))
    calls = st.tuples(st.booleans(), words(alphabet, min_size=1, max_size=12))
    return domains, draw(st.lists(calls, min_size=1, max_size=8))


@st.composite
def domains_and_diagrams(draw) -> tuple[list[Domain], list[SpaceTimeDiagram]]:
    """A seeded ``random_domain`` set of 1-3 domains and 1-3 small CA
    diagrams over its alphabet: rule tables at r = 1, 1-10 cells, 0-5
    steps, so that rows and their representatives repeat."""
    alphabet = draw(ALPHABETS)
    k = len(alphabet)
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    domains = [random_domain(rng, alphabet) for _ in range(draw(st.integers(1, 3)))]
    diagrams = [
        evolve(
            rule_from_number(k, 1, draw(st.integers(0, k ** k**3 - 1))),
            random_row(k, draw(st.integers(1, 10)), draw(st.integers(0, 2**16))),
            draw(st.integers(0, 5)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return domains, diagrams


@st.composite
def ca_runs(draw) -> tuple[int, int, int, list[int], int, str]:
    """(k, r, rule number, initial row, steps, domain word): k in 2..10, r
    in 1..2, 1-20 cells (some rows narrower than the neighborhood), 0-8
    steps, and a cycle word over the k symbols for the filter.  Rule numbers
    set the outputs of the first 64 neighborhoods at most, so that they stay
    short enough for the command line."""
    k, r = draw(st.integers(2, 10)), draw(st.integers(1, 2))
    size = k ** (2 * r + 1)
    assert size <= MAX_RULE_TABLE
    number = draw(st.integers(0, k ** min(size, 64) - 1))
    cell = st.integers(0, k - 1)
    row = draw(st.lists(cell, min_size=1, max_size=20))
    word = "".join(map(str, draw(st.lists(cell, min_size=1, max_size=3))))
    return k, r, number, row, draw(st.integers(0, 8)), word


@settings(max_examples=80)
@given(case=ca_runs())
def test_ca_text_round_trips(tmp_path_factory, case):
    # the `ca` text reads back as the evolved rows, which match the rule
    # applied to each wrapped neighborhood, and `ca-filter` on that text
    # gives the codes of filtering the diagram in-process
    k, r, number, row, steps, word = case
    rule = rule_from_number(k, r, number)
    diagram = evolve(rule, row, steps)
    n = len(row)
    for prev, nxt in zip(diagram.rows, diagram.rows[1:]):
        hood = [[prev[(j + d) % n] for d in range(-r, r + 1)] for j in range(n)]
        assert nxt == bytes(map(rule.apply, hood))
    tmp = tmp_path_factory.mktemp("ca")
    text, tdx, csv = tmp / "st.txt", tmp / "f.tdx", tmp / "out.csv"
    argv = ["--k", str(k), "--r", str(r), "--rule", str(number), "--steps", str(steps)]
    init = "word:" + "".join(map(str, row))
    assert cli.main(["ca", *argv, "--init", init, "-o", str(text)]) == 0
    assert cli._read_diagram(str(text)).rows == diagram.rows
    t = build_filter([cyclic_domain(word, Alphabet(tuple(map(str, range(k)))))])
    tdx.write_text(save_transducer(t))
    argv = ["--filter", str(tdx), "--input", str(text), "--format", "csv", "-o", str(csv)]
    assert cli.main(["ca-filter", "--method", "transducer", *argv]) == 0
    want = filter_diagram("transducer", t, diagram).codes
    assert [tuple(map(int, line.split(","))) for line in csv.read_text().splitlines()] == list(want)


@st.composite
def evolve_runs(draw) -> tuple[int, int, int, list[int], int]:
    """(k, r, rule number, initial row, steps): rule tables on both sides
    of the 256 entries that byte lanes take (243 = 3**5 is the largest
    below, 343 = 7**3 the smallest above), 1-12 cells and 0-8 steps.  The
    rule and the cells are uniform from a drawn seed: drawn directly, they
    lean to 0, and rows die out before high neighborhoods occur."""
    k, r = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (6, 1), (7, 1), (2, 4), (4, 2)]))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    number = rng.randrange(k ** k ** (2 * r + 1))
    row = [rng.randrange(k) for _ in range(draw(st.integers(1, 12)))]
    return k, r, number, row, draw(st.integers(0, 8))


@settings(max_examples=150)
@given(case=evolve_runs())
def test_evolve_is_the_rolling_index(case):
    # every prefix of the row, so that each example has rows narrower than
    # the neighborhood, which wrap around more than once
    k, r, number, row, steps = case
    rule = rule_from_number(k, r, number)
    for width in range(1, len(row) + 1):
        rows = evolve(rule, row[:width], steps).rows
        assert rows == tuple(map(bytes, reference_evolve(rule, row[:width], steps))), width


@pytest.mark.parametrize("k", [1, 2, 3, 7, 10, 255, 256])
def test_random_row_is_splitmix64(k):
    # widths on both sides of one and two chunk edges; seeds past both ends
    # of the 64-bit state
    widths = [1, 2, RANDOM_CHUNK - 1, RANDOM_CHUNK, RANDOM_CHUNK + 1, 2 * RANDOM_CHUNK + 3]
    for width in widths:
        for seed in [0, 1, -5, 2**64 - 1, 2**64 + 3]:
            assert random_row(k, width, seed) == reference_random_row(k, width, seed), (width, seed)


@settings(max_examples=300)
@given(nfa_and_words())
def test_accepts_is_the_set_simulation(case):
    fa, queries = case
    # the second round runs on the table the first one filled
    for word in queries * 2:
        assert accepts(fa, word) == reference_accepts(fa, word), word
        assert accepts(fa, list(word)) == reference_accepts(fa, word), word


@settings(max_examples=300)
@given(nfa_and_words())
def test_determinize_is_the_frozenset_construction(case):
    fa, queries = case
    if not fa.starts:
        with pytest.raises(ValueError, match="no start states"):
            determinize(fa)
        return
    assert determinize(fa) == reference_determinize(fa)
    # again on rows that accepts has partly filled
    fa = FiniteAutomaton(fa.alphabet, fa.state_count, fa.starts, fa.finals, fa.transitions)
    for word in queries:
        accepts(fa, word)
    assert determinize(fa) == reference_determinize(fa)


@st.composite
def nfa_pairs(draw) -> tuple[FiniteAutomaton, FiniteAutomaton]:
    """Two automata of 0-6 states over one alphabet of 1-3 letters, with
    any number of starts; now and then their arcs share no letter, so no
    pair has a successor."""
    alphabet = Alphabet(tuple("012"[: draw(st.integers(1, 3))]))
    k = len(alphabet)
    split = draw(st.integers(0, k)) if draw(st.booleans()) else None

    def nfa(letters: range) -> FiniteAutomaton:
        n = draw(st.integers(0, 6))
        state = st.integers(0, n - 1) if n else st.nothing()
        letter = st.sampled_from(letters) if letters else st.nothing()
        arcs = draw(st.frozensets(st.tuples(state, letter, state)))
        return FiniteAutomaton(alphabet, n, draw(st.frozensets(state)), draw(st.frozensets(state)), arcs)

    if split is None:
        return nfa(range(k)), nfa(range(k))
    return nfa(range(split)), nfa(range(split, k))


@settings(max_examples=200)
@given(nfa_pairs())
def test_intersect_is_the_queue_construction(pair):
    a, b = pair
    got, want = intersect(a, b), reference_intersect(a, b)
    assert got.state_count == want.state_count
    assert (got.starts, got.finals) == (want.starts, want.finals)
    assert got.transitions == want.transitions
    assert got.state_tags == want.state_tags


@st.composite
def machine(draw) -> FiniteAutomaton:
    """A ``random_nfa`` machine, the same with no start state, or a random
    complete DFA, which needs no sink."""
    alphabet, rng = draw(ALPHABETS), draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["nfa", "no start", "complete dfa"]))
    if kind == "complete dfa":
        n, k = rng.randint(1, 6), len(alphabet)
        arcs = {(s, sym, rng.randrange(n)) for s in range(n) for sym in range(k)}
        return FiniteAutomaton(alphabet, n, {rng.randrange(n)}, {s for s in range(n) if rng.random() < 0.4}, arcs)
    fa = random_nfa(rng, alphabet)
    return replace(fa, starts=()) if kind == "no start" else fa


@settings(max_examples=150)
@given(machine())
def test_minimize_and_complement_share_one_complete_dfa(fa):
    assert minimize(fa) == minimize(disjoint_union([fa, fa])) == minimize(complement(complement(fa)))
    assert language(complement(fa), 6) == frozenset(all_words(fa.alphabet, 6)) - language(fa, 6)


@settings(max_examples=200)
@given(domains_and_word())
def test_tracker_is_the_frozenset_construction(case):
    domains, _word = case
    tracker = build_tracker(domains)
    ref = reference_determinize(tracker.union)
    table, origin = transition_table(ref), tracker.union.state_tags
    assert tracker.step == tuple(
        tuple(table[q][sym][0] if sym in table[q] else None for q in range(ref.state_count))
        for sym in range(len(tracker.alphabet))
    )
    assert tracker.masks == tuple(sum(1 << u for u in tag) for tag in ref.state_tags)
    assert tracker.state_domains == tuple(
        frozenset(origin[u][0] + 1 for u in tag) for tag in ref.state_tags
    )


@settings(max_examples=200)
@given(domains_and_word())
def test_past_automaton_is_the_prefixed_tracker(case):
    # P read off the step table is the subset construction of the tracker
    # automaton behind a hub: the same numbering, finals and tags
    domains, _word = case
    tracker = build_tracker(domains)
    assert past_automaton(tracker) == determinize(sigma_star_prefix(tracker_dfa(tracker)))


def decided_outputs(tracker, max_prefix: int, length: int) -> dict[str, int]:
    """Every prefix of 1..max_prefix letters that decides the stack output
    of its last letter (each extension to ``length`` letters gives that
    letter the same output), with that output."""
    seen: dict[str, set[int]] = {}
    for word in all_words(tracker.alphabet, length, length):
        out = stack_letter_outputs(tracker, word)
        for n in range(1, max_prefix + 1):
            seen.setdefault(word[:n], set()).add(out[n - 1])
    return {p: outs.pop() for p, outs in seen.items() if len(outs) == 1}


@pytest.mark.parametrize("name, decided_count", [("runs", 124), ("d18", 134), ("rule110", 116)])
def test_filter_emits_every_decided_stack_output(name, decided_count):
    # the paper's optimality claim where brute force can check it: an
    # immediate-output filter cannot know more than the prefix read, and
    # the best one knows no less, so where the prefix decides the stack
    # output of its last letter the filter emits it, plain or optimized
    _alphabet, parsed = parse_domain_spec((GOLDEN / f"{name}.dom").read_text())
    domains = [pd.domain for pd in parsed]
    decided = decided_outputs(build_tracker(domains), 7, 11)
    assert len(decided) == decided_count
    for t in (build_filter(domains), build_filter([sd.domain for sd in optimize(domains)])):
        for prefix, want in decided.items():
            assert max(transduce_codes(t, prefix)[-1], -1) == want, prefix


@settings(max_examples=100)
@given(domains_and_word())
def test_filter_local_is_the_maximal_cover(case):
    domains, word = case
    cover = filter_local(build_tracker(domains), word)
    assert list(cover.intervals) == brute_maximal_cover(domains, word)
    assert cover.domain_sets == tuple(
        accepting_domains(domains, word[a - 1 : b]) for (a, b) in cover.intervals
    )


@settings(max_examples=200)
@given(domains_and_word(min_size=1, max_size=9))
def test_filter_global_early_stop_is_the_full_window(case):
    domains, period_word = case
    tracker = build_tracker(domains)
    assert filter_global(tracker, period_word) == filter_global_full_window(tracker, period_word)


@settings(max_examples=200)
@given(domains_and_word(min_size=1, max_size=9))
def test_filter_global_stops_where_the_scan_turns_periodic(case):
    # over the whole window, at the scan's stop step j the live pairs with
    # their ages are the ones at j - N, so the scan repeats every N letters
    # from j - N on; the scan stops exactly when some boundary kN (k >= 2)
    # repeats the configuration, ages included, of (k-1)N, and j is no
    # later than the first such boundary
    domains, period_word = case
    tracker = build_tracker(domains)
    n, m = len(period_word), max(d.fa.state_count for d in domains)
    syms = tracker.alphabet.encode(period_word)
    trace = scan_trace(tracker, list(syms) * (m + 1))
    stop = stackfilter._scan(tracker, syms, repeats=m + 1)[3]
    repeat = next((k * n for k in range(2, m + 2) if trace[k * n] == trace[(k - 1) * n]), 0)
    assert bool(stop) == bool(repeat)
    if stop:
        assert n < stop <= repeat
        assert trace[stop] == trace[stop - n]


@settings(max_examples=200)
@given(domains_and_word(min_size=1, max_size=9))
def test_filter_global_reads_the_last_scanned_period(case):
    # the cover is whole exactly when the scan ran all m+1 copies without
    # stopping, and then its domains are the flushed pair's; otherwise each
    # representative is an emission of the last N steps the scan ran,
    # shifted to start in 1..N, and its domains are the dying set the scan
    # recorded
    domains, period_word = case
    tracker = build_tracker(domains)
    n, m = len(period_word), max(d.fa.state_count for d in domains)
    syms = tracker.alphabet.encode(period_word)
    intervals, domain_sets, last, stop = stackfilter._scan(tracker, syms, repeats=m + 1)
    cover = filter_global(tracker, period_word)
    j = stop or (m + 1) * n
    # an emission at step s ends at s - 1
    assert all(b < j - n for (_a, b) in intervals[: last.start])
    assert all(j - n <= b < j for (_a, b) in intervals[last])
    assert cover.whole_string == (not stop)
    if not stop:
        assert intervals == [(1, (m + 1) * n)]
        assert cover.whole_domains == domain_sets[-1]
    shifted = sorted(
        ((a - (a - 1) // n * n, b - (a - 1) // n * n), doms)
        for (a, b), doms in zip(intervals[last], domain_sets[last])
    )
    assert list(zip(cover.intervals, cover.domain_sets)) == shifted


@settings(max_examples=100)
@given(domains_and_calls(), st.sampled_from([1, 2, stackfilter.MAX_SCAN_CONFIGS]))
def test_shared_tracker_gives_fresh_tracker_covers(case, cap):
    # one tracker's kept scan table, filled in any call order and reset at
    # any cap, gives every call the cover and the advances of a fresh tracker
    domains, calls = case
    shared = build_tracker(domains)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stackfilter, "MAX_SCAN_CONFIGS", cap)
        for periodic, word in calls:
            cover = filter_global if periodic else filter_local
            got, want = FilterStats(), FilterStats()
            assert cover(shared, word, got) == cover(build_tracker(domains), word, want), word
            assert got.pair_advances == want.pair_advances, word


@settings(max_examples=200)
@given(domains_and_diagrams(), st.sampled_from([1, 16, stackfilter.MAX_LABEL_LETTERS]))
def test_kept_label_memo_gives_the_full_window_codes(case, cap):
    # several diagrams coded through one kept tracker, its label memo
    # filled and read across them and reset at any cap: every row's codes
    # are the full window's, and every memo entry is its key's domain set
    domains, diagrams = case
    tracker = build_tracker(domains)
    tokens = tracker.alphabet.symbols
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stackfilter, "MAX_LABEL_LETTERS", cap)
        patch.setattr(stackfilter, "build_tracker", lambda _domains: tracker)
        for diagram in diagrams:
            words = ("".join(map(tokens.__getitem__, row)) for row in diagram.rows)
            want = tuple(full_window_codes(tracker, word) for word in words)
            assert stackfilter.periodic_codes(domains, diagram.rows) == want
    for text, doms in tracker.scan_automaton.labels.items():
        assert doms == accepting_domains(domains, text), text


@settings(max_examples=40)
@given(domains_and_word())
def test_domain_files_round_trip(case):
    # .dom -> parse -> format -> parse keeps every language and state name,
    # for generated domains and for the split domains optimize writes;
    # domains that are not strongly connected are written nonrecurrent
    domains, _word = case
    alphabet = domains[0].alphabet
    parsed = [
        ParsedDomain(f"D{i}", d, tuple(f"q{s}" for s in range(d.fa.state_count)))
        for i, d in enumerate(domains, 1)
    ]
    for pds in (parsed, cli._split_to_parsed(optimize(domains), parsed)):
        nonrecurrent = not all(is_strongly_connected(pd.domain.fa) for pd in pds)
        _alphabet, once = parse_domain_spec(format_domain_spec(alphabet, pds, nonrecurrent))
        got_alphabet, twice = parse_domain_spec(format_domain_spec(alphabet, once, nonrecurrent))
        assert got_alphabet == alphabet
        assert [(pd.name, pd.state_names) for pd in twice] == [
            (pd.name, pd.state_names) for pd in pds
        ]
        assert all(equivalent(a.domain.fa, b.domain.fa) for a, b in zip(pds, twice))


@settings(max_examples=40)
@given(domains_and_word())
def test_filter_files_round_trip(case):
    # .tdx -> save -> load -> save is byte-equal, plain and optimized, with
    # and without the domain file's digest
    domains, word = case
    digest = spec_digest(word) if word else None
    for t in (build_filter(domains), build_filter([sd.domain for sd in optimize(domains)])):
        text = save_transducer(t, digest)
        loaded, got_digest = load_transducer(text)
        assert got_digest == digest
        assert save_transducer(loaded, got_digest) == text


@st.composite
def filter_runs(draw):
    """A filter, built from a generated domain set or read from a golden
    ``.tdx`` file, and a string over its alphabet, empty now and then."""
    if draw(st.booleans()):
        domains, word = draw(domains_and_word(max_size=30))
        return build_filter(domains), word
    t = draw(st.sampled_from(GOLDEN_FILTERS))
    return t, draw(words(t.alphabet, max_size=60))


@settings(max_examples=150)
@given(case=filter_runs(), mode=st.sampled_from(["linear", "circular"]), fmt=st.sampled_from(["csv", "pgm"]))
def test_run_writes_the_coded_diagram(tmp_path_factory, case, mode, fmt):
    # `run` writes each letter's text off the filter's arcs; it is the CSV
    # or PGM of the wire codes in a one-row diagram, and where those fail
    # (an empty string: circular, or as PGM) it fails with their message
    t, word = case
    tmp = tmp_path_factory.mktemp("run")
    tdx, out = tmp / "f.tdx", tmp / "out"
    tdx.write_text(save_transducer(t))
    try:
        labeled = CodedDiagram((tuple(transduce_codes(t, word, mode)),), t.domain_count, len(t.breaks))
        want, message = emit_pgm(labeled) if fmt == "pgm" else emit_csv(labeled).encode(), ""
    except ValueError as e:
        want, message = None, f"error: {e}\n"
    argv = ["run", "--filter", str(tdx), "--input", word, "--format", fmt, "-o", str(out)]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv + ["--circular"] * (mode == "circular"))
    assert (code, err.getvalue()) == ((2, message) if want is None else (0, ""))
    if want is not None:
        assert out.read_bytes() == want
        codes, n = labeled.codes[0], t.domain_count
        if fmt == "pgm":
            assert parse_pgm(want) == [[gray(c, n) for c in codes]]
        else:
            assert want == (",".join(map(str, codes)) + "\n").encode()


# a filter over 300 letters: ``Alphabet.encode`` reads its strings into a
# list, not bytes, and its walks keep one letter a block
WIDE_ALPHABET = Alphabet(tuple(chr(0x100 + i) for i in range(300)))
WIDE_FILTER = build_filter([cyclic_domain(WIDE_ALPHABET.symbols[:2], WIDE_ALPHABET)])


@st.composite
def block_walks(draw):
    """A filter and a string of a length where ``block_length`` doubles (up
    to 25 000 letters) plus 7, so that its prefixes from one letter short of
    that length meet every remainder of every block length b <= 8 (each
    such length is a multiple of 32), as symbol indices and as text.  The
    filter is the 3-state d18 filter, which reaches b = 2, 4 and 8, the
    one-state filter over a one-letter alphabet, which stays at b = 1, the
    300-letter ``WIDE_FILTER``, which no block length fits (its strings
    have 107 letters), or one built from 1-3 ``random_domain`` domains,
    plain or optimized."""
    kind = draw(st.sampled_from(["d18", "unary", "wide", "random"]))
    if kind == "d18":
        t = GOLDEN_FILTERS[0]
    elif kind == "unary":
        t = build_filter([cyclic_domain("0", Alphabet(("0",)))])
    elif kind == "wide":
        t = WIDE_FILTER
    else:
        alphabet = draw(ALPHABETS)
        seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
        domains = [random_domain(Random(seed), alphabet) for seed in seeds]
        try:
            domains = [sd.domain for sd in optimize(domains)] if draw(st.booleans()) else domains
        except OptimizeError:
            pass
        t = build_filter(domains)
    k = len(t.alphabet)
    entries = [t.state_count * k**b for b in (2, 4, 8) if k**b <= 256]
    doublings = [BLOCK_LETTERS_PER_ENTRY * e for e in entries if BLOCK_LETTERS_PER_ENTRY * e <= 25_000] or [100]
    n = draw(st.sampled_from(doublings)) + 7
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    symbols = [rng.randrange(k) for _ in range(n)]
    return t, symbols, "".join(map(t.alphabet.symbols.__getitem__, symbols))


@settings(max_examples=40)
@given(case=block_walks(), sep=st.sampled_from([",", " "]))
def test_block_walk_is_the_letter_walk(case, sep):
    # the filter composed over b-letter blocks, a tail of n mod b letters
    # walked one at a time from where the blocks end, and in circular mode
    # a warm-up lap over both: the joined texts of a walk one arc at a
    # time; the codes of ``walk_codes`` are that walk's too
    t, symbols, word = case
    texts = [f"{c}:{i}" for i, c in enumerate(t.code)]  # one text per arc, so a wrong state shows
    for n in range(len(word) - 8, len(word) + 1):
        for circular in (False, True)[: 1 + (n > 0)]:  # circular mode needs a letter
            mode = "circular" if circular else "linear"
            want = sep.join(walk_arc_table(t, symbols[:n], texts, circular))
            assert walk_text(t, word[:n], mode, texts, sep) == want, (n, mode)
            codes = walk_codes(t, t.alphabet.encode(word[:n]), circular)
            assert codes == walk_arc_table(t, symbols[:n], t.code, circular), (n, mode)


# a filter over the 300 tokens "0".."299", so that diagram cells are its
# letters: ``_symbol_rows`` then gives lists, not bytes, and the rows walk
WIDE_DIGITS = Alphabet(tuple(map(str, range(300))))
WIDE_DIGIT_FILTER = build_filter([cyclic_domain(("0", "1"), WIDE_DIGITS)])


def random_table(rng: Random, alphabet: Alphabet, states: int, top: int, breaks: int, domains: int) -> Transducer:
    """A filter table drawn at random, with labels up to ``top``, codes of
    ``breaks`` breaks, and every one of them on some arc."""
    k, size = len(alphabet), states * len(alphabet)
    code = [rng.randint(-breaks, top) for _ in range(size)]
    code[0], code[-1] = top, -breaks or top
    pairs = tuple((rng.randrange(states), rng.randrange(states)) for _ in range(breaks))
    nxt = tuple(rng.randrange(states) * k for _ in range(size))
    return Transducer(alphabet, rng.randrange(states), nxt, tuple(code), pairs, domains)


@st.composite
def lane_diagrams(draw):
    """A filter and a diagram of 1-40 rows of 1-30 cells over its first
    letters (up to 3), often just at either side of ``LANE_ROWS``.  The
    filter comes from 1-3 ``random_domain`` domains, or is ``WIDE_DIGIT_FILTER``,
    or a random table at each side of the byte limits: 128 or 129 states
    over 2 letters, or labels and breaks that reach 255 or 256 codes, with
    the declared domain count at, past or far past the largest label."""
    kind = draw(st.sampled_from(["random", "random", "wide", "states", "codes"]))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        alphabet = draw(ALPHABETS)
        t = build_filter([random_domain(rng, alphabet) for _ in range(draw(st.integers(1, 3)))])
    elif kind == "wide":
        t = WIDE_DIGIT_FILTER
    elif kind == "states":
        t = random_table(rng, ALPHA01, draw(st.sampled_from([128, 129])), 2, 5, 2)
    else:
        breaks = draw(st.integers(0, 255))
        top = draw(st.sampled_from([255, 256])) - breaks
        t = random_table(rng, ALPHA012, 3, top, breaks, draw(st.sampled_from([max(top, 1), top + 50, 10**11])))
    rows = draw(st.sampled_from([LANE_ROWS, 40, LANE_ROWS - 1, 1]) | st.integers(1, 40))
    width, k = draw(st.integers(1, 30)), min(3, len(t.alphabet))
    return t, SpaceTimeDiagram(k, [[rng.randrange(k) for _ in range(width)] for _ in range(rows)])


@settings(max_examples=150)
@given(case=lane_diagrams())
def test_lane_walk_is_the_row_walk(case):
    # byte lanes where the diagram has LANE_ROWS rows and the table and
    # its codes fit a byte, the row walk elsewhere: either gives each row's
    # circular walk one arc at a time, and its PGM and CSV are those of
    # the same codes as tuples
    t, diagram = case
    labeled = filter_diagram("transducer", t, diagram)
    symbols = [[int(v) for v in row] for row in diagram.rows]  # cell v is token str(v), index v
    want = tuple(tuple(walk_arc_table(t, row, t.code, circular=True)) for row in symbols)
    assert labeled.codes == want
    fits = len(t.alphabet) <= 256 and len(t.next) <= 256 and max(t.code) + len(t.breaks) < 256
    assert isinstance(labeled.rows[0], bytes) == (len(diagram.rows) >= LANE_ROWS and fits)
    tuples = CodedDiagram(want, t.domain_count, len(t.breaks))
    assert emit_pgm(labeled) == emit_pgm(tuples)
    assert emit_csv(labeled) == emit_csv(tuples)


def _reversible(d: Domain) -> bool:
    try:
        reverse_domain(d)
    except ValueError:
        return False
    return True


@st.composite
def bidi_runs(draw):
    """A (forward, backward) filter pair, a mode, and a string of 0-60
    letters (1-60 in circular mode).  The filters come from sets of 1-3
    ``random_domain`` domains that reverse: one set and its reversal, as
    ``bidirectional_filters`` builds them, or two sets of the same size.
    Only two different sets leave a linear gap open at the end: from the
    last backward break on, the string is a word no domain reads, so the
    forward filter of the same set breaks on it too."""
    alphabet = draw(ALPHABETS)
    seeds = st.integers(0, 2**32 - 1).map(lambda seed: random_domain(Random(seed), alphabet))
    reversible = seeds.filter(_reversible)
    domains = draw(st.lists(reversible, min_size=1, max_size=3))
    if draw(st.booleans()):
        filters = bidirectional_filters(domains)
    else:
        other = draw(st.lists(reversible, min_size=len(domains), max_size=len(domains)))
        filters = build_filter(domains), build_filter([reverse_domain(d) for d in other])
    mode = draw(st.sampled_from(["linear", "circular"]))
    n = draw(st.integers(int(mode == "circular"), 60))  # uniform lengths: gaps need long strings
    return filters, draw(words(alphabet, n, n)), mode


@settings(max_examples=150)
@given(bidi_runs())
def test_bidirectional_is_the_gap_walk(case):
    filters, word, mode = case
    assert bidirectional(filters, word, mode) == reference_bidirectional(filters, word, mode)


def _wire_codes(filters, word, mode: str) -> bytes | tuple[int, ...]:
    """``reference_bidirectional``'s wire codes as ``bidi_codes`` returns
    them: bytes of each code mod 256, a tuple past 254 domains."""
    codes = tuple(map(symbol_code, reference_bidirectional(filters, word, mode)))
    return bytes(c % 256 for c in codes) if filters[0].domain_count <= 254 else codes


@settings(max_examples=150)
@given(bidi_runs())
def test_bidi_codes_are_the_gap_walk(case):
    # the two walk_text passes and the shared byte combination give the
    # codes of the combination's definition, linear and circular
    filters, word, mode = case
    assert bidi_codes(filters, word, mode) == _wire_codes(filters, word, mode)


def _cycle(word: str) -> Domain:
    return cyclic_domain(tuple(word), ALPHA01)


# every 0/1 word, so that a set with it and copies of another domain has no
# break: its last label is then the largest wire code
FULL_SHIFT = Domain(FiniteAutomaton(ALPHA01, 1, range(1), range(1), frozenset({(0, 0, 0), (0, 1, 0)})))
# domain sets at either side of the bidi lane walk's limits: the filters of a
# 64-letter cycle have 254 arcs, of a 65- or 130-letter one 258 and 518; with
# 254 domains the label 254 has a byte below the break's 255, with 255
# domains the label 255 has none
BIDI_EDGE_SETS = [
    [_cycle("0" * 63 + "1")],
    [_cycle("0" * 64 + "1")],
    [_cycle("0" * 129 + "1")],
    [_cycle("01")] * 253 + [FULL_SHIFT],
    [_cycle("01")] * 254 + [FULL_SHIFT],
]


# (forward domains, backward domains before reversal, string, mode): the
# edge cases of ``bidi_codes``
_D18, _R110 = [d18_domain()], [_cycle("00010011011111")]
BIDI_CODE_CASES = {
    "empty": (_D18, _D18, "", "linear"),
    "one-letter-linear": (_D18, _D18, "1", "linear"),
    "one-letter-circular": (_D18, _D18, "1", "circular"),
    # no forward break: the backward breaks of another set open no gap
    "no-forward-break-linear": (_D18, _R110, "0100010001010000" * 3, "linear"),
    "no-forward-break-circular": (_D18, _R110, "0100010001010000" * 3, "circular"),
    # the d18 tail breaks the backward rule-110 pass, not the forward d18 one
    "open-gap-at-end-linear": (_D18, _R110, "00010011011111" * 4 + "0100010001010000", "linear"),
    "wrapping-gap-circular": (_D18, _R110, "00010011011111" * 4 + "0100010001010000", "circular"),
    # 5680 letters: both passes walk blocks of letters
    "blocks-linear": (_R110, _R110, ("00010011011111" * 20 + "0110") * 20, "linear"),
    "blocks-circular": (_R110, _D18, ("00010011011111" * 20 + "0110") * 20, "circular"),
    # 255 domains: label 255 meets the break byte, so the codes come from ``bidirectional``
    "255-domains": ([_cycle("01")] * 254 + [FULL_SHIFT],) * 2 + ("0110100", "circular"),
}


@pytest.mark.parametrize("case", BIDI_CODE_CASES.values(), ids=BIDI_CODE_CASES)
def test_bidi_codes_edge_cases(case):
    domains, other, word, mode = case
    filters = build_filter(domains), build_filter([reverse_domain(d) for d in other])
    got = bidi_codes(filters, word, mode)
    assert got == _wire_codes(filters, word, mode)
    assert isinstance(got, bytes) == (len(domains) <= 254)


def test_bidi_codes_refuse_an_empty_circular_string():
    with pytest.raises(ValueError, match="circular mode needs a non-empty string"):
        bidi_codes(bidirectional_filters([d18_domain()]), "", "circular")


@st.composite
def bidi_diagrams(draw):
    """Domains and a diagram of 1-40 rows of 1-40 cells over their letters,
    often just at either side of ``LANE_ROWS``.  The domains are 1-3
    reversible ``random_domain`` ones over 2 or 3 letters, or one of
    ``BIDI_EDGE_SETS``.  One drawn seed makes every choice, uniformly, as
    draws favour small sizes and the first choices."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    if rng.random() < 0.25:
        domains = rng.choice(BIDI_EDGE_SETS)
    else:
        domains = reversible_domains(rng, rng.choice([ALPHA01, ALPHA012]), rng.randint(1, 3))
    rows, width = rng.choice([LANE_ROWS - 1, LANE_ROWS, 40, rng.randint(1, 40)]), rng.randint(1, 40)
    return domains, SpaceTimeDiagram(len(domains[0].alphabet), [domain_row(rng, domains, width) for _ in range(rows)])


def reversible_domains(rng: Random, alphabet: Alphabet, count: int) -> list[Domain]:
    domains = []
    while len(domains) < count:
        if _reversible(d := random_domain(rng, alphabet)):
            domains.append(d)
    return domains


def domain_row(rng: Random, domains: list[Domain], width: int) -> list[int]:
    """``width`` cells of stretches of 1-40 letters, each read along a
    random path of one of the domains or drawn at random: domain
    stretches with defects between, where the bidi passes disagree and
    leave gaps."""
    k, row = len(domains[0].alphabet), []
    while len(row) < width:
        fa = rng.choice(domains).fa
        state = rng.randrange(fa.state_count)
        for _ in range(rng.randint(1, 40)):
            arcs = [(a, t) for s, a, t in fa.transitions if s == state] or [(rng.randrange(k), state)]
            a, state = rng.choice(arcs)
            row.append(a)
    return row[:width]


@settings(max_examples=60)
@given(case=bidi_diagrams())
def test_bidi_lanes_are_the_row_bidi(case):
    # both passes as byte lanes where the diagram has LANE_ROWS rows, both
    # filters' tables and codes fit a byte and there are at most 254
    # domains, per-row ``bidirectional`` elsewhere: either gives each row's
    # circular two-pass combination, and its PGM and CSV are those of the
    # same codes as tuples
    domains, diagram = case
    labeled = filter_diagram("bidi", domains, diagram)
    filters = bidirectional_filters(domains)
    rows = [[str(v) for v in row] for row in diagram.rows]  # cell v is token str(v)
    want = tuple(tuple(map(symbol_code, reference_bidirectional(filters, row, "circular"))) for row in rows)
    assert labeled.codes == want
    fits = len(domains) <= 254 and all(len(t.next) <= 256 and max(t.code) + len(t.breaks) < 256 for t in filters)
    assert isinstance(labeled.rows[0], bytes) == (len(diagram.rows) >= LANE_ROWS and fits)
    tuples = CodedDiagram(want, len(domains), 1)
    assert emit_pgm(labeled) == emit_pgm(tuples)
    assert emit_csv(labeled) == emit_csv(tuples)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_bidi_lanes_combine_any_two_passes(seed):
    # the lane combination of a forward filter and the backward filter of
    # another domain set of the same size: gaps may then stay open with no
    # forward break to close them, in rows with no forward break at all
    rng = Random(seed)
    alphabet, count = rng.choice([ALPHA01, ALPHA012]), rng.randint(1, 3)
    domains, other = reversible_domains(rng, alphabet, count), reversible_domains(rng, alphabet, count)
    filters = build_filter(domains), build_filter([reverse_domain(d) for d in other])
    assume(all(len(t.next) <= 256 and max(t.code) + len(t.breaks) < 256 for t in filters))  # both walk as lanes
    width = rng.randint(1, 40)
    rows = [domain_row(rng, rng.choice([domains, other]), width) for _ in range(rng.randint(1, 40))]
    want = [list(map(symbol_code, reference_bidirectional(filters, [str(v) for v in row], "circular"))) for row in rows]
    assert CodedDiagram(tuple(_bidi_lanes(filters, list(map(bytes, rows)))), count, 1).codes == tuple(map(tuple, want))


@st.composite
def alphabets_and_text(draw) -> tuple[Alphabet, str]:
    """An alphabet of one- and two-character tokens, ASCII or not (beyond
    the BMP too), sometimes after 300 others, and a string over
    their characters and a few that are no token."""
    chars = "01aé中😀"
    token = st.text(st.sampled_from(chars), min_size=1, max_size=2)
    tokens = draw(st.lists(token, min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):  # the character tokens' indices then pass a byte
        tokens = [f"pad{i}" for i in range(300)] + tokens
    return Alphabet(tuple(tokens)), draw(st.text(st.sampled_from(chars + "x "), max_size=12))


@settings(max_examples=300)
@given(alphabets_and_text())
def test_encode_reads_a_string_as_its_characters(case):
    # a string is its list of characters: the same indices, or the same
    # first unknown symbol; over at most 256 tokens it comes back as bytes
    alphabet, text = case

    def encoded(word):
        try:
            return list(alphabet.encode(word))
        except ValueError as e:
            return str(e)

    assert encoded(text) == encoded(list(text))
    if len(alphabet) <= 256 and not isinstance(encoded(text), str):
        assert isinstance(alphabet.encode(text), bytes)


# the inputs a mutation starts from, each with the commands that read it:
# (golden file name, its text, argv) for a file and (None, the string,
# argv) for an --init string; {in} is the mutated file's path or the
# mutated string, {g} the golden directory
DIAGRAM = "{g}/ca-rule110.txt"
GOLDEN_PAIRS = [  # a golden domain file and the filter built from it
    ("d18.dom", "d18.tdx"), ("runs.dom", "runs.tdx"), ("rule110.dom", "rule110.tdx"),
    ("optimize-runs.dom", "optimized-runs.tdx"),
]
MUTATION_SOURCES = [
    *(
        (dom, (GOLDEN / dom).read_text(), [
            ["build", "--domains", "{in}"],
            ["optimize", "--domains", "{in}"],
            ["stack", "--domains", "{in}", "--input", "0110"],
            ["stack", "--domains", "{in}", "--input", "0110", "--periodic"],
            ["run", "--filter", f"{{g}}/{tdx}", "--input", "0110", "--bidi", "--domains", "{in}"],
            ["ca-filter", "--method", "stack", "--domains", "{in}", "--input", DIAGRAM],
            ["ca-filter", "--method", "bidi", "--domains", "{in}", "--input", DIAGRAM],
        ])
        for dom, tdx in GOLDEN_PAIRS
    ),
    *(
        (tdx, (GOLDEN / tdx).read_text(), [
            ["run", "--filter", "{in}", "--input", "0110"],
            ["run", "--filter", "{in}", "--input", "0110", "--circular", "--format", "pgm"],
            ["run", "--filter", "{in}", "--input", "0110", "--bidi", "--domains", f"{{g}}/{dom}"],
            ["ca-filter", "--method", "transducer", "--filter", "{in}", "--input", DIAGRAM],
        ])
        for dom, tdx in GOLDEN_PAIRS
    ),
    ("ca-rule110.txt", (GOLDEN / "ca-rule110.txt").read_text(), [
        ["ca-filter", "--method", "transducer", "--filter", "{g}/rule110.tdx", "--input", "{in}"],
        ["ca-filter", "--method", "stack", "--domains", "{g}/rule110.dom", "--input", "{in}"],
        ["ca-filter", "--method", "bidi", "--domains", "{g}/rule110.dom", "--input", "{in}"],
        ["ca", "--rule", "110", "--steps", "1", "--init", "@{in}"],
    ]),
    (None, "random:7", [["ca", "--rule", "110", "--steps", "2", "--width", "16", "--init={in}"]]),
    (None, "word:0110^3", [["ca", "--rule", "110", "--steps", "2", "--init={in}"]]),
    (None, "word:0121", [["ca", "--k", "3", "--rule", "5", "--steps", "2", "--init={in}"]]),
]
# fields and characters a mutation puts in: words of every input format,
# numbers in and out of range, and characters no format reads
MUTATION_FIELDS = [
    "", "x", "0", "1", "2", "9", "-1", "99999999999", "p", "q", "end", "state", "start", "final",
    "trans", "domain", "cyclic", "nonrecurrent", "alphabet", "states", "domains", "hash", "brk1",
    "brk99", "d1", "d9", "lam", "#",
]
MUTATION_CHARS = "01289x #\n\r\t^:-@é٠\x00\udcff"


@st.composite
def mutated_inputs(draw):
    """A golden input and one of its commands, with 1-3 mutations of the
    input: a line deleted, duplicated or moved, a field replaced or inserted,
    or a character spliced in (``\\udcff`` is written as the byte 0xff)."""
    name, text, commands = draw(st.sampled_from(MUTATION_SOURCES))
    fields = st.sampled_from(MUTATION_FIELDS + text.split())
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i].split()
        op = draw(st.sampled_from(["delete", "duplicate", "move", "replace", "insert", "splice"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif op == "replace" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(fields)
            lines[i] = " ".join(line)
        elif op == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(fields))
            lines[i] = " ".join(line)
        text = "\n".join(lines)
        if op == "splice":
            j = draw(st.integers(0, len(text)))
            text = text[:j] + draw(st.sampled_from(MUTATION_CHARS)) + text[j:]
    return name, text, draw(st.sampled_from(commands))


@settings(max_examples=200)
@given(case=mutated_inputs())
def test_mutated_inputs_exit_with_one_line(tmp_path_factory, case):
    # a mutated domain file, filter, diagram or --init string never lets an
    # exception out of the CLI: it exits 0, or 1 or 2 with one line of error
    name, text, argv = case
    tmp = tmp_path_factory.mktemp("mutated")
    source = text
    if name is not None:
        source = str(tmp / name)
        Path(source).write_bytes(text.encode(errors="surrogateescape"))
    argv = [a.replace("{g}", str(GOLDEN)).replace("{in}", source) for a in argv]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([*argv, "-o", str(tmp / "out")])
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert err.getvalue() == lines[0] + "\n" and lines[0].startswith(("error: ", "usage error: "))


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one ``cli.main`` run."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _domain_file(path: Path, domains: list[Domain]) -> list[Domain]:
    """Write ``domains`` as a ``.dom`` file at ``path``; return the domains
    the CLI reads back from it."""
    parsed = [
        ParsedDomain(f"D{i}", d, tuple(f"q{s}" for s in range(d.fa.state_count)))
        for i, d in enumerate(domains, 1)
    ]
    nonrecurrent = not all(is_strongly_connected(d.fa) for d in domains)
    text = format_domain_spec(domains[0].alphabet, parsed, nonrecurrent)
    path.write_text(text)
    return [pd.domain for pd in parse_domain_spec(text)[1]]


@st.composite
def budget_domains(draw) -> list[Domain]:
    """1-3 generated domains, or a zero-cycle domain of 4-10 states, whose
    tracker and resync walk grow fast (up to some 300 states and 10^4
    elements)."""
    if draw(st.booleans()):
        return draw(domains_and_word(max_size=0))[0]
    return [zero_cycle_domain(Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(4, 10)))]


@settings(max_examples=80)
@given(domains=budget_domains(), data=st.data())
def test_subset_construction_fails_past_its_cap(tmp_path_factory, domains, data):
    # a cap below the tracker's state count stops every command that builds
    # the tracker with its one error line and exit 2; at the count it builds
    tmp = tmp_path_factory.mktemp("subsets")
    domains = _domain_file(tmp / "d.dom", domains)
    (tmp / "d.txt").write_text("01\n10\n")
    n = len(build_tracker(domains).masks)
    assume(n > 1)  # the start set is numbered under any cap
    cap = data.draw(st.integers(1, n - 1), label="cap")
    argv = data.draw(st.sampled_from([
        ["build", "--domains", str(tmp / "d.dom")],
        ["stack", "--domains", str(tmp / "d.dom"), "--input", "01"],
        ["ca-filter", "--method", "stack", "--domains", str(tmp / "d.dom"), "--input", str(tmp / "d.txt")],
    ]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("apdfilter.automata.MAX_SUBSETS", cap)
        assert _cli([*argv, "-o", str(tmp / "out")]) == (2, "", f"error: subset construction exceeds {cap} states\n")
        patch.setattr("apdfilter.automata.MAX_SUBSETS", n)
        assert len(build_tracker(domains).masks) == n


@settings(max_examples=80)
@given(domains=budget_domains(), data=st.data())
def test_resync_walk_fails_past_its_cap(tmp_path_factory, domains, data):
    # a cap below the walk's element count (the reference's) stops ``build``
    # with its one error line and exit 2; at the count the walk runs to its end
    tmp = tmp_path_factory.mktemp("resync")
    domains = _domain_file(tmp / "d.dom", domains)
    tracker = build_tracker(domains)
    size = resync_walk_size(tracker)
    cap = data.draw(st.integers(0, size - 1), label="cap")
    want = resync(tracker)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("apdfilter.transducer.MAX_RESYNC_WALK", cap)
        got = _cli(["build", "--domains", str(tmp / "d.dom"), "-o", str(tmp / "out")])
        assert got == (2, "", f"error: resync walk exceeds {cap} elements\n")
        patch.setattr("apdfilter.transducer.MAX_RESYNC_WALK", size)
        assert resync(tracker) == want


@st.composite
def refined_domains(draw) -> list[Domain]:
    """1-3 generated domains, or 2-3 cycles of 1-6 letters over 0/1, whose
    past classes can take several refinement passes."""
    if draw(st.booleans()):
        return draw(domains_and_word(max_size=0))[0]
    cycles = st.text(st.sampled_from("01"), min_size=1, max_size=6).map(lambda w: cyclic_domain(w, ALPHA01))
    return draw(st.lists(cycles, min_size=2, max_size=3))


@settings(max_examples=60)
@given(domains=refined_domains(), data=st.data())
def test_refinement_fails_past_its_pass_cap(tmp_path_factory, domains, data):
    # a cap below the passes the past classes take to settle stops
    # ``optimize`` and ``build --optimize`` with their one error line and
    # exit 2; at the pass count the classes settle
    tmp = tmp_path_factory.mktemp("passes")
    domains = _domain_file(tmp / "d.dom", domains)
    part = initial_partition(domains)
    want, passes = class_fixpoint(part)
    cap = data.draw(st.integers(0, passes - 1), label="cap")
    argv = data.draw(st.sampled_from([["optimize"], ["build", "--optimize"]]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("apdfilter.optimizer.MAX_PASSES", cap)
        got = _cli([*argv, "--domains", str(tmp / "d.dom"), "-o", str(tmp / "out")])
        assert got == (2, "", f"error: class refinement did not stabilize within {cap} passes\n")
        patch.setattr("apdfilter.optimizer.MAX_PASSES", passes)
        assert class_fixpoint(part) == (want, passes)


@settings(max_examples=100)
@given(
    cap=st.integers(1, 200),
    width=st.integers(1, 40),
    extra=st.integers(0, 200) | st.integers(0, 10**15),
)
def test_diagram_budget_fails_past_its_cap(tmp_path_factory, cap, width, extra):
    # a diagram of more cells than the cap, however many steps it asks
    # for, fails before its first step with one error line and exit 2; a
    # diagram of at most the cap evolves
    steps = cap // width + extra  # (steps + 1) * width > cap
    out = tmp_path_factory.mktemp("cells") / "out"
    rule, row = rule_from_number(2, 1, 110), random_row(2, width, 1)
    message = f"{steps + 1} rows of {width} cells exceed {cap} cells"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("apdfilter.ca.MAX_DIAGRAM_CELLS", cap)
        argv = ["ca", "--rule", "110", "--width", str(width), "--steps", str(steps), "--init", "random:1"]
        assert _cli([*argv, "-o", str(out)]) == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError, match=message):
            evolve(rule, row, steps)
        if cap >= width:
            assert len(evolve(rule, row, cap // width - 1).rows) == cap // width
