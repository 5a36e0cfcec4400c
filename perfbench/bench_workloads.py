"""Seeded inputs and the CLI commands of each benchmark workload.

Every workload runs every command kind (build, build --optimize, run,
run --bidi, stack, ca, ca-filter with each method), so each run reports
every end-to-end metric; the sizes decide which layers dominate.  Inputs
come only from ``random.Random(seed)`` and ``--init random:SEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import bench_checks as checks

WHY = {
    "build-corpus": (
        "filter construction dominates: many domain sets are built and optimized "
        "(automata, resync, optimizer) while strings and diagrams stay tiny"
    ),
    "stream-noise": (
        "one long uniform-random string with about one break per two letters: "
        "a long linear transducer pass, a shallow stack, O(breaks^2) bidi gap filling"
    ),
    "ca-rule110": (
        "rule-110 space-time diagram with sparse defects: many short circular "
        "passes and deep periodic stack windows, the opposite of stream-noise"
    ),
}

DEFAULT_SEED = 1
HELDOUT_SEED = 2

R110_WORD = "00010011011111"

D18 = checks.DomainDef("D18", states=("p", "q"), trans=(("p", "0", "q"), ("q", "0", "p"), ("q", "1", "p")))
FIXTURES = {
    "d18": (D18,),
    "c001": (checks.DomainDef("C", word="001"),),
    "runs": (
        checks.DomainDef("zeros", word="0"),
        checks.DomainDef("ones", word="1"),
        checks.DomainDef("alt", word="01"),
    ),
    "d18c001": (D18, checks.DomainDef("C", word="001")),
    "r110": (checks.DomainDef("principal", word=R110_WORD),),
}

# Sizes per workload; "smoke" runs every workload in about a second.
FULL = {
    # random cycle lengths: build covers all, optimize only those <= opt_max_len
    "corpus_lengths": [6, 7, 8, 9, 10] * 4 + list(range(12, 61, 6)),
    "opt_max_len": 10,
    "corpus_strings": (3, 48),  # per fixture: count, letters (brute-checkable)
    "corpus_ca": (18, 128, 31),
    "noise_len": 20000,
    "noise_ca": (110, 256, 3),
    "rich_len": 2000,
    "rich_ca": (110, 100, 99),
}
SMOKE = {
    "corpus_lengths": [6, 8],
    "opt_max_len": 6,
    "corpus_strings": (1, 10),
    "corpus_ca": (18, 12, 6),
    "noise_len": 200,
    "noise_ca": (110, 24, 2),
    "rich_len": 120,
    "rich_ca": (110, 20, 9),
}


@dataclass
class Command:
    """One timed CLI call.  ``metric`` is the end-to-end metric it feeds,
    ``units`` the letters or cells it processes, ``check`` raises
    ``checks.CheckError`` on a wrong output."""

    key: str
    metric: str
    argv: list[str]
    output: Path
    units: int
    check: Callable[[bytes], None]


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    files: dict[str, str] = field(default_factory=dict)
    setup: list[list[str]] = field(default_factory=list)
    references: list[list[str]] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)

    def path(self, name: str) -> Path:
        return self.workdir / name


def primitive_word(rng: Random, length: int) -> str:
    """Uniform random 0/1 word that is not a power of a shorter word; a
    power would give the same domain as its root."""
    while True:
        word = "".join(rng.choice("01") for _ in range(length))
        if all(word != word[i:] + word[:i] for i in range(1, length)):
            return word


def noise_string(rng: Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def domain_rich_string(rng: Random, length: int) -> str:
    """Rotations of the rule-110 domain word in runs of 50-300 letters,
    separated by 1-4 random letters."""
    parts: list[str] = []
    total = 0
    while total < length:
        shift = rng.randrange(len(R110_WORD))
        rotated = R110_WORD[shift:] + R110_WORD[:shift]
        run = rng.randint(50, 300)
        parts.append((rotated * (run // len(rotated) + 1))[:run])
        parts.append(noise_string(rng, rng.randint(1, 4)))
        total += run + len(parts[-1])
    return "".join(parts)[:length]


class _Builder:
    def __init__(self, wl: Workload):
        self.wl = wl

    def dom(self, stem: str, defs):
        """Write the domain file and its reversal."""
        self.wl.files[f"{stem}.dom"] = checks.dom_text(defs)
        self.wl.files[f"{stem}.rev.dom"] = checks.dom_text(defs, reverse=True)

    def filter_for(self, stem: str):
        """Setup builds ``stem.tdx`` (what timed commands load); the benchmark
        builds the reverse filter for its bidi reference."""
        wl = self.wl
        wl.setup.append(["build", "--domains", str(wl.path(f"{stem}.dom")), "-o", str(wl.path(f"{stem}.tdx"))])
        wl.references.append(
            ["build", "--domains", str(wl.path(f"{stem}.rev.dom")), "-o", str(wl.path(f"{stem}.rev.tdx"))]
        )

    def add(self, key, metric, argv, units, check):
        out = self.wl.path(f"out/{key}")
        self.wl.commands.append(Command(key, metric, argv + ["-o", str(out)], out, units, check))

    def build(self, stem: str, optimize: bool):
        p = self.wl.path
        argv = ["build", "--domains", str(p(f"{stem}.dom"))]
        if optimize:
            argv.append("--optimize")
        metric = "optimize_s" if optimize else "build_s"
        self.add(f"{metric}-{stem}.tdx", metric, argv, 0, checks.check_tdx)

    def strings(self, stem: str, defs, text: str, tag: str):
        wl, p = self.wl, self.wl.path
        wl.files[f"{tag}.txt"] = text
        src = "@" + str(p(f"{tag}.txt"))
        n = len(text)
        tdx, rev = p(f"{stem}.tdx"), p(f"{stem}.rev.tdx")
        self.add(f"run-{tag}.csv", "run_letters_per_s", ["run", "--filter", str(tdx), "--input", src], n,
                 lambda out: checks.check_run(out, tdx, text))
        self.add(f"bidi-{tag}.csv", "bidi_letters_per_s",
                 ["run", "--filter", str(tdx), "--input", src, "--bidi", "--domains", str(p(f"{stem}.dom"))], n,
                 lambda out: checks.check_bidi(out, tdx, rev, text))
        self.add(f"stack-{tag}.txt", "stack_letters_per_s", ["stack", "--domains", str(p(f"{stem}.dom")), "--input", src], n,
                 lambda out: checks.check_stack(out, defs, text))

    def diagram(self, stem: str, defs, rule: int, width: int, steps: int):
        wl, p = self.wl, self.wl.path
        cells = width * (steps + 1)
        seed = wl.seed
        self.add("ca.txt", "evolve_cells_per_s",
                 ["ca", "--rule", str(rule), "--width", str(width), "--steps", str(steps), "--init", f"random:{seed}"],
                 cells, lambda out: checks.check_ca(out, rule, width, steps, seed))
        diagram = p("out/ca.txt")
        tdx, rev, dom = p(f"{stem}.tdx"), p(f"{stem}.rev.tdx"), str(p(f"{stem}.dom"))
        self.add("ca-transducer.pgm", "transducer_cells_per_s",
                 ["ca-filter", "--method", "transducer", "--filter", str(tdx), "--input", str(diagram)], cells,
                 lambda out: checks.check_ca_transducer(out, tdx, diagram))
        self.add("ca-bidi.pgm", "bidi_cells_per_s",
                 ["ca-filter", "--method", "bidi", "--domains", dom, "--input", str(diagram)], cells,
                 lambda out: checks.check_ca_bidi(out, tdx, rev, diagram, len(defs)))
        self.add("ca-stack.pgm", "stack_cells_per_s",
                 ["ca-filter", "--method", "stack", "--domains", dom, "--input", str(diagram)], cells,
                 lambda out: checks.check_ca_stack(out, diagram, len(defs)))
        wl.sizes["cells"] = cells


def make_workload(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Inputs and commands of one workload; the same seed gives the same files."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
    size = SMOKE if smoke else FULL
    rng = Random(seed)
    wl = Workload(name, seed, workdir)
    b = _Builder(wl)
    if name == "build-corpus":
        corpus = dict(FIXTURES)
        for i, length in enumerate(size["corpus_lengths"]):
            corpus[f"w{i:02d}-len{length}"] = (checks.DomainDef("w", word=primitive_word(rng, length)),)
        for stem, defs in corpus.items():
            b.dom(stem, defs)
            b.build(stem, optimize=False)
        for stem, defs in corpus.items():
            length = max(len(d.word or "") for d in defs)
            if stem in FIXTURES or length <= size["opt_max_len"]:
                b.build(stem, optimize=True)
        count, length = size["corpus_strings"]
        for stem, defs in FIXTURES.items():
            b.filter_for(stem)
            for i in range(count):
                b.strings(stem, defs, noise_string(rng, length), f"s-{stem}-{i}")
        rule, width, steps = size["corpus_ca"]
        b.diagram("d18c001", FIXTURES["d18c001"], rule, width, steps)
        wl.sizes.update(corpus_entries=len(corpus),
                        optimize_entries=sum(c.metric == "optimize_s" for c in wl.commands),
                        letters=count * length * len(FIXTURES))
    else:
        defs = FIXTURES["r110"]
        b.dom("r110", defs)
        b.build("r110", optimize=False)
        b.build("r110", optimize=True)
        b.filter_for("r110")
        if name == "stream-noise":
            text = noise_string(rng, size["noise_len"])
            rule, width, steps = size["noise_ca"]
        else:
            text = domain_rich_string(rng, size["rich_len"])
            rule, width, steps = size["rich_ca"]
        b.strings("r110", defs, text, "s-r110")
        b.diagram("r110", defs, rule, width, steps)
        wl.sizes.update(corpus_entries=1, optimize_entries=1, letters=len(text))
    return wl
