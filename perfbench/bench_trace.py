"""Per-layer tracing from outside the program.

The package's modules import each other's functions by name
(``from .automata import determinize``), so a public function is wrapped
by rebinding every ``apdfilter`` module attribute that holds it, and
restored afterwards.  Layer calls become spans (name, start, end, parent
index) kept in memory; per-letter functions are only counted.  Counts
come from public objects: ``Transducer.state_count``,
``len(resync_reports)``, a ``FilterStats`` passed to ``filter_local`` when
the caller passes none, and letters and cells.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

# (module, function, span-name) of every spanned layer boundary
SPANNED = [
    ("cli", "main", "cli"),
    ("domspec", "parse_domain_spec", "domspec.parse"),
    ("automata", "determinize", "automata.determinize"),
    ("transducer", "resync", "transducer.resync"),
    ("transducer", "build_filter", "transducer.build_filter"),
    ("optimizer", "optimize", "optimizer.optimize"),
    ("tdx", "save_transducer", "tdx.save"),
    ("tdx", "load_transducer", "tdx.load"),
    ("transducer", "transduce", "transducer.transduce"),
    ("transducer", "bidirectional", "transducer.bidirectional"),
    ("stackfilter", "filter_local", "stackfilter.filter_local"),
    ("stackfilter", "filter_global", "stackfilter.filter_global"),
    ("stackfilter", "orbit_multiplicity", "stackfilter.orbit_multiplicity"),
    ("ca", "evolve", "ca.evolve"),
    ("ca", "filter_diagram", "ca.filter_diagram"),
    ("render", "emit_pgm", "render.emit_pgm"),
]
COUNTED = [
    ("automata", "accepts", "automata.accepts_calls"),
    ("render", "symbol_code", "render.symbol_code_calls"),
]
FILTER_METHODS = ("transducer", "bidi", "stack")


def self_time_metric(span_name: str) -> str:
    if span_name == "cli":
        return "cli.self_s"
    if span_name.startswith("ca.filter_diagram."):
        return "ca.filter_diagram_s." + span_name.rsplit(".", 1)[1]
    return span_name + "_s"


TIME_METRICS = [self_time_metric(n) for (_m, _f, n) in SPANNED if n != "ca.filter_diagram"] + [
    f"ca.filter_diagram_s.{m}" for m in FILTER_METHODS
]
COUNT_METRICS = [
    "automata.determinize_calls",
    "automata.tracker_states",
    "transducer.resync_calls",
    "optimizer.split_states",
    "tdx.bytes",
    "transducer.letters",
    "transducer.breaks",
    "stackfilter.pair_advances",
    "stackfilter.intervals",
    "ca.cells",
] + [name for (_m, _f, name) in COUNTED]


class Tracer:
    """Spans are ``[name, start, end, parent]`` lists; ``parent`` indexes
    ``spans`` (-1 for a root).  ``install`` wraps, ``restore`` unwraps;
    spans and counts accumulate across installs.  Only one thread may run
    traced code."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        from apdfilter.stackfilter import FilterStats

        mods = self._modules()
        after = {
            "automata.determinize": self._after_determinize,
            "transducer.build_filter": self._after_build_filter,
            "optimizer.optimize": self._after_optimize,
            "tdx.save": self._after_save,
            "tdx.load": self._after_load,
            "transducer.transduce": self._after_transduce,
            "transducer.bidirectional": self._after_bidirectional,
            "ca.evolve": self._after_evolve,
        }
        for (mod, fn, name) in SPANNED:
            orig = getattr(mods[mod], fn)
            if fn == "filter_local":
                wrapped = self._filter_local(orig, FilterStats)
            elif fn == "filter_diagram":
                wrapped = self._span(orig, lambda args, kw: "ca.filter_diagram." + args[0])
            else:
                wrapped = self._span(orig, lambda args, kw, name=name: name, after.get(name))
            self._rebind(mods, orig, wrapped)
        for (mod, fn, name) in COUNTED:
            orig = getattr(mods[mod], fn)
            self._rebind(mods, orig, self._counter(orig, name))

    def restore(self):
        for (mod, attr, orig) in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    @staticmethod
    def _modules() -> dict:
        import apdfilter.cli  # noqa: F401  (loads every module that cli imports)

        return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("apdfilter.")}

    def _rebind(self, mods, orig, wrapped):
        for mod in [sys.modules["apdfilter"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name_of, after=None):
        spans, opened = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name_of(args, kwargs), perf_counter(), 0.0, opened[-1] if opened else -1]
            spans.append(rec)
            opened.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                opened.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _filter_local(self, fn, stats_cls):
        signature = inspect.signature(fn)
        counts = self.counts

        def with_stats(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stats = bound.arguments.get("stats") or stats_cls()
            before = stats.pair_advances
            bound.arguments["stats"] = stats
            cover = fn(*bound.args, **bound.kwargs)
            counts["stackfilter.pair_advances"] += stats.pair_advances - before
            counts["stackfilter.letters"] += len(bound.arguments["sigma"])
            counts["stackfilter.intervals"] += len(cover.intervals)
            return cover

        return self._span(with_stats, lambda args, kw: "stackfilter.filter_local")

    def _after_determinize(self, fa, args):
        self.counts["automata.determinize_calls"] += 1

    def _after_build_filter(self, t, args):
        self.counts["automata.tracker_states"] += t.state_count
        self.counts["transducer.resync_calls"] += len(t.resync_reports)

    def _after_optimize(self, split, args):
        self.counts["optimizer.split_states"] += sum(sd.domain.fa.state_count for sd in split)

    def _after_save(self, text, args):
        self.counts["tdx.bytes"] += len(text)

    def _after_load(self, result, args):
        self.counts["tdx.bytes"] += len(args[0])

    def _after_transduce(self, out, args):
        self.counts["transducer.letters"] += len(args[1])

    def _after_bidirectional(self, out, args):
        from apdfilter.transducer import DomainBreak

        self.counts["transducer.breaks"] += sum(isinstance(o, DomainBreak) for o in out)

    def _after_evolve(self, diagram, args):
        self.counts["ca.cells"] += diagram.width * len(diagram.rows)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for (_n, start, end, _p) in self.spans]
        for (_n, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer metric and every count, zero when unused."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            out[self_time_metric(name)] += own
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        letters = self.counts["stackfilter.letters"]
        out["stackfilter.advances_per_letter"] = (
            self.counts["stackfilter.pair_advances"] / letters if letters else 0.0
        )
        return out
