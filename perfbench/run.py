"""apdfilter benchmark: CLI throughput per workload, closed loop, one caller.

    python3 perfbench/run.py --workload build-corpus --seed 1 --seconds 25 --trace 0

Run from the repository root.  The benchmark writes its seeded inputs
under ``.perfbench_work/``, sets up (a fresh interpreter imports
``apdfilter`` and builds the ``.tdx`` files the timed commands load, several
times; the median is ``setup_s``), then repeats rounds of every workload
command through ``apdfilter.cli.main`` in this process, each command
starting after the previous one ends, until ``--seconds`` have been
measured.  Every output is checked against a reference; a wrong exit code
or output counts as a failed operation (``failed_frac`` = failed over
attempted).  Times are scaled to a reference machine speed by a
calibration kernel run between timings (``Speed``); the raw medians are
printed too.  See ``measure`` for how samples become metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints per-layer self times and counts
(median over traced rounds) plus the tracing overhead; spans are written
to the work directory.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DIGESTS = HERE / "digests.json"

SETUP_REPS = 7
# calibration kernel time at the reference speed: the typical state of a
# 2-core 2.1 GHz Xeon VM under CPython 3.11
CAL_REF_SECONDS = 0.0115
PASS_SECONDS = 0.25  # aim for passes of each metric's commands per round
MAX_REPS = 40
SETUP_CHILD = (
    "import json, sys\n"
    "from apdfilter.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    code = main(argv)\n"
    "    if code:\n"
    "        sys.exit(code)\n"
)

THROUGHPUT = {
    "run_letters_per_s": "letters/s",
    "bidi_letters_per_s": "letters/s",
    "stack_letters_per_s": "letters/s",
    "evolve_cells_per_s": "cells/s",
    "transducer_cells_per_s": "cells/s",
    "bidi_cells_per_s": "cells/s",
    "stack_cells_per_s": "cells/s",
}
END_TO_END = {"setup_s": "s", "build_s": "s", "optimize_s": "s", **THROUGHPUT, "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


def _ensure_program():
    """Import the package from this checkout's sources, never an installed copy."""
    if not (SRC / "apdfilter" / "__init__.py").is_file() or not (TESTS / "helpers.py").is_file():
        raise SetupError(f"no apdfilter sources under {ROOT} (need src/apdfilter and tests/helpers.py)")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import apdfilter

    if Path(apdfilter.__file__).resolve().parent != SRC / "apdfilter":
        raise SetupError(f"apdfilter imported from {apdfilter.__file__}, not from {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


_CAL_KEYS = [(i, i * 7 % 1000, str(i)) for i in range(20000)]
_CAL_TEXT = ",".join(str(i % 5) for i in range(60000))


def _calibration_kernel() -> int:
    """Fixed pure-Python work shaped like the program's: tuple keys in a
    dict, a filtered comprehension, split and join of a long string."""
    table = {key: (key[1], key[2]) for key in _CAL_KEYS}
    odd = [value for key, value in table.items() if key[1] & 1]
    parts = _CAL_TEXT.split(",")
    return len(odd) + len(",".join(p + "x" for p in parts))


def calibration_time(reps: int = 2) -> float:
    """Median wall time of the calibration kernel, right now."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _calibration_kernel()
        times.append(perf_counter() - t0)
    return _median(times)


class Speed:
    """Scales wall times to the reference machine speed.

    On a shared 2-core VM the same work was measured running in speed
    states up to 1.6x apart for tens of seconds, which no statistic over
    one run removes (run-to-run spreads of 0.3-0.5 of the median).  So each
    block of timings is bracketed by runs of a fixed calibration
    kernel and multiplied by ``CAL_REF_SECONDS`` over the kernel's mean
    time around it: a time in seconds at the speed where the kernel takes
    ``CAL_REF_SECONDS``.  The kernel does not depend on the program, so a
    change to the program moves scaled and raw times alike.
    """

    def __init__(self):
        self.factors: list[float] = []
        self.restart()

    def restart(self):
        """Calibrate afresh after untimed work."""
        self.last = calibration_time()

    def scale(self, block: list[float]) -> list[float]:
        now = calibration_time()
        factor = CAL_REF_SECONDS / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return [t * factor for t in block]


class Bench:
    """One workload at one seed: inputs, setup, rounds and their checks."""

    def __init__(self, name: str, seed: int, smoke: bool = False, record: bool = False):
        self.workdir = ROOT / ".perfbench_work" / (name + ("-smoke" if smoke else ""))
        self.wl = bench_workloads.make_workload(name, seed, self.workdir, smoke)
        self.check_digests = None
        if not smoke and not record and seed == bench_workloads.DEFAULT_SEED:
            self.check_digests = json.loads(DIGESTS.read_text()).get(name, {}) if DIGESTS.is_file() else {}
        self.first: dict[str, tuple[str, bool]] = {}  # key -> (digest, passed its checks)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def write_inputs(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "out").mkdir(parents=True)
        for rel, text in self.wl.files.items():
            (self.workdir / rel).write_text(text)

    def setup(self, reps: int, speed: Speed) -> list[float]:
        """Wall time of a fresh interpreter that imports apdfilter and builds
        the filters the timed commands load; then the reference filters."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, json.dumps(self.wl.setup)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            times += speed.scale([perf_counter() - t0])
            if proc.returncode != 0:
                raise SetupError(f"setup build failed ({proc.returncode}): {proc.stderr.strip()}")
        from apdfilter import cli

        for argv in self.wl.references:
            if cli.main(argv) != 0:
                raise SetupError(f"reference build failed: {argv}")
        return times

    def groups(self) -> dict[str, list]:
        """Commands by the metric they feed, in workload order."""
        out: dict[str, list] = {}
        for cmd in self.wl.commands:
            out.setdefault(cmd.metric, []).append(cmd)
        return out

    def run_pass(self, cmds, tracer=None) -> list[float]:
        """Run each command once, in order; return their wall times."""
        from apdfilter import cli

        walls, outputs = [], []
        for cmd in cmds:
            cmd.output.unlink(missing_ok=True)
            gc.collect()
            if tracer is not None:
                tracer.install()
            try:
                t0 = perf_counter()
                try:
                    code = cli.main(cmd.argv)
                except Exception:  # a crash is a failed operation, not a benchmark error
                    code = traceback.format_exc(limit=3)
                walls.append(perf_counter() - t0)
            finally:
                if tracer is not None:
                    tracer.restore()
            outputs.append((code, cmd.output.read_bytes() if cmd.output.exists() else None))
        for cmd, (code, out) in zip(cmds, outputs):
            self._verify(cmd, code, out)
        return walls

    def _verify(self, cmd, code, out):
        import bench_checks

        self.attempted += 1
        try:
            if code != 0:
                raise bench_checks.CheckError(f"exit code {code!r}")
            if out is None:
                raise bench_checks.CheckError("no output file")
            digest = hashlib.sha256(out).hexdigest()
            if cmd.key not in self.first:
                self.first[cmd.key] = (digest, False)
                try:
                    cmd.check(out)
                except bench_checks.CheckError:
                    raise
                except Exception as e:  # a checker that cannot read the output fails it
                    raise bench_checks.CheckError(f"check raised {type(e).__name__}: {e}") from None
                if self.check_digests is not None and self.check_digests.get(cmd.key) != digest:
                    raise bench_checks.CheckError("differs from the recorded default-seed digest")
                self.first[cmd.key] = (digest, True)
            elif self.first[cmd.key] != (digest, True):
                first_digest, _ok = self.first[cmd.key]
                raise bench_checks.CheckError(
                    "same output failed its check before" if digest == first_digest
                    else "differs from this run's first output"
                )
        except bench_checks.CheckError as e:
            self.failed += 1
            self.failures.append(f"{cmd.key}: {e}")

    def record_filter_sizes(self, builds):
        """Tracker states and resynchronized (forbidden) pairs of the built
        filters, read from the .tdx files: one break transition per pair."""
        import bench_checks

        states = resyncs = 0
        for cmd in builds:
            try:
                tdx = bench_checks.parse_tdx(cmd.output.read_text())
            except (OSError, bench_checks.CheckError):
                continue  # already counted as a failed build
            states += tdx.states
            resyncs += sum(code.startswith("brk") for code, _d in tdx.arcs.values())
        self.wl.sizes.update(tracker_states=states, resyncs=resyncs)

    def digests(self) -> dict[str, str]:
        return {key: digest for key, (digest, _ok) in sorted(self.first.items())}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, record: bool = False) -> dict:
    """Run one workload; return the result object plus diagnostics.

    A warm-up pass of every command is checked but not timed; its times
    set how many passes of each metric's commands a round makes, so that
    short commands get as many samples as long ones.  A sample is one
    pass: its wall time for ``build_s``/``optimize_s``, its letters or
    cells over its wall time for a throughput, with every wall time scaled
    to the reference speed (see ``Speed``); each metric is the median of
    its samples, and ``setup_s`` the median of its set-ups.  With
    ``trace``, each round ends with one traced pass of every command; the
    per-layer times and the tracing overhead are raw wall times.
    """
    _ensure_program()
    import bench_trace

    bench = Bench(name, seed, smoke, record)
    bench.write_inputs()
    speed = Speed()
    setup_times = bench.setup(1 if smoke else SETUP_REPS, speed)
    groups = bench.groups()
    warm = {metric: sum(bench.run_pass(cmds)) for metric, cmds in groups.items()}
    bench.record_filter_sizes(groups["build_s"])
    reps = {metric: 1 if smoke else max(1, min(MAX_REPS, round(PASS_SECONDS / max(t, 1e-9))))
            for metric, t in warm.items()}
    gc.collect()
    gc.freeze()  # keeps the per-command collections short
    samples: dict[str, list[float]] = {metric: [] for metric in groups}
    raw: dict[str, list[float]] = {metric: [] for metric in groups}
    traced, spans = [], []
    elapsed = 0.0
    speed.restart()
    while elapsed < seconds or not samples["stack_cells_per_s"] or (trace and not traced):
        for metric, cmds in groups.items():
            if elapsed >= seconds and samples[metric]:
                break
            block = [sum(bench.run_pass(cmds)) for _ in range(reps[metric])]
            elapsed += sum(block)
            raw[metric] += block
            samples[metric] += speed.scale(block)
        if trace:
            tracer = bench_trace.Tracer()
            walls = bench.run_pass(bench.wl.commands, tracer)
            elapsed += sum(walls)
            traced.append((walls, tracer.layer_metrics()))
            spans.append(tracer.spans)
            speed.restart()
    values = {"setup_s": _median(setup_times)}
    for metric, cmds in groups.items():
        if metric in THROUGHPUT:
            units = sum(cmd.units for cmd in cmds)
            values[metric] = _median([units / t for t in samples[metric]])
        else:
            values[metric] = _median(samples[metric])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    per_layer = {}
    if trace:
        layers = {key: _median([m[key] for _w, m in traced]) for key in traced[0][1]}
        untraced_pass = sum(_median(times) for times in raw.values())
        layers["trace.overhead_ratio"] = _median([sum(w) for w, _m in traced]) / untraced_pass
        per_layer = {key: {"value": value, "unit": _layer_unit(key)} for key, value in layers.items()}
        (bench.workdir / "spans.json").write_text(json.dumps({"command_walls": [w for w, _m in traced], "rounds": spans}))
    return {
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": per_layer if trace else end_to_end,
        },
        "end_to_end": end_to_end,
        "samples": {metric: len(times) for metric, times in samples.items()},
        "raw": {metric: _median(times) for metric, times in raw.items()},
        "speed": {"median_factor": _median(speed.factors), "reference_s": CAL_REF_SECONDS},
        "failures": bench.failures,
        "sizes": bench.wl.sizes,
        "digests": bench.digests(),
        "spans": spans,
        "traced_walls": [w for w, _m in traced],
    }


def _layer_unit(key: str) -> str:
    if key.endswith("_s") or "_s." in key:
        return "s"
    return {
        "stackfilter.advances_per_letter": "advances/letter",
        "trace.overhead_ratio": "ratio",
        "tdx.bytes": "bytes",
    }.get(key, "count")


def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(bench_workloads.WHY))
    parser.add_argument("--seed", type=int, default=bench_workloads.DEFAULT_SEED,
                        help=f"input seed; {bench_workloads.HELDOUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the default-seed reference")
    args = parser.parse_args(argv)
    if args.record_digests and (args.smoke or args.seed != bench_workloads.DEFAULT_SEED):
        parser.error("digests are recorded at the default seed and full size only")
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.record_digests)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    result = report["result"]
    if args.record_digests:
        if result["failed"]:
            print("perfbench: not recording digests of a run with failures", file=sys.stderr)
            return 1
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        recorded[args.workload] = report["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for line in report["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"machine: {json.dumps(machine_info())}")
    print(f"workload: {args.workload} seed {args.seed}")
    print(f"sizes: {json.dumps(report['sizes'])}")
    print(f"samples: {json.dumps(report['samples'])}")
    print(f"speed: {json.dumps(report['speed'])}")
    print(f"raw median pass s: {json.dumps(report['raw'])}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
