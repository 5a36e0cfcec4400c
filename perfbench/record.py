"""Record machine info, input sizes and one set of measurements.

    python3 perfbench/record.py [--seconds N]

Runs every workload untraced at the default and the held-out seed, and
traced at the default seed, one after another, and writes
``perfbench/baseline.json``: the machine, each workload's reason and input
sizes (letters, cells, corpus entries, tracker states, resynchronized
pairs), its end-to-end metrics with the raw median pass times and the
machine speed factor behind them, its per-layer metrics and the tracing
overhead.  With the sizes every time reads in input units.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_workloads import DEFAULT_SEED, HELDOUT_SEED, WHY  # noqa: E402
from run import machine_info  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    fields = {line.split(":", 1)[0]: line.split(":", 1)[1] for line in lines[:-1] if ":" in line}
    return {
        "sizes": json.loads(fields["sizes"]),
        "samples": json.loads(fields["samples"]),
        "speed": json.loads(fields["speed"]),
        "raw_median_pass_s": json.loads(fields["raw median pass s"]),
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    out = {"machine": machine_info(), "run_seconds": args.seconds, "workloads": {}}
    for workload, why in WHY.items():
        entry = {"why": why}
        for label, seed in (("default", DEFAULT_SEED), ("held_out", HELDOUT_SEED)):
            run = run_once(workload, seed, args.seconds, 0)
            entry[label] = {"seed": seed, **run}
        traced = run_once(workload, DEFAULT_SEED, args.seconds, 1)
        entry["traced"] = {"seed": DEFAULT_SEED, **traced}
        out["workloads"][workload] = entry
        print(f"{workload}: recorded", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
