"""Smoke test of the benchmark: every workload at tiny sizes.

Checks that an untraced run reports every end-to-end metric and a traced
run every per-layer metric named in BENCHMARK.json, that all outputs pass
their checks, that spans nest, and that the self times of each traced
command's spans add up to that command's span.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return bench_run.measure(request.param, 1, 0.0, trace=True, smoke=True)


def test_every_metric_is_reported_and_outputs_check(traced):
    result = traced["result"]
    assert traced["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metrics, key in ((traced["end_to_end"], "end_to_end"), (result["metrics"], "per_layer")):
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert metrics[m["name"]]["value"] > 0


def test_spans_nest_and_self_times_add_up(traced):
    for spans, walls in zip(traced["spans"], traced["traced_walls"]):
        children = {i: [] for i in range(len(spans))}
        roots = []
        for i, (_name, start, end, parent) in enumerate(spans):
            assert start <= end
            if parent < 0:
                roots.append(i)
            else:
                assert parent < i
                _pn, pstart, pend, _pp = spans[parent]
                assert pstart <= start and end <= pend
                children[parent].append(i)
        for kids in children.values():
            for a, b in zip(kids, kids[1:]):
                assert spans[a][2] <= spans[b][1]  # siblings do not overlap

        own = [end - start for (_n, start, end, _p) in spans]
        for i, (_n, _s, _e, parent) in enumerate(spans):
            if parent >= 0:
                own[parent] -= spans[i][2] - spans[i][1]

        def subtree_self(i):
            return own[i] + sum(subtree_self(k) for k in children[i])

        assert [spans[r][0] for r in roots] == ["cli"] * len(walls)
        for r, wall in zip(roots, walls):
            duration = spans[r][2] - spans[r][1]
            assert subtree_self(r) == pytest.approx(duration, abs=1e-9)
            assert duration <= wall
