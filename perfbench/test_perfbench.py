"""Tests of the benchmark itself, on shrunken workloads where possible.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SmallTraj(workloads.TrajN20):
    N = 8


class SmallEvolve(workloads.EvolveN16):
    N, MAP = 8, 4


class SmallVerify(workloads.VerifyFull):
    CAP = 6


SMALL = {w.name: w for w in (SmallTraj, SmallEvolve, SmallVerify)}


def small_workloads(seed, out_dir):
    return {name: cls(seed, out_dir) for name, cls in SMALL.items()}


def small_traced(seed, out_dir):
    return layers.traced_run("traj-n20", small_workloads(seed, out_dir), 1 << 20)


def inputs(seed, out_dir):
    wls = small_workloads(seed, out_dir)
    for wl in wls.values():
        wl.setup()
    return wls["traj-n20"].state.amps, wls["traj-n20"].label, wls["evolve-n16"].labels


def test_same_seed_same_inputs_and_counts(tmp_path):
    amps_a, label_a, labels_a = inputs(5, tmp_path)
    amps_b, label_b, labels_b = inputs(5, tmp_path)
    assert np.array_equal(amps_a, amps_b)
    assert label_a == label_b and labels_a == labels_b

    first, gates_a, _ = small_traced(5, tmp_path)
    second, gates_b, _ = small_traced(5, tmp_path)
    for name in ("qfourier.calls", "bakermap.gates"):
        assert first[name] == second[name] > 0
    assert first["qfourier.calls"] == 2 * layers.TRACE_OPS["traj-n20"]
    assert len(gates_a) == len(gates_b)


def test_other_seed_other_inputs_all_gates_pass(tmp_path):
    amps_a, label_a, labels_a = inputs(5, tmp_path)
    amps_b, label_b, labels_b = inputs(6, tmp_path)
    assert not np.array_equal(amps_a, amps_b)
    assert labels_a != labels_b

    for wl in small_workloads(6, tmp_path).values():
        wl.setup()
        gates = []
        for _ in range(3):
            workloads.timed_op(wl, gates)
        gates += wl.final_checks()
        assert gates and all(ok for _, ok in gates), (wl.name, gates)
    _, traced_gates, _ = small_traced(6, tmp_path)
    assert all(ok for _, ok in traced_gates)


def test_traced_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.LAYER_METRICS
    metrics, _, tracer = small_traced(7, tmp_path)
    assert list(metrics) == list(layers.LAYER_METRICS)
    # a cap-6 pass has no N=12 timing gate to report
    assert all(np.isfinite(v) for k, v in metrics.items() if k != "verify.c11b_speedup")
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)


def test_printed_end_to_end_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) < set(workloads.WORKLOADS)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "evolve-n16", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end


def test_wrappers_restored_after_trace():
    originals = [
        (importlib.import_module(mod), attr, getattr(importlib.import_module(mod), attr))
        for mod, attr in tracing.TRACE_POINTS
    ]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert all(getattr(m, a) is not f for m, a, f in originals)
            raise RuntimeError("stop inside the traced region")
    assert all(getattr(m, a) is f for m, a, f in originals)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    root, child, grandchild = tracer.spans
    self_times = tracer.self_times()
    assert self_times[0] == pytest.approx(root.duration - child.duration)
    assert self_times[1] == pytest.approx(child.duration - grandchild.duration)
    assert child.parent == 0 and grandchild.parent == 1


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traj-n20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
