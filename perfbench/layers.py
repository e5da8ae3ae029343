"""The traced run: per-layer metrics from spans, reference yardsticks, and
the tracing overhead.

Each per-layer metric belongs to the workload that stresses its layer, so a
traced run sweeps all three workloads with a fixed amount of work and
reports every per-layer metric, whichever workload it was started for.  The
selected workload is also run untraced with the same work, and the
difference is the tracing overhead.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from tracing import Tracer, installed
from workloads import timed_op

# Operations per workload in the traced sweep.
TRACE_OPS = {"traj-n20": 8, "evolve-n16": 4, "verify-full": 1}

FFT_SIZE = 1 << 20
REF_REPS = 7

# name -> unit, in output order.  The metric each should move is listed in
# perfbench/README.md.
LAYER_METRICS = {
    "qfourier.inverse_ms": "ms",
    "qfourier.forward_ms": "ms",
    "qfourier.calls": "count",
    "qfourier.share": "ratio",
    "qfourier.gbps_vs_min": "GB/s",
    "bakermap.step_ms": "ms",
    "bakermap.self_ms": "ms",
    "bakermap.step_alloc_peak_mb": "MB",
    "bakermap.small_step_us": "us",
    "bakermap.dense_build_s": "s",
    "bakermap.circuit_s": "s",
    "bakermap.gates": "count",
    "analysis.entropy_ms": "ms",
    "analysis.mid_cut_ms": "ms",
    "analysis.edge_cut_ms": "ms",
    "analysis.support_ms": "ms",
    "analysis.share": "ratio",
    "analysis.localization_s": "s",
    "classical.oracle_s": "s",
    "classical.label_shift_us": "us",
    "cli.self_ms_per_row": "ms",
    **{f"verify.c{k:02d}_s": "s" for k in range(1, 13)},
    "verify.c11b_speedup": "x",
    "ref.np_fft_ms": "ms",
    "ref.copy_gbps": "GB/s",
    "trace.overhead_pct": "%",
}


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


class _Spans:
    """Span queries scoped to one workload of the sweep."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans = tracer.spans
        self.self_times = tracer.self_times()

    def pick(self, workload: str | None, *names: str, where=lambda s: True) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name in names
            and (workload is None or s.run_id.split(":")[0] == workload)
            and where(s)
        ]

    def durations(self, idx: list[int]) -> list[float]:
        return [self.spans[i].duration for i in idx]

    def total(self, workload: str, *names: str) -> float:
        return sum(self.durations(self.pick(workload, *names)))


def _direction(s) -> str:
    return s.attrs["args"][1] if len(s.attrs["args"]) > 1 else "forward"


def _span_metrics(sp: _Spans, workloads: dict) -> dict[str, float]:
    m: dict[str, float] = {}
    traj_n = workloads["traj-n20"].N
    evolve = workloads["evolve-n16"]

    traj = "traj-n20"
    steps = sp.pick(traj, "bakermap.apply_baker_fast")
    step_s = _median(sp.durations(steps))
    inverse = sp.durations(sp.pick(traj, "qfourier.apply_partial_transform",
                                   where=lambda s: _direction(s) == "inverse"))
    forward = sp.durations(sp.pick(traj, "qfourier.apply_partial_transform",
                                   where=lambda s: _direction(s) == "forward"))
    m["qfourier.inverse_ms"] = _median(inverse) * 1e3
    m["qfourier.forward_ms"] = _median(forward) * 1e3
    m["qfourier.calls"] = len(sp.pick(traj, "qfourier.apply_partial_transform"))
    m["qfourier.share"] = (sum(inverse) + sum(forward)) / sum(sp.durations(steps))
    # computed, not measured: two transforms each read and write 16 bytes per amplitude
    m["qfourier.gbps_vs_min"] = 4 * 16 * (1 << traj_n) / step_s / 1e9
    m["bakermap.step_ms"] = step_s * 1e3
    m["bakermap.self_ms"] = _median([sp.self_times[i] for i in steps]) * 1e3

    ver = "verify-full"
    small = sp.pick(ver, "bakermap.apply_baker_fast", where=lambda s: s.attrs["N"] <= 10)
    m["bakermap.small_step_us"] = _median(sp.durations(small)) * 1e6
    m["bakermap.dense_build_s"] = sp.total(ver, "bakermap.baker_composed",
                                           "bakermap.baker_from_basis_map")
    m["bakermap.circuit_s"] = sp.total(ver, "bakermap.emit_circuit", "bakermap.circuit_to_matrix")
    m["bakermap.gates"] = sum(sp.spans[i].attrs["count"]
                              for i in sp.pick(ver, "bakermap.emit_circuit"))

    evo = "evolve-n16"
    mains = sp.pick(evo, "cli.main")
    entropy = sp.durations(sp.pick(evo, "analysis.max_contiguous_cut_entropy"))
    support = sp.durations(sp.pick(evo, "analysis.position_support"))
    m["analysis.entropy_ms"] = _median(entropy) * 1e3
    m["analysis.mid_cut_ms"] = _median(sp.durations(sp.pick(
        evo, "analysis.schmidt_entropy", where=lambda s: s.attrs["args"] == [evolve.N // 2]))) * 1e3
    m["analysis.edge_cut_ms"] = _median(sp.durations(sp.pick(
        evo, "analysis.schmidt_entropy",
        where=lambda s: s.attrs["args"] in ([1], [evolve.N - 1])))) * 1e3
    m["analysis.support_ms"] = _median(support) * 1e3
    m["analysis.share"] = (sum(entropy) + sum(support)) / sum(sp.durations(mains))
    m["analysis.localization_s"] = sp.total(ver, "analysis.check_strict_localization")

    m["classical.oracle_s"] = sp.total(ver, "classical.decode", "classical.shift",
                                       "classical.geometric_baker")
    m["classical.label_shift_us"] = _median(sp.durations(sp.pick(None, "classical.label_shift"))) * 1e6
    rows = len(mains) * (evolve.STEPS + 1)
    m["cli.self_ms_per_row"] = sum(sp.self_times[i] for i in mains) / rows * 1e3

    for s in sp.spans:
        if s.name.startswith("verify.check_"):
            m[f"verify.{s.attrs['key']}_s"] = s.duration
    return m


def _ref_metrics(copy_bytes: int) -> dict[str, float]:
    """Machine yardsticks no change to qbaker should move."""
    x = np.random.default_rng(0).standard_normal(FFT_SIZE) * (1 + 1j)
    fft = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        np.fft.fft(x)
        fft.append(time.perf_counter() - t0)
    # one buffer of copy_bytes; each copy moves its first half onto its second
    buf = np.ones(copy_bytes // 8)
    half = buf.size // 2
    copy = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        np.copyto(buf[half:2 * half], buf[:half])
        copy.append(time.perf_counter() - t0)
    del buf
    return {
        "ref.np_fft_ms": _median(fft) * 1e3,
        "ref.copy_gbps": 2 * half * 8 / _median(copy) / 1e9,
    }


def _timed_ops(wl, count: int, gates: list) -> float:
    total = 0.0
    for i in range(count):
        wl.tracer.run_id = f"{wl.name}:{i}"
        total += timed_op(wl, gates)
    return total


def traced_run(selected: str, workloads: dict, copy_bytes: int):
    """Run the traced sweep over `workloads` (name -> Workload, not yet set
    up); return (metrics, gates, tracer)."""
    for wl in workloads.values():
        wl.setup()
    gates: list[tuple[str, bool]] = []
    untraced = _timed_ops(workloads[selected], TRACE_OPS[selected], gates)

    tracer = Tracer()
    traced = {}
    with installed(tracer):
        for name, wl in workloads.items():
            wl.tracer = tracer
            traced[name] = _timed_ops(wl, TRACE_OPS[name], gates)
    for wl in workloads.values():
        gates += wl.final_checks()

    metrics = _span_metrics(_Spans(tracer), workloads)
    speedups = workloads["verify-full"].speedups
    metrics["verify.c11b_speedup"] = speedups[-1] if speedups else float("nan")
    tracemalloc.start()
    workloads["traj-n20"].op()
    metrics["bakermap.step_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    metrics.update(_ref_metrics(copy_bytes))
    metrics["trace.overhead_pct"] = (traced[selected] / untraced - 1.0) * 100.0
    return {k: metrics[k] for k in LAYER_METRICS}, gates, tracer
