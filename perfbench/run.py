"""Benchmark of the qbaker package.

    python3 perfbench/run.py --workload traj-n20 --seed 1 --seconds 50 --trace 0

Runs one workload as a closed loop (one process, one caller, each operation
issued after the previous one returned) for --seconds seconds, checks every
output, and prints an environment block, one line per metric, and as the
last line a JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
sweep of fixed size (see layers.py) gives the per-layer ones instead.

qbaker is imported from the src/ directory next to this one, never from an
installed copy; without it the benchmark exits with code 2 and no result.
BLAS threads are pinned to the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy and qbaker are imported inside main, after the BLAS thread count is
# pinned: the BLAS library reads it once, at load.

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# The timed workloads.  verify-full runs only in the traced sweep: one pass
# takes about 13 s, too few per run for a steady median (see README.md).
WORKLOAD_NAMES = ("traj-n20", "evolve-n16")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 3
MIN_OPS = 2
# copy-bandwidth buffer, as a multiple of the last-level cache
COPY_CACHE_MULTIPLE = 4
FALLBACK_L3 = 64 << 20

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p80": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_qbaker() -> float:
    """Import qbaker from SRC and return the import time in seconds."""
    if not (SRC / "qbaker" / "__init__.py").is_file():
        print(f"qbaker sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qbaker

    elapsed = time.perf_counter() - t0
    if Path(qbaker.__file__).resolve().parent != SRC / "qbaker":
        print(f"imported qbaker from {qbaker.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def _caches() -> dict[int, tuple[int, str]]:
    """Cache level -> (bytes per instance, CPUs sharing it), from sysfs."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind, level, size, shared = (
                (index / f).read_text().strip()
                for f in ("type", "level", "size", "shared_cpu_list")
            )
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            out[int(level)] = (int(size.rstrip("KM")) * scale, shared)
    return out


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment(threads: int, sizes: dict[str, int]) -> list[str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    caches = _caches()
    cache_text = ", ".join(
        f"L{level} {size >> 10} KiB shared by CPUs {shared}"
        for level, (size, shared) in sorted(caches.items())
    )
    lines = [
        f"commit: {_commit()}",
        f"python: {sys.version.split()[0]}",
        f"numpy: {np.__version__}",
        f"blas: {blas_text}, threads pinned to {threads} via {'/'.join(THREAD_VARS)}",
        f"nproc: {os.cpu_count()} (usable: {threads})",
        f"caches: {cache_text or 'unknown'}",
    ]
    lines += [f"array {name}: {size / 2**20:g} MiB" for name, size in sizes.items()]
    return ["# env " + line for line in lines]


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _untraced(wl, seconds: float, gates: list) -> dict[str, float]:
    from workloads import timed_op

    latencies = []
    start = time.perf_counter()
    # start an operation only if a typical one still ends inside the window
    while (len(latencies) < MIN_OPS
           or time.perf_counter() - start + statistics.median(latencies) <= seconds):
        try:
            latencies.append(timed_op(wl, gates))
        except Exception:
            traceback.print_exc()
            gates.append((f"operation {len(latencies)} raised", False))
            break
    if not latencies:
        raise SystemExit("no operation completed")
    quartiles = statistics.quantiles(latencies, n=10, method="inclusive")
    print(f"# {wl.name}: {len(latencies)} operations in {sum(latencies):.3f} s")
    return {
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p80": quartiles[7] * 1e3 if len(latencies) > 1 else latencies[0] * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one fresh set-up (import, inputs, warm-up) and print it")
    args = parser.parse_args(argv)

    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    import_s = _import_qbaker()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    gates: list[tuple[str, bool]] = []
    if args.trace:
        from layers import FFT_SIZE, LAYER_METRICS, traced_run

        copy_bytes = COPY_CACHE_MULTIPLE * _caches().get(3, (FALLBACK_L3, ""))[0]
        ran = {name: cls(args.seed, OUT) for name, cls in WORKLOADS.items()}
        values, gates, tracer = traced_run(args.workload, ran, copy_bytes)
        units = LAYER_METRICS
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print("# qfourier.gbps_vs_min is computed: 4*16*D bytes per step over the step time")
        sizes = {"ref fft input": 16 * FFT_SIZE, "ref copy buffer": copy_bytes}
    else:
        wl = WORKLOADS[args.workload](args.seed, OUT)
        ran = {wl.name: wl}
        t0 = time.perf_counter()
        wl.setup()
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        setups = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_REPS - 1)]
        values = _untraced(wl, args.seconds, gates)
        gates += wl.final_checks()
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        sizes = {}
    for name, wl in ran.items():
        sizes.update({f"{name} {k}": v for k, v in wl.array_sizes().items()})

    for line in _environment(threads, sizes):
        print(line)
    failed = [name for name, ok in gates if not ok]
    for name in failed:
        print(f"# FAILED gate: {name}")
    print(f"# error_rate: {len(failed)}/{len(gates)} = {len(failed) / max(len(gates), 1):g}")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(gates),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
