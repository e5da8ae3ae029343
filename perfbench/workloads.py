"""The three benchmark workloads: seeded inputs, one closed-loop operation,
and the correctness gates checked after each operation.

Every workload drives qbaker through public calls only.  The benchmark
builds the inputs (states, labels, seeds) from its own seed and passes them
in; an operation is issued only after the previous one returned and was
checked.  Gates are evaluated outside the timed operation.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import numpy as np

import qbaker
import qbaker.cli
import qbaker.verify
from qbaker import DotLabel, label_shift

NORM_TOL = 1e-10
OVERLAP_TOL = 1e-10


# The fixed criterion list of verify-full: (metric key, function, takes seed).
# A criterion added to qbaker.verify later is not picked up, so it cannot
# show as a slowdown.
CRITERIA = (
    ("c01", "check_unitarity", False),
    ("c02", "check_boundary_identities", False),
    ("c03", "check_b1_reduction", False),
    ("c04", "check_route_equivalence", False),
    ("c05", "check_dot_shift_law", False),
    ("c06", "check_product_form", False),
    ("c07", "check_bn_structure", True),
    ("c08", "check_displacement_algebra", False),
    ("c09", "check_localization", False),
    ("c10", "check_classical_oracle", True),
    ("c11", "check_fast_path", True),
    ("c12", "check_circuit_lowering", False),
)
# Timing gate of criterion 11: reported, never counted as a correctness failure.
SPEEDUP_GATE = "11b"


def random_label(rng: np.random.Generator, N: int, n: int) -> DotLabel:
    bits = tuple(int(b) for b in rng.integers(0, 2, N))
    return DotLabel(N=N, n=n, xbits=bits[:n], abits=bits[n:])


class _NoSpans:
    """Stands in for a Tracer in untraced runs."""

    run_id = ""

    @staticmethod
    def span(name: str, **attrs):
        return contextlib.nullcontext()


class Workload:
    """One workload.  `setup` builds the inputs from the seed and makes one
    untimed warm-up operation; `op` runs one operation; `check` returns the
    (gate name, passed) pairs for that operation's output."""

    name = ""
    root_span = ""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = _NoSpans()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, output) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, bool]]:
        return []

    def array_sizes(self) -> dict[str, int]:
        return {}


class TrajN20(Workload):
    """B_1 steps on a seeded random 20-qubit state: `iterate(state, 1, 1)`."""

    name = "traj-n20"
    root_span = "bakermap.iterate"
    N = 20

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.N])
        amps = rng.standard_normal(1 << self.N) + 1j * rng.standard_normal(1 << self.N)
        self.state = qbaker.statevector(amps / np.linalg.norm(amps))
        self.label = random_label(rng, self.N, int(rng.integers(1, self.N + 1)))
        self.op()

    def op(self):
        self.state = qbaker.iterate(self.state, 1, 1)
        return self.state

    def check(self, output) -> list[tuple[str, bool]]:
        return [("norm drift", abs(output.norm() - 1.0) <= NORM_TOL)]

    def final_checks(self) -> list[tuple[str, bool]]:
        # dot_state_product builds both states without the transform route
        image = qbaker.apply_baker_fast(qbaker.dot_state_product(self.label), self.label.n)
        target = qbaker.dot_state_product(label_shift(self.label))
        overlap = np.vdot(target.amps, image.amps).real
        return [(f"N={self.N} dot shift of {self.label}", overlap >= 1.0 - OVERLAP_TOL)]

    def array_sizes(self) -> dict[str, int]:
        return {"state": 16 << self.N}


class EvolveN16(Workload):
    """`qbaker evolve` in-process on seeded N=16, n=8 labels, CSV to a file."""

    name = "evolve-n16"
    root_span = "cli.main"
    N, MAP, STEPS = 16, 8, 6
    LABELS = 32

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, self.N])
        self.labels = [random_label(rng, self.N, self.MAP) for _ in range(self.LABELS)]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.out_path = self.out_dir / "evolve.csv"
        self.calls = 0
        self.op()

    def op(self):
        label = self.labels[self.calls % len(self.labels)]
        self.calls += 1
        argv = ["evolve", "--label", label.text(), "--n", str(self.MAP),
                "--steps", str(self.STEPS), "--out", str(self.out_path)]
        return label, qbaker.cli.main(argv)

    def check(self, output) -> list[tuple[str, bool]]:
        label, code = output
        lines = self.out_path.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        norms_ok = all(abs(float(r[1]) - 1.0) <= NORM_TOL for r in rows)
        shifted = len(rows) > 1 and rows[1][4] == label_shift(label).text()
        return [
            ("exit code 0", code == 0),
            ("steps+1 rows", len(rows) == self.STEPS + 1),
            ("norms within 1e-10", norms_ok),
            ("row 1 carries the shifted label", shifted),
        ]

    def array_sizes(self) -> dict[str, int]:
        return {"state": 16 << self.N}


class VerifyFull(Workload):
    """One pass of the fixed criterion list at cap 20 with the benchmark seed."""

    name = "verify-full"
    root_span = "verify.pass"
    CAP = 20
    # the warm-up runs every criterion's code at this cap, then builds the two
    # largest transform kernels a pass uses (N=12 in criterion 11b): the dense
    # route caches them per size, and building one costs as much as a pass's
    # dense product, so an unwarmed first pass would be an outlier
    WARMUP_CAP = 6
    WARMUP_KERNELS = (1 << 11, 1 << 12)

    def setup(self) -> None:
        self.speedups: list[float] = []
        self.run_criteria(self.WARMUP_CAP)
        if self.CAP >= 12:
            for size in self.WARMUP_KERNELS:
                qbaker.antiperiodic_dft(size)

    def run_criteria(self, cap: int) -> list:
        results = []
        for key, fname, seeded in CRITERIA:
            fn = getattr(qbaker.verify, fname)
            with self.tracer.span(f"verify.{fname}", key=key):
                results += fn(cap, self.seed) if seeded else fn(cap)
        return results

    def op(self):
        return self.run_criteria(self.CAP)

    def check(self, output) -> list[tuple[str, bool]]:
        gates = []
        for r in output:
            if r.skipped:
                print(f"SKIP {r.name}: {r.details}")
            elif r.name.startswith(SPEEDUP_GATE):
                self.speedups.append(r.observed)
                print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: observed {r.observed:.3f}"
                      f" >= {r.tolerance:g} ({r.details}) [timing gate, not in failed]")
            else:
                gates.append((r.name, r.passed))
        return gates


def timed_op(wl: Workload, gates: list) -> float:
    """Run one operation under its root span, check it untimed, return its seconds."""
    t0 = time.perf_counter()
    with wl.tracer.span(wl.root_span):
        output = wl.op()
    elapsed = time.perf_counter() - t0
    gates += wl.check(output)
    return elapsed


WORKLOADS = {w.name: w for w in (TrajN20, EvolveN16, VerifyFull)}
