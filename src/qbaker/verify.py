"""Acceptance checks for the whole package, runnable from the CLI or pytest.

Each criterion produces one or more CheckResult records with an observed
value, its tolerance, and the comparison sense; a restricted run (max_n)
skips sub-checks whose defining size is out of reach instead of failing
them.  All randomness is drawn from generators seeded per check, so a run
is reproducible from (seed, max_n) alone.  Running worsts and bests are
folded with np.maximum, which keeps a NaN (Python's max can drop one), so a
NaN from any route fails its check.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    check_strict_localization,
    correspondence_trajectory,
    eigenphases,
    max_contiguous_cut_entropy,
)
from .bakermap import (
    DENSE_CAP_N,
    FAST_CAP_N,
    _check_map_index,
    _cyclic_rows,
    apply_baker_fast,
    apply_circuit,
    baker_composed,
    baker_from_basis_map,
    circuit_to_matrix,
    emit_circuit,
    last_qubit_unitary,
)
from .classical import SymbolString, decode, geometric_baker, label_shift, shift
from .lattice import _integer, bits_to_index, iter_labels
from .qfourier import (
    StateVector,
    antiperiodic_dft,
    displacement_u,
    displacement_v,
    dot_state_product,
    dot_state_transform,
    partial_transform,
    random_product_state,
    random_state,
    unitarity_defect,
)

DEFAULT_SEED = 20990


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    sense: str = "max<="  # or "min>="
    details: str = ""
    skipped: bool = False
    # wall time of the criterion that produced this check, set by run_all;
    # the sub-checks of one criterion share it
    elapsed_s: float | None = None

    @property
    def margin(self) -> float:
        if self.sense == "max<=":
            return self.tolerance - self.observed
        return self.observed - self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "observed": _json_number(self.observed),
            "tolerance": _json_number(self.tolerance),
            "sense": self.sense,
            "margin": _json_number(self.margin),
            "details": self.details,
            "elapsed_s": _json_number(self.elapsed_s),
        }

    def line(self) -> str:
        """One-line report: status, name, observed value against its bound."""
        if self.skipped:
            return f"SKIP {self.name}: {self.details}"
        status = "PASS" if self.passed else "FAIL"
        bound = "<=" if self.sense == "max<=" else ">="
        text = f"{status} {self.name}: observed {self.observed:.3e} {bound} {self.tolerance:.3e}"
        if self.details:
            text += f" ({self.details})"
        return text


def _json_number(x: float | None) -> float | None:
    """x as a float, or None (JSON null) when missing or non-finite."""
    return float(x) if x is not None and np.isfinite(x) else None


def _max_result(name: str, observed: float, tol: float, details: str = "") -> CheckResult:
    return CheckResult(name, bool(observed <= tol), float(observed), tol, "max<=", details)


def _min_result(name: str, observed: float, tol: float, details: str = "") -> CheckResult:
    return CheckResult(name, bool(observed >= tol), float(observed), tol, "min>=", details)


def _skip(name: str, needed: int, cap: int) -> CheckResult:
    return CheckResult(
        name, True, float("nan"), float("nan"), "max<=",
        f"skipped: needs N={needed}, run capped at {cap}", skipped=True,
    )


def best_time(fn, reps: int = 5) -> float:
    """Smallest wall time of `reps` calls of fn, in seconds."""
    best = float("inf")
    for _ in range(_integer(reps, noun="reps")):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def time_fast_vs_dense(
    N: int, n: int, rng: np.random.Generator, reps: int = 5
) -> tuple[float, float | None, float | None]:
    """(fast_s, dense_s, max_abs_err) for the n-th map on a random N-qubit state
    drawn from rng once (N, n) and reps pass: the best of `reps` fast applies
    after one warm-up call, then, up to the dense cap, the best of `reps` dense
    matvecs and the images' largest entrywise difference (else None, None)."""
    N, n = _check_map_index(N, n)
    reps = _integer(reps, noun="reps")
    state = random_state(N, rng)  # drawn only once the arguments pass
    image = apply_baker_fast(state, n).amps  # the warm-up call, kept for err
    fast_t = best_time(lambda: apply_baker_fast(state, n), reps)
    if N > DENSE_CAP_N:
        return fast_t, None, None
    dense = baker_composed(N, n)
    dense_t = best_time(lambda: dense @ state.amps, reps)
    return fast_t, dense_t, float(np.abs(image - dense @ state.amps).max())


# --- criteria ---------------------------------------------------------------


def check_unitarity(cap: int, perturb: float = 0.0) -> list[CheckResult]:
    """1. G_n and B_n are unitary to 1e-12 for all N <= 8."""
    worst = 0.0
    injected = perturb != 0.0
    for N in range(1, min(8, cap) + 1):
        for n in range(N + 1):
            g = partial_transform(N, n)
            if injected:
                g[0, 0] += perturb
                injected = False
            worst = np.maximum(worst, unitarity_defect(g))
        for n in range(1, N + 1):
            worst = np.maximum(worst, unitarity_defect(baker_composed(N, n)))
    details = f"perturbation {perturb:g} injected into one G_n entry" if perturb else ""
    return [_max_result("1 unitarity G_n/B_n", worst, 1e-12, details)]


def check_boundary_identities(cap: int) -> list[CheckResult]:
    """2. G_N = i*I and G_0 equals the antiperiodic DFT, entrywise to 1e-15."""
    worst = 0.0
    for N in range(1, min(8, cap) + 1):
        g_top, g_zero = partial_transform(N, N), partial_transform(N, 0)
        worst = np.maximum(worst, np.abs(g_top - 1j * np.eye(1 << N)).max())
        worst = np.maximum(worst, np.abs(g_zero - antiperiodic_dft(1 << N)).max())
    return [_max_result("2 boundary identities", worst, 1e-15)]


def check_b1_reduction(cap: int) -> list[CheckResult]:
    """3. The n = 1 map equals G_0 G_1^dag entrywise to 1e-12."""
    worst = 0.0
    for N in range(1, min(8, cap) + 1):
        direct = partial_transform(N, 0) @ partial_transform(N, 1).conj().T
        worst = np.maximum(worst, np.abs(baker_composed(N, 1) - direct).max())
    return [_max_result("3 B_1 = G_0 G_1^dag", worst, 1e-12)]


def check_route_equivalence(cap: int) -> list[CheckResult]:
    """4. Basis-map and composed constructions agree entrywise to 1e-12."""
    worst = 0.0
    for N in range(1, min(8, cap) + 1):
        for n in range(1, N + 1):
            diff = np.abs(baker_from_basis_map(N, n) - baker_composed(N, n)).max()
            worst = np.maximum(worst, diff)
    return [_max_result("4 route equivalence", worst, 1e-12)]


def check_dot_shift_law(cap: int) -> list[CheckResult]:
    """5. <shifted label|B_n|label> = 1 to 1e-12 for every label, N <= 6."""
    worst = 0.0
    for N in range(1, min(6, cap) + 1):
        for n in range(1, N + 1):
            b = baker_composed(N, n)
            for label in iter_labels(N, n):
                source = dot_state_transform(label).amps
                target = dot_state_transform(label_shift(label)).amps
                worst = np.maximum(worst, abs(np.vdot(target, b @ source) - 1.0))
    return [_max_result("5 dot-shift law", worst, 1e-12)]


def check_product_form(cap: int) -> list[CheckResult]:
    """6. Product-state and transform constructions of every dot state agree
    to 1e-12 for N <= 6."""
    worst = 0.0
    for N in range(1, min(6, cap) + 1):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                diff = np.abs(
                    dot_state_product(label).amps - dot_state_transform(label).amps
                ).max()
                worst = np.maximum(worst, diff)
    return [_max_result("6 product-form equivalence", worst, 1e-12)]


def check_bn_structure(cap: int, seed: int) -> list[CheckResult]:
    """7. The n = N map is (u on the last slot) * Cyc_N, its images of 20
    random product states per N stay products at every N from 2 to 12, and
    smaller n genuinely entangle."""
    out = []
    worst = 0.0
    for N in range(1, min(8, cap) + 1):
        rotate_last = np.kron(np.eye(1 << (N - 1)), last_qubit_unitary())
        direct = rotate_last @ _cyclic_rows(np.eye(1 << N), N, N)
        worst = np.maximum(worst, np.abs(baker_composed(N, N) - direct).max())
    out.append(_max_result("7a B_N = (u on last)*Cyc_N", worst, 1e-12))

    top = min(12, cap)
    if top >= 2:
        rng = np.random.default_rng([seed, 7])
        worst_ent = 0.0
        for N in range(2, top + 1):
            for _ in range(20):
                image = apply_baker_fast(random_product_state(N, rng), N)
                worst_ent = np.maximum(worst_ent, max_contiguous_cut_entropy(image))
        out.append(
            _max_result("7b B_N keeps products unentangled", worst_ent, 1e-10, f"N=2..{top}")
        )
    else:
        out.append(_skip("7b B_N keeps products unentangled", 2, cap))

    if cap >= 3:
        rng = np.random.default_rng([seed, 77])
        b1 = baker_composed(3, 1)
        best = 0.0
        inputs = [np.eye(8)[:, j] for j in range(8)]
        inputs += [random_product_state(3, rng).amps for _ in range(20)]
        for amps in inputs:
            image = StateVector(N=3, amps=b1 @ amps)
            best = np.maximum(best, max_contiguous_cut_entropy(image))
        out.append(_min_result("7c B_1 entangles at N=3", best, 0.1))
    else:
        out.append(_skip("7c B_1 entangles at N=3", 3, cap))
    return out


def check_displacement_algebra(cap: int) -> list[CheckResult]:
    """8. UV = VU e^{2 pi i/D} and U^D = V^D = -1, to 1e-12 for N <= 8."""
    worst = 0.0
    for N in range(1, min(8, cap) + 1):
        D = 1 << N
        u, v, eye = displacement_u(N), displacement_v(N), np.eye(D)
        worst = np.maximum(worst, np.abs(u @ v - np.exp(2j * np.pi / D) * (v @ u)).max())
        worst = np.maximum(worst, np.abs(np.linalg.matrix_power(u, D) + eye).max())
        worst = np.maximum(worst, np.abs(np.linalg.matrix_power(v, D) + eye).max())
    return [_max_result("8 displacement algebra", worst, 1e-12)]


def check_localization(cap: int) -> list[CheckResult]:
    """9. Strict flat position support for every label (N <= 8), exactly its
    window above 1e-15, and momentum window masses matching a dense oracle to
    1e-12: the dense DFT of the dense partial transform's basis column."""
    worst_pos = 0.0
    worst_mass = 0.0
    mismatches = 0
    first_bad = ""
    for N in range(1, min(8, cap) + 1):
        dense_f = antiperiodic_dft(1 << N)
        for n in range(N + 1):
            dense_momentum = dense_f.conj().T @ partial_transform(N, n)
            for label in iter_labels(N, n):
                report = check_strict_localization(label)
                x_int = bits_to_index(label.xbits)
                expected = tuple(range(x_int << (N - n), (x_int + 1) << (N - n)))
                if report.support != expected:
                    mismatches += 1
                    first_bad = first_bad or f"first mismatch at {label}"
                worst_pos = np.maximum(worst_pos, report.uniform_modulus_dev)
                worst_pos = np.maximum(worst_pos, report.off_window_max)
                momentum = dense_momentum[:, label.basis_index]
                lo = bits_to_index(label.abits) << n
                dense_mass = float(np.sum(np.abs(momentum[lo : lo + (1 << n)]) ** 2))
                worst_mass = np.maximum(worst_mass, abs(report.window_mass - dense_mass))
    return [
        _max_result("9a strict position localization", worst_pos, 1e-12),
        _max_result("9a exact position support", mismatches, 0.0, first_bad),
        _max_result("9b momentum window mass vs dense", worst_mass, 1e-12),
    ]


def check_classical_oracle(cap: int, seed: int) -> list[CheckResult]:
    """10. decode(shift(s)) equals the geometric map exactly on 1000 random
    windows, and the quantum trajectory tracks the label shift, N <= 5."""
    rng = np.random.default_rng([seed, 10])
    mismatches = 0
    for _ in range(1000):
        left = tuple(rng.integers(0, 2, rng.integers(0, 33)))
        right = tuple(rng.integers(0, 2, rng.integers(1, 33)))
        s = SymbolString(left=left, right=right)
        if decode(shift(s)) != geometric_baker(*decode(s)):
            mismatches += 1
    out = [_max_result("10a symbolic vs geometric (exact)", float(mismatches), 0.0)]

    worst = 0.0
    for N in range(1, min(5, cap) + 1):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                for step in correspondence_trajectory(label, steps=n):
                    worst = np.maximum(worst, 1.0 - step.overlap.real)
    out.append(_max_result("10b correspondence trajectory", worst, 1e-10))
    return out


def check_fast_path(cap: int, seed: int) -> list[CheckResult]:
    """11. Fast apply matches the dense map to 1e-10 on 100 states per map
    (N <= 10), beats the dense matvec >= 10x at N = 12 and matches it there to
    1e-10, and one N = 20 step runs in < 5 s."""
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for N in range(1, min(10, cap) + 1):
        for n in range(1, N + 1):
            states = [random_state(N, rng) for _ in range(100)]
            stack = np.stack([state.amps for state in states], axis=1)
            fast = np.stack([apply_baker_fast(state, n).amps for state in states], axis=1)
            worst = np.maximum(worst, np.abs(fast - baker_composed(N, n) @ stack).max())
    out = [_max_result("11a fast apply vs dense matvec", worst, 1e-10)]

    if cap >= 12:
        fast_t, dense_t, err = time_fast_vs_dense(12, 1, rng)
        timing = f"dense {dense_t * 1e3:.2f} ms, fast {fast_t * 1e3:.2f} ms"
        out.append(_min_result("11b speedup at N=12", dense_t / fast_t, 10.0, timing))
        out.append(_max_result("11d dense vs fast at N=12", err, 1e-10))
    else:
        out.append(_skip("11b speedup at N=12", 12, cap))
        out.append(_skip("11d dense vs fast at N=12", 12, cap))

    name = f"11c one N={FAST_CAP_N} step under 5 s"
    if cap >= FAST_CAP_N:
        state, images = random_state(FAST_CAP_N, rng), []
        elapsed = best_time(lambda: images.append(apply_baker_fast(state, 1)), reps=1)
        drift = f"norm drift {abs(images[0].norm() - 1.0):.2e}"
        out.append(_max_result(name, elapsed, 5.0, drift))
    else:
        out.append(_skip(name, FAST_CAP_N, cap))
    return out


def check_circuit_lowering(cap: int) -> list[CheckResult]:
    """12. Lowered circuits reproduce the dense maps to 1e-10 with O(N^2)
    gates, and the N = 1 circuit has eigenphases {0, 3 pi/2}."""
    worst = 0.0
    for N in range(1, min(6, cap) + 1):
        for n in range(1, N + 1):
            got = circuit_to_matrix(emit_circuit(N, n))
            worst = np.maximum(worst, np.abs(got - baker_from_basis_map(N, n)).max())
    out = [_max_result("12a circuit vs dense map", worst, 1e-10)]

    # the measured worst ratio is 2.33 at N=3, n=1 (fixed small-N overhead)
    # and decays towards ~1.1 as N grows, so c = 3 has real headroom
    ratio = 0.0
    heaviest = ""
    for N in range(1, min(8, cap) + 1):
        for n in range(1, N + 1):
            count = len(emit_circuit(N, n))
            if count / N**2 > ratio:
                ratio = count / N**2
                heaviest = f"{count} gates at N={N}, n={n}"
    out.append(_max_result("12b gate count <= c*N^2, c=3", ratio, 3.0, heaviest))

    phases = eigenphases(circuit_to_matrix(emit_circuit(1, 1))).phases
    worst = float(np.abs(phases - [0.0, 1.5 * np.pi]).max())
    out.append(_max_result("12c N=1 circuit eigenphases {0, 3pi/2}", worst, 1e-10))
    return out


def check_circuit_vs_fast(cap: int, seed: int) -> list[CheckResult]:
    """13. The lowered circuit run on a random state matches the fast apply to
    1e-10 past the dense cap: every n at N = 16, and n = 1 and n = N (where
    C_N is the exact u) at N = 20."""
    rng = np.random.default_rng([seed, 13])
    out = []
    for sub, N, ns in (("a", 16, range(1, 17)), ("b", FAST_CAP_N, (1, FAST_CAP_N))):
        name = f"13{sub} circuit vs fast apply at N={N}"
        if cap < N:
            out.append(_skip(name, N, cap))
            continue
        state = random_state(N, rng)
        worst, where = 0.0, ""
        for n in ns:
            got = apply_circuit(state.amps, emit_circuit(N, n))
            diff = np.abs(got - apply_baker_fast(state, n).amps).max()
            if diff >= worst or np.isnan(diff):
                worst, where = diff, f"worst at n={n}"
        out.append(_max_result(name, worst, 1e-10, where))
    return out


def criteria(cap: int, seed: int = DEFAULT_SEED, perturb: float = 0.0) -> tuple:
    """Every acceptance criterion in report order, bound to its arguments:
    call one to get its CheckResult records.  `run_all` and the acceptance
    tests both read this list, so a new criterion is added here only."""
    return (
        functools.partial(check_unitarity, cap, perturb),
        functools.partial(check_boundary_identities, cap),
        functools.partial(check_b1_reduction, cap),
        functools.partial(check_route_equivalence, cap),
        functools.partial(check_dot_shift_law, cap),
        functools.partial(check_product_form, cap),
        functools.partial(check_bn_structure, cap, seed),
        functools.partial(check_displacement_algebra, cap),
        functools.partial(check_localization, cap),
        functools.partial(check_classical_oracle, cap, seed),
        functools.partial(check_fast_path, cap, seed),
        functools.partial(check_circuit_lowering, cap),
        functools.partial(check_circuit_vs_fast, cap, seed),
    )


def run_all(
    max_n: int | None = None, seed: int = DEFAULT_SEED, perturb: float = 0.0
) -> list[CheckResult]:
    """Run every acceptance criterion, clamped to max_n when given."""
    cap = FAST_CAP_N if max_n is None else _integer(max_n, noun="max_n")
    _integer(seed, 0, noun="seed")  # reject a bad seed before any criterion runs
    results: list[CheckResult] = []
    for criterion in criteria(cap, seed, perturb):
        batch: list[CheckResult] = []
        elapsed = best_time(lambda: batch.extend(criterion()), reps=1)
        for r in batch:
            r.elapsed_s = elapsed
        results += batch
    return results
