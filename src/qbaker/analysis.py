"""Localization, entanglement, spectral, and correspondence diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import label_shift
from .lattice import DotLabel, bits_to_index
from .qfourier import StateVector, apply_partial_transform, dot_state_transform, _check_unitary
from .bakermap import apply_baker_fast


@dataclass(frozen=True)
class LocalizationReport:
    """Where a dot-basis state lives in position and momentum."""

    label: DotLabel
    support: tuple[int, ...]
    uniform_modulus_dev: float
    window_mass: float


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Sorted eigenphases of a unitary with circular nearest-neighbor gaps
    normalized to unit mean."""

    phases: np.ndarray
    unit_modulus_dev: float
    spacings: np.ndarray


@dataclass(frozen=True)
class CorrespondenceStep:
    """One step of the quantum trajectory matched against the label shift."""

    step: int
    label: DotLabel
    overlap: complex


def position_support(state: StateVector, tol: float) -> np.ndarray:
    """Sorted indices j with |amps[j]| > tol."""
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    return np.flatnonzero(np.abs(state.amps) > tol)


def check_strict_localization(label: DotLabel) -> LocalizationReport:
    """Measure the localization of a dot-basis state.

    Position support is strict (amplitudes outside the window with leading
    bits x_1..x_n vanish identically) and flat, modulus 2^{-(N-n)/2}; the
    momentum window with leading bits a_1..a_{N-n} carries only part of the
    probability, reported as window_mass.
    """
    N, n = label.N, label.n
    state = dot_state_transform(label)
    support = position_support(state, tol=1e-15)
    flat = 2.0 ** (-(N - n) / 2.0)
    dev = float(np.abs(np.abs(state.amps[support]) - flat).max()) if support.size else 0.0
    momentum = apply_partial_transform(state, 0, "inverse").amps
    a_int = bits_to_index(label.abits) if label.abits else 0
    lo = a_int << n
    mass = float(np.sum(np.abs(momentum[lo : lo + (1 << n)]) ** 2))
    return LocalizationReport(
        label=label,
        support=tuple(int(j) for j in support),
        uniform_modulus_dev=dev,
        window_mass=mass,
    )


def schmidt_entropy(state: StateVector, cut: int) -> float:
    """Entanglement entropy in bits across the contiguous cut between slots
    `cut` and `cut`+1, from the singular values of the amplitude matrix."""
    if not 1 <= cut <= state.N - 1:
        raise ValueError(f"cut {cut} out of range [1, {state.N - 1}]")
    matrix = state.amps.reshape(1 << cut, -1)
    svals = np.linalg.svd(matrix, compute_uv=False)
    probs = svals**2
    probs = probs[probs > 0]
    return float(-np.sum(probs * np.log2(probs)))


def max_contiguous_cut_entropy(state: StateVector) -> float:
    """Largest Schmidt entropy over all contiguous cuts; zero iff the state
    is a product across every cut."""
    if state.N < 2:
        raise ValueError("need at least two qubits to cut")
    return max(schmidt_entropy(state, cut) for cut in range(1, state.N))


def eigenphases(u: np.ndarray, tol: float = 1e-10) -> SpectrumReport:
    """Eigenphases of a unitary, sorted in [0, 2 pi), with circular
    nearest-neighbor spacings normalized to unit mean.  A phase within tol
    below 2 pi reads 0, so an eigenvalue 1 sorts first whichever way its
    imaginary part rounds."""
    u = _check_unitary(np.asarray(u, dtype=np.complex128), tol, "matrix")
    vals = np.linalg.eigvals(u)
    unit_dev = float(np.abs(np.abs(vals) - 1.0).max())
    phases = np.mod(np.angle(vals), 2.0 * np.pi)
    phases[phases > 2.0 * np.pi - tol] = 0.0
    phases.sort()
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    spacings = gaps * (len(phases) / (2.0 * np.pi))
    return SpectrumReport(phases=phases, unit_modulus_dev=unit_dev, spacings=spacings)


def correspondence_trajectory(label: DotLabel, steps: int) -> list[CorrespondenceStep]:
    """Drive a dot-basis state with the map matching its current dot position
    and record the overlap with the label-shifted dot state at every step.

    The dot can move right at most n times, so steps must not exceed label.n.
    """
    if steps < 0:
        raise ValueError(f"step count must be non-negative, got {steps}")
    if steps > label.n:
        raise ValueError(f"dot exhausted: {steps} steps requested but n={label.n}")
    state = dot_state_transform(label)
    current = label
    out: list[CorrespondenceStep] = []
    for k in range(1, steps + 1):
        state = apply_baker_fast(state, current.n)
        current = label_shift(current)
        target = dot_state_transform(current)
        overlap = complex(np.vdot(target.amps, state.amps))
        out.append(CorrespondenceStep(step=k, label=current, overlap=overlap))
    return out
