"""Localization, entanglement, spectral, and correspondence diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import label_shift
from .lattice import DotLabel, _integer, bits_to_index
from .qfourier import StateVector, apply_partial_transform, dot_state_transform, _check_unitary
from .bakermap import apply_baker_fast


@dataclass(frozen=True)
class LocalizationReport:
    """Where a dot-basis state lives in position and momentum."""

    label: DotLabel
    support: tuple[int, ...]
    uniform_modulus_dev: float
    off_window_max: float
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

    Position support is strict: amplitudes outside the window with leading
    bits x_1..x_n vanish identically (off_window_max is the largest modulus
    there, support every index above 1e-15).  Inside the window it is flat,
    modulus 2^{-(N-n)/2}; uniform_modulus_dev is the largest deviation from
    that over the window, so a stray amplitude outside it shows in the support
    alone.  The momentum window with leading bits a_1..a_{N-n} carries only
    part of the probability, reported as window_mass.
    """
    N, n = label.N, label.n
    state = dot_state_transform(label)
    modulus = np.abs(state.amps)
    first = bits_to_index(label.xbits) << (N - n)
    window = slice(first, first + (1 << (N - n)))
    dev = float(np.abs(modulus[window] - 2.0 ** (-(N - n) / 2.0)).max())
    off = float(np.delete(modulus, window).max(initial=0.0))
    momentum = apply_partial_transform(state, 0, "inverse").amps
    lo = bits_to_index(label.abits) << n
    mass = float(np.sum(np.abs(momentum[lo : lo + (1 << n)]) ** 2))
    return LocalizationReport(
        label=label,
        support=tuple(int(j) for j in position_support(state, tol=1e-15)),
        uniform_modulus_dev=dev,
        off_window_max=off,
        window_mass=mass,
    )


def schmidt_entropy(
    state: StateVector,
    cut: int,
    halves: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> float:
    """Entanglement entropy in bits across the contiguous cut between slots
    `cut` and `cut`+1.

    Every cut reads from one reduced density matrix per half of the string:
    rho_L on slots 1..h and rho_R on slots h+2..N, h = N // 2 (no rho_R at
    N = 2).  A cut at or left of h traces rho_L down to slots 1..cut; a cut
    right of it traces rho_R down to slots cut+1..N.  So the partial trace
    is taken on the smaller side of the cut, and the Schmidt probabilities
    are its eigenvalues (`eigvalsh`).  `halves` is the pair (rho_L, rho_R),
    rho_R None at N = 2, which `max_contiguous_cut_entropy` builds once for
    all cuts; without it only the matrix on the cut's side is built.  The
    matrices hold the amplitudes squared, which sets a rounding floor: a
    product state reads about 1e-13, not 0, while the singular values read
    about 1e-15.  A basis state still reads exactly 0, and no state reads
    below 0 (not even -0.0).
    """
    cut = _integer(cut, 1, state.N - 1, "cut")
    half = state.N // 2
    if cut <= half:
        rho_left = halves[0] if halves else _left_density(state)
        k, t = 1 << cut, 1 << (half - cut)
        rho = np.einsum("aibi->ab", rho_left.reshape(k, t, k, t))
    else:
        rho_right = halves[1] if halves else _right_density(state)
        k, t = 1 << (state.N - cut), 1 << (cut - half - 1)
        rho = np.einsum("iaib->ab", rho_right.reshape(t, k, t, k))
    probs = np.linalg.eigvalsh(rho)
    probs = probs[probs > 0]
    return max(0.0, float(-np.sum(probs * np.log2(probs))))


def _left_density(state: StateVector) -> np.ndarray:
    """rho_L = M M^dag, M = amps.reshape(2^h, -1): slots 1..h, h = N // 2."""
    left = state.amps.reshape(1 << (state.N // 2), -1)
    return left @ left.conj().T


def _right_density(state: StateVector) -> np.ndarray:
    """rho_R = M^T conj(M), M = amps.reshape(-1, 2^r): slots h+2..N,
    r = N - h - 1 >= 1."""
    right = state.amps.reshape(-1, 1 << (state.N - state.N // 2 - 1))
    return right.T @ right.conj()


def max_contiguous_cut_entropy(state: StateVector) -> float:
    """Largest Schmidt entropy over all contiguous cuts, each cut read from
    one pair of half-string matrices built for this call and dropped with
    it; at the rounding floor of `schmidt_entropy` iff the state is a
    product across every cut."""
    if state.N < 2:
        raise ValueError("need at least two qubits to cut")
    halves = (_left_density(state), _right_density(state) if state.N > 2 else None)
    return max(schmidt_entropy(state, cut, halves) for cut in range(1, state.N))


def eigenphases(u: np.ndarray, tol: float = 1e-10) -> SpectrumReport:
    """Eigenphases of a unitary, sorted in [0, 2 pi), with circular
    nearest-neighbor spacings normalized to unit mean.  A phase within tol
    of 0 on either side reads exactly 0, so an eigenvalue 1 sorts first and
    reads the same whichever way its imaginary part rounds.  After sorting,
    each phase within tol of its predecessor reads as the first phase of
    its run, so a degenerate eigenvalue has spacing exactly 0."""
    u = _check_unitary(np.asarray(u, dtype=np.complex128), tol, "matrix")
    vals = np.linalg.eigvals(u)
    unit_dev = float(np.abs(np.abs(vals) - 1.0).max())
    angles = np.angle(vals)
    angles[np.abs(angles) < tol] = 0.0
    phases = np.mod(angles, 2.0 * np.pi)
    phases.sort()
    fresh = np.diff(phases, prepend=-np.inf) >= tol
    phases = phases[fresh][np.cumsum(fresh) - 1]
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    spacings = gaps * (len(phases) / (2.0 * np.pi))
    return SpectrumReport(phases=phases, unit_modulus_dev=unit_dev, spacings=spacings)


def correspondence_trajectory(label: DotLabel, steps: int) -> list[CorrespondenceStep]:
    """Drive a dot-basis state with the map matching its current dot position
    and record the overlap with the label-shifted dot state at every step.

    The dot can move right at most n times, so steps must not exceed label.n.
    """
    steps = _integer(steps, 0, label.n, "step count (dot exhausted after n)")
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
