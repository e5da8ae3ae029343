"""Antiperiodic discrete Fourier machinery on qubit strings.

The transform kernel on M = 2^m amplitudes is

    K[x, a] = 1/sqrt(M) * exp{2 pi i (x + 1/2)(a + 1/2) / M},

the half-integer-offset DFT forced by antiperiodic boundary conditions.  The
partial transform with n frozen qubits is I_{2^n} (x) K_{2^(N-n)}, acting on
the N-n least significant qubits; its two ends are the full transform (n = 0)
and i times the identity (n = N).

For fast application the kernel is factorized as

    K_M = e^{i pi/(2M)} * diag(e^{i pi x/M}) * W_M * diag(e^{i pi a/M}),

where W_M is the ordinary DFT with kernel exp(+2 pi i x a / M)/sqrt(M).  The
diagonals split into single-qubit phases (x is a sum of bit-weighted powers of
two), so each is a Kronecker product; the fast apply builds it from two factors,
one over the high half of the bits and one over the low half, at the cost of
about 2*sqrt(M) complex exponentials.  W_M is numpy's FFT along the last axis
(np.fft.ifft with norm="ortho"; np.fft.fft for the inverse), so one apply costs
O(D*(N-n)).
The same factorization, with W_M spelled out as Hadamards, controlled phases
and swaps, drives the gate-level lowering in `bakermap.emit_circuit`.

Dense matrices are plain complex ndarrays; states are thin immutable wrappers
around a length-2^N amplitude vector with slot 1 the most significant qubit.
An array is copied only where it arrives from a caller (`StateVector(...)`,
`statevector`); the states qbaker builds itself adopt their fresh arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import DotLabel, _binary_fraction, _qubit_count

NORM_TOL = 1e-12
UNITARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state of N qubits; amps[j] indexed by j = x_1...x_N."""

    N: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(np.array(self.amps, dtype=np.complex128, copy=True))

    @classmethod
    def _adopt(cls, N: int, amps: np.ndarray) -> "StateVector":
        """Wrap an array the caller has just computed and nothing else will
        write to: the constructor's checks and read-only flag, without its
        copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "N", N)
        state._freeze(np.asarray(amps, dtype=np.complex128))
        return state

    def _freeze(self, arr: np.ndarray) -> None:
        object.__setattr__(self, "N", _qubit_count(self.N))
        arr = arr.ravel()
        if arr.size != (1 << self.N):
            raise ValueError(
                f"amplitude vector of length {arr.size} does not match N={self.N}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def statevector(amps: np.ndarray) -> StateVector:
    """Validating constructor: length 2^N, finite amplitudes, and unit norm
    within NORM_TOL."""
    arr = np.asarray(amps, dtype=np.complex128).ravel()
    N = int(arr.size).bit_length() - 1
    if arr.size < 2 or arr.size != (1 << N):
        raise ValueError(f"amplitude vector length {arr.size} is not a power of two >= 2")
    if not np.isfinite(arr).all():
        raise ValueError("state has non-finite amplitudes")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return StateVector(N=N, amps=arr)


def basis_state(N: int, j: int) -> StateVector:
    """Computational (= position) basis state |q_j>."""
    D = 1 << _qubit_count(N)
    if not 0 <= j < D:
        raise IndexError(f"basis index {j} out of range [0, {D})")
    amps = np.zeros(D, dtype=np.complex128)
    amps[j] = 1.0
    return StateVector._adopt(N, amps)


def random_state(N: int, rng: np.random.Generator) -> StateVector:
    """Haar-random state: normalized complex Gaussian amplitudes."""
    D = 1 << _qubit_count(N)
    amps = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    amps /= np.linalg.norm(amps)
    return StateVector._adopt(N, amps)


def random_product_state(N: int, rng: np.random.Generator) -> StateVector:
    """Random product state: one normalized complex Gaussian qubit per slot."""
    N = _qubit_count(N)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(N):
        qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, qubit / np.linalg.norm(qubit))
    return StateVector._adopt(N, amps)


def unitarity_defect(m: np.ndarray) -> float:
    """Max-norm deviation of m^dag m from the identity."""
    m = np.asarray(m)
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def _check_unitary(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    defect = unitarity_defect(m)
    if defect > tol:
        raise ValueError(f"{what} is not unitary: defect {defect:.3e} > {tol:.1e}")
    return m


def antiperiodic_dft(M: int) -> np.ndarray:
    """Dense M x M transform K[x, a] = exp{2 pi i (x+1/2)(a+1/2)/M}/sqrt(M).

    M must be a power of two; M = 1 gives the 1 x 1 matrix (i).  The kernel
    is unitarity-checked on every build and returned as a fresh, writable
    array.
    """
    if M < 1 or (M & (M - 1)) != 0:
        raise ValueError(f"transform size must be a power of two >= 1, got {M}")
    half = np.arange(M) + 0.5
    kernel = np.exp(2j * np.pi * np.outer(half, half) / M) / np.sqrt(M)
    return _check_unitary(kernel, UNITARY_TOL, f"antiperiodic DFT (M={M})")


def _check_transform_index(N: int, n: int) -> tuple[int, int]:
    """(N, n) as plain ints with 0 <= n <= N, else a ValueError."""
    N, n = _qubit_count(N), _qubit_count(n, least=0, noun="partial-transform index n")
    if n > N:
        raise ValueError(f"partial-transform index n={n} out of range [0, {N}]")
    return N, n


def partial_transform(N: int, n: int) -> np.ndarray:
    """Dense partial transform on N qubits: identity on the n most significant
    qubits tensored with the antiperiodic DFT on the remaining N-n.  The
    result is a fresh, writable array."""
    N, n = _check_transform_index(N, n)
    return np.kron(np.eye(1 << n), antiperiodic_dft(1 << (N - n)))


def apply_partial_transform(
    state: StateVector, n: int, direction: str = "forward"
) -> StateVector:
    """Apply the partial transform (or its inverse) to a state.

    Matches dense multiplication by the kron-structured matrix but costs
    O(D*(N-n)): the leading n qubits index independent blocks, and the
    antiperiodic kernel runs per block as phase ladder, numpy FFT of length
    2^(N-n), phase ladder, global phase.  The ladder is the two-factor product
    of `_phase_ladder`, built once per call; the global phase is multiplied
    into it in place before its second use.  For n = N the block has length
    one and the FFT is skipped.  The result owns fresh, read-only amplitudes.
    """
    _, n = _check_transform_index(state.N, n)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    m = state.N - n
    sign = 1 if direction == "forward" else -1
    ladder = _phase_ladder(m, sign)
    out = state.amps.reshape(-1, 1 << m) * ladder
    if m > 0:
        # W_M has kernel exp(+2 pi i x a / M)/sqrt(M), which is numpy's ifft
        dft = np.fft.ifft if direction == "forward" else np.fft.fft
        out = dft(out, axis=-1, norm="ortho")
    ladder *= np.exp(sign * 1j * np.pi / (2 << m))
    out *= ladder
    return StateVector._adopt(state.N, out)


def _phase_ladder(m: int, sign: int) -> np.ndarray:
    """The diagonal e^{sign i pi k/M}, k < M = 2^m, as a Kronecker product.

    Writing k = c*F + f with F = 2^(m//2) splits each phase into a coarse
    factor e^{sign i pi c/C} (C = M/F) and a fine one e^{sign i pi f/M}, so
    only C + F ~ 2 sqrt(M) complex exponentials are evaluated.
    """
    fine = 1 << (m // 2)
    coarse = 1 << (m - m // 2)
    return np.multiply.outer(
        np.exp(sign * 1j * np.pi * np.arange(coarse) / coarse),
        np.exp(sign * 1j * np.pi * np.arange(fine) / (coarse * fine)),
    ).ravel()


def dot_state_transform(label: DotLabel) -> StateVector:
    """Dot-basis state built by transforming the computational basis state
    |x_1..x_n, a_1..a_{N-n}> (momentum register starts at slot n+1)."""
    return apply_partial_transform(basis_state(label.N, label.basis_index), label.n)


def dot_state_product(label: DotLabel) -> StateVector:
    """Dot-basis state built independently as an explicit product.

    The position qubits stay |x_l>; momentum slot n+m carries
    (|0> + e^{2 pi i (0.a_{t-m+1}..a_t 1)} |1>)/sqrt(2) for m = 1..t, t = N-n,
    and the whole state picks up the phase e^{i pi (0.a_1..a_t 1)}.
    """
    t = label.N - label.n
    factors = []
    for x in label.xbits:
        qubit = np.zeros(2, dtype=np.complex128)
        qubit[x] = 1.0
        factors.append(qubit)
    for m in range(1, t + 1):
        frac = float(_binary_fraction(label.abits[t - m:]))
        factors.append(
            np.array([1.0, np.exp(2j * np.pi * frac)], dtype=np.complex128) / np.sqrt(2)
        )
    amps = functools.reduce(np.kron, factors, np.ones(1, dtype=np.complex128))
    amps *= np.exp(1j * np.pi * float(_binary_fraction(label.abits)))
    return StateVector._adopt(label.N, amps)


def displacement_u(N: int) -> np.ndarray:
    """Momentum-direction displacement on N qubits, diagonal in position:
    U = diag(e^{2 pi i q_j})."""
    D = 1 << _qubit_count(N)
    q = (np.arange(D) + 0.5) / D
    return np.diag(np.exp(2j * np.pi * q))


def displacement_v(N: int) -> np.ndarray:
    """Position-direction displacement on N qubits, V = F diag(e^{-2 pi i p_k})
    F^dag; maps |q_j> to |q_{j+1}> with an antiperiodic wrap |q_{D-1}> -> -|q_0>."""
    D = 1 << _qubit_count(N)
    fourier = antiperiodic_dft(D)
    p = (np.arange(D) + 0.5) / D
    v = fourier @ (np.exp(-2j * np.pi * p)[:, None] * fourier.conj().T)
    return _check_unitary(v, UNITARY_TOL, "displacement V")
