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
two), so each is a Kronecker product; the fast apply never builds one in full.
`_ladder` keeps it as a pair of factors, a fine one over the low (at most 12)
bits and a coarse one over the rest, and `_apply_ladder` multiplies a state by
the pair through a broadcast view, so a diagonal of M <= 4096 phases takes one
pass over the state and a longer one two.  W_M is numpy's FFT along the last
axis (np.fft.ifft with norm="ortho"; np.fft.fft for the inverse), run in place
in the output array, so one apply costs O(D*(N-n)) and allocates one state.
The 2^n rows of a large state are split into one block per usable CPU and
transformed on a thread pool (numpy's FFT releases the interpreter lock);
smaller states stay on the calling thread.
The same factorization, with W_M spelled out as Hadamards, controlled phases
and swaps, drives the gate-level lowering in `bakermap.emit_circuit`.

Dense matrices are plain complex ndarrays; states are thin immutable wrappers
around a length-2^N amplitude vector with slot 1 the most significant qubit.
A caller's array enters through `StateVector(...)`, which copies it and checks
that it is a finite unit vector; the states qbaker computes adopt theirs.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import DotLabel, _binary_fraction, _integer

NORM_TOL = 1e-12
UNITARY_TOL = 1e-12
# A partial transform of at least this many amplitudes splits its rows across
# the usable CPUs.  On a 2-vCPU Xeon a split B_n step took 0.84-1.51x the time
# of an unsplit one at N = 14, 0.76-0.94x at N = 15..16 and 0.61-0.82x at
# N = 17..18.  Split at N = 16, `qbaker evolve` ran slower, since the threaded
# BLAS products of its entropies compete for the same CPUs; so states up to
# N = 16 stay on the calling thread.
THREADED_MIN_AMPS = 1 << 17


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state of N qubits; amps[j] indexed by j = x_1...x_N.
    The one checked way in: it copies amps, then requires a qubit count, the
    length 2^N, finite amplitudes and a norm within NORM_TOL of 1."""

    N: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self._freeze(self.N, np.array(self.amps, dtype=np.complex128, copy=True))
        if not np.isfinite(self.amps).all():
            raise ValueError("state has non-finite amplitudes")
        drift = abs(self.norm() - 1.0)
        if drift > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {drift:.3e}")

    @classmethod
    def _adopt(cls, N: int, amps: np.ndarray) -> "StateVector":
        """Wrap a unit vector qbaker has just computed, which nothing else will
        write to: the qubit-count and length checks and the read-only flag, but
        neither the copy nor the value checks."""
        state = object.__new__(cls)
        state._freeze(N, np.asarray(amps, dtype=np.complex128))
        return state

    def _freeze(self, N: int, arr: np.ndarray) -> None:
        object.__setattr__(self, "N", _integer(N))
        arr = arr.ravel()
        if arr.size != (1 << self.N):
            raise ValueError(
                f"amplitude vector of length {arr.size} does not match N={self.N}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def norm(self) -> float:
        """Euclidean norm, as the square root of one float64 dot product that
        numpy computes itself.  BLAS is avoided on purpose: a threaded OpenBLAS
        leaves its worker thread spinning on another CPU after the call, which
        takes that CPU from the transform blocks of the next map step."""
        flat = self.amps.view(np.float64)
        return float(np.sqrt(np.einsum("i,i->", flat, flat)))


def statevector(amps: np.ndarray) -> StateVector:
    """`StateVector(N, amps)` with N read off the length 2^N."""
    arr = np.asarray(amps, dtype=np.complex128).ravel()
    N = int(arr.size).bit_length() - 1
    if arr.size < 2 or arr.size != (1 << N):
        raise ValueError(f"amplitude vector length {arr.size} is not a power of two >= 2")
    return StateVector(N=N, amps=arr)


def basis_state(N: int, j: int) -> StateVector:
    """Computational (= position) basis state |q_j>."""
    D, j = 1 << _integer(N), _integer(j, None, noun="basis index")
    if not 0 <= j < D:
        raise IndexError(f"basis index {j} out of range [0, {D})")
    amps = np.zeros(D, dtype=np.complex128)
    amps[j] = 1.0
    return StateVector._adopt(N, amps)


def random_state(N: int, rng: np.random.Generator) -> StateVector:
    """Haar-random state: normalized complex Gaussian amplitudes."""
    D = 1 << _integer(N)
    amps = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    amps /= np.linalg.norm(amps)
    return StateVector._adopt(N, amps)


def random_product_state(N: int, rng: np.random.Generator) -> StateVector:
    """Random product state: one normalized complex Gaussian qubit per slot."""
    N = _integer(N)
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

    M must be a power of two; M = 1 gives the 1 x 1 matrix (i).  Each phase
    is taken at the exact integer residue (2x+1)(2a+1) mod 4M.  The kernel is
    unitarity-checked on every build and returned as a fresh, writable array.
    """
    M = _integer(M, noun="transform size")
    if M & (M - 1):
        raise ValueError(f"transform size must be a power of two >= 1, got {M}")
    odd = 2 * np.arange(M) + 1
    kernel = np.exp(2j * np.pi * (np.outer(odd, odd) % (4 * M)) / (4 * M)) / np.sqrt(M)
    return _check_unitary(kernel, UNITARY_TOL, f"antiperiodic DFT (M={M})")


def _check_transform_index(N: int, n: int) -> tuple[int, int]:
    """(N, n) as plain ints with 0 <= n <= N, else a ValueError."""
    N = _integer(N)
    return N, _integer(n, 0, N, "partial-transform index n")


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
    O(D*(N-n)): the leading n qubits index 2^n independent rows, and the
    antiperiodic kernel runs per row as phase ladder, numpy FFT of length
    2^(N-n), phase ladder times global phase.  Both ladders are factor pairs
    of `_ladder`, the second with the global phase folded in.  Every step
    writes into the one output array: the first ladder multiplies the rows
    into it, and the FFT and the second ladder then work in place.  For n = N
    the rows have length one and the FFT is skipped.

    A state of at least THREADED_MIN_AMPS amplitudes has its rows split into
    contiguous blocks, one per usable CPU (the process's affinity mask, else
    `os.cpu_count()`), which run on a thread pool created at first use, each
    in its own rows of the output.  Each row is computed the same way whichever
    block holds it, so the amplitudes do not depend on the CPU count.  The
    result owns fresh, read-only amplitudes.
    """
    _, n = _check_transform_index(state.N, n)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    m = state.N - n
    sign = 1 if direction == "forward" else -1
    before, after = _ladder(m, sign), _ladder(m, sign, offset=0.5)
    # W_M has kernel exp(+2 pi i x a / M)/sqrt(M), which is numpy's ifft
    dft = np.fft.ifft if direction == "forward" else np.fft.fft
    rows = state.amps.reshape(-1, 1 << m)
    out = np.empty_like(rows)

    def transform(block: slice) -> None:
        work = out[block]
        _apply_ladder(rows[block], before, work)
        if m > 0:
            dft(work, axis=-1, norm="ortho", out=work)
        _apply_ladder(work, after, work)

    blocks = _row_blocks(rows.shape[0], rows.size)
    if len(blocks) == 1:
        transform(blocks[0])
    else:
        pool = _pool(len(blocks))
        for done in [pool.submit(transform, block) for block in blocks]:
            done.result()
    return StateVector._adopt(state.N, out)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(count: int, size: int) -> list[slice]:
    """Split `count` rows holding `size` amplitudes into contiguous blocks:
    one below THREADED_MIN_AMPS, else one per usable CPU (at most one per row)."""
    blocks = min(_usable_cpus(), count) if size >= THREADED_MIN_AMPS else 1
    edges = [count * k // blocks for k in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The thread pool of the partial transform, made on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="qbaker-transform")


# A phase ladder's fine factor spans at most 2^12 contiguous phases, so a
# ladder of up to 4096 phases is one factor, applied in one pass.
_FINE_BITS = 12


@functools.cache
def _ladder(
    m: int, turn: float, offset: float = 0.0, scale: float = 1.0
) -> tuple[np.ndarray | None, np.ndarray]:
    """The diagonal scale * e^{turn i pi (k + offset)/M}, k < M = 2^m, as a
    Kronecker pair (coarse, fine) of read-only arrays; the transforms use
    turn = +-1.

    Writing k = c*F + f with F = 2^min(m, 12) splits each phase into a coarse
    factor scale * e^{turn i pi (c*F + offset)/M}, one per c < C = M/F, and a
    fine one e^{turn i pi f/M}.  The scale and offset ride on the coarse
    factor, which is the smaller one up to m = 24.  At C = 1 they fold into
    the fine factor, and coarse is None.  A pair is built once per argument
    tuple (a few kinds per m, at most 2^12 + C phases each) and then reused,
    since at N = 12 building the two ladders took as long as the FFT.
    `_apply_ladder` multiplies a state by the pair.
    """
    M, F = 1 << m, 1 << min(m, _FINE_BITS)

    def phases(k: np.ndarray) -> np.ndarray:
        return np.exp(turn * 1j * np.pi * k / M)

    if M == F:
        coarse, fine = None, scale * phases(np.arange(M) + offset)
    else:
        coarse = scale * phases(np.arange(0, M, F) + offset)[:, None]
        coarse.setflags(write=False)
        fine = phases(np.arange(F))
    fine.setflags(write=False)
    return coarse, fine


def _apply_ladder(
    src: np.ndarray, ladder: tuple[np.ndarray | None, np.ndarray], out: np.ndarray
) -> None:
    """out = src * diagonal along the last axis of C-contiguous (rows, M)
    arrays, with the diagonal a `_ladder` pair; out may be src.  The pair acts
    as two broadcast multiplies on (rows, C, F) views, one when coarse is None,
    so no M-entry diagonal is built."""
    coarse, fine = ladder
    if coarse is None:
        np.multiply(src, fine, out=out)
        return
    shape = (-1, coarse.shape[0], fine.size)
    work = out.reshape(shape)
    np.multiply(src.reshape(shape), fine, out=work)
    work *= coarse


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
    D = 1 << _integer(N)
    q = (np.arange(D) + 0.5) / D
    return np.diag(np.exp(2j * np.pi * q))


def displacement_v(N: int) -> np.ndarray:
    """Position-direction displacement on N qubits, V = F diag(e^{-2 pi i p_k}) F^dag,
    built exactly as the signed shift |q_j> -> |q_{j+1}>, |q_{D-1}> -> -|q_0>."""
    v = np.eye(1 << _integer(N), k=-1, dtype=np.complex128)
    v[0, -1] = -1.0
    return _check_unitary(v, UNITARY_TOL, "displacement V")
