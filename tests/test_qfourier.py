import math
import re
import tracemalloc

import numpy as np
import pytest

from qbaker import qfourier
from qbaker.bakermap import apply_baker_fast
from qbaker.lattice import DotLabel, iter_labels
from qbaker.qfourier import (
    StateVector,
    _apply_ladder,
    _ladder,
    antiperiodic_dft,
    apply_partial_transform,
    basis_state,
    displacement_u,
    displacement_v,
    dot_state_product,
    dot_state_transform,
    partial_transform,
    random_state,
    statevector,
    unitarity_defect,
)


def dense_kernel(M):
    """Independent oracle: the half-integer-offset DFT written out directly."""
    out = np.empty((M, M), dtype=complex)
    for x in range(M):
        for a in range(M):
            out[x, a] = np.exp(2j * np.pi * (x + 0.5) * (a + 0.5) / M) / np.sqrt(M)
    return out


# --- state plumbing ----------------------------------------------------------


def _both_doors_reject(amps, message):
    """`statevector` and `StateVector` both reject amps, whose length is 2^N,
    with `message`; a wrong length and a bad qubit count are still named first."""
    N = len(amps).bit_length() - 1
    for build in (lambda: statevector(amps), lambda: StateVector(N=N, amps=amps)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    with pytest.raises(ValueError, match=f"^amplitude vector of length {len(amps)} does not"):
        StateVector(N=N + 1, amps=amps)
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="^qubit count"):
            StateVector(N=bad, amps=amps)


@pytest.mark.parametrize(
    "amps,message",
    [
        ([1.0, 1.0], "state is not normalized: |norm - 1| = 4.142e-01"),
        ([3.0, 4.0], "state is not normalized: |norm - 1| = 4.000e+00"),
        (np.zeros(8), "state is not normalized: |norm - 1| = 1.000e+00"),
    ],
    ids=["1-1", "3-4", "zeros"],
)
def test_statevector_checks_norm_and_length(amps, message):
    statevector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="^amplitude vector length 3 is not a power of two"):
        statevector(np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError, match="^amplitude vector of length 8 does not match N=2$"):
        StateVector(N=2, amps=np.zeros(8))
    _both_doors_reject(amps, message)


def test_statevector_qubit_count_is_a_plain_int():
    assert type(StateVector(N=np.int64(1), amps=[1, 0]).N) is int
    for bad in (True, 1.0):
        with pytest.raises(ValueError):
            StateVector(N=bad, amps=[1, 0])


@pytest.mark.parametrize(
    "amps",
    [[np.nan, 0.0], [np.nan, 5.0, 0.0, 0.0], [np.inf, 0.0], [1.0, -np.inf]],
    ids=["nan-0", "nan-5-0-0", "inf-0", "1-minus-inf"],
)
def test_statevector_rejects_non_finite(amps):
    _both_doors_reject(amps, "state has non-finite amplitudes")


def test_statevector_amps_are_frozen():
    state = basis_state(2, 1)
    with pytest.raises(ValueError):
        state.amps[0] = 1.0


# --- the antiperiodic kernel --------------------------------------------------


def test_kernel_m1_is_i():
    assert np.abs(antiperiodic_dft(1) - np.array([[1j]])).max() < 1e-15


def test_kernel_m2_matches_closed_form():
    expected = np.array([[0.5 + 0.5j, -0.5 + 0.5j], [-0.5 + 0.5j, 0.5 + 0.5j]])
    assert np.abs(antiperiodic_dft(2) - expected).max() < 1e-15


def test_kernel_m4_corner_entry():
    assert abs(antiperiodic_dft(4)[0, 0] - 0.5 * np.exp(1j * np.pi / 8)) < 1e-15


@pytest.mark.parametrize("M", [1, 2, 4, 8, 16, 32])
def test_kernel_matches_dense_oracle(M):
    assert np.abs(antiperiodic_dft(M) - dense_kernel(M)).max() < 1e-14


def test_kernel_phases_are_exact_residues():
    # only exact phase residues reach this bound: phases from the float
    # product (x+1/2)(a+1/2)/M give a defect of 7.6e-14 at this size
    assert unitarity_defect(antiperiodic_dft(1 << 10)) <= 1e-15


@pytest.mark.parametrize("M", [0, 3, 6, -4])
def test_kernel_rejects_non_powers_of_two(M):
    with pytest.raises(ValueError):
        antiperiodic_dft(M)


def test_partial_transform_boundaries():
    assert np.abs(partial_transform(2, 2) - 1j * np.eye(4)).max() < 1e-15
    assert np.abs(partial_transform(1, 0) - antiperiodic_dft(2)).max() < 1e-15


def test_partial_transform_block_structure():
    # one kernel copy per leading-bit block, exactly
    k2 = antiperiodic_dft(2)
    g = partial_transform(2, 1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = k2
    expected[2:, 2:] = k2
    assert np.abs(g - expected).max() == 0.0
    for N in range(1, 7):
        for n in range(N + 1):
            kron = np.kron(np.eye(2**n), dense_kernel(2 ** (N - n)))
            assert np.abs(partial_transform(N, n) - kron).max() < 1e-14


def test_partial_transform_unitary():
    for N in range(1, 9):
        for n in range(N + 1):
            assert unitarity_defect(partial_transform(N, n)) < 1e-12


def test_partial_transform_range():
    with pytest.raises(ValueError):
        partial_transform(2, 3)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_partial_transform_is_fresh_and_writable(n):
    g = partial_transform(3, n)
    assert g.flags.writeable
    assert not np.shares_memory(g, antiperiodic_dft(1 << (3 - n)))


# --- fast apply ---------------------------------------------------------------


def test_apply_full_dot_is_global_i():
    for j in range(8):
        state = basis_state(3, j)
        out = apply_partial_transform(state, 3)
        assert np.abs(out.amps - 1j * state.amps).max() < 1e-15


def test_apply_roundtrip_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = random_state(8, rng)
        n = rng.integers(0, 9)
        back = apply_partial_transform(apply_partial_transform(state, n), n, "inverse")
        assert np.abs(back.amps - state.amps).max() < 1e-10


@pytest.mark.parametrize("N", range(1, 11))
def test_apply_matches_dense_all_n(N):
    rng = np.random.default_rng(11 + N)
    states = [random_state(N, rng) for _ in range(100)]
    stack = np.stack([state.amps for state in states], axis=1)
    for n in range(N + 1):
        g = partial_transform(N, n)
        fwd, inv = g @ stack, g.conj().T @ stack
        for j, state in enumerate(states):
            assert np.abs(apply_partial_transform(state, n).amps - fwd[:, j]).max() < 1e-10
            got = apply_partial_transform(state, n, "inverse").amps
            assert np.abs(got - inv[:, j]).max() < 1e-10


def test_apply_validates_arguments():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        apply_partial_transform(state, 3)
    with pytest.raises(ValueError):
        apply_partial_transform(state, 1, "sideways")


@pytest.mark.parametrize("m", range(21))
def test_factored_ladder_matches_direct_exponentials(m):
    # the transforms' ladders (turn +-1, offset 0 or 1/2) and C_n's twists
    # (turn +-1/2, offset 1/2, scale 1/sqrt2), applied to two rows of ones
    M = 1 << m
    for turn, offset, scale in [
        (1, 0.0, 1.0), (-1, 0.0, 1.0), (1, 0.5, 1.0), (-1, 0.5, 1.0),
        (0.5, 0.5, np.sqrt(0.5)), (-0.5, 0.5, np.sqrt(0.5)),
    ]:
        direct = scale * np.exp(turn * 1j * np.pi * (np.arange(M) + offset) / M)
        for size in (m, np.int64(m)):
            coarse, fine = ladder = _ladder(size, turn, offset, scale)
            # one factor (one pass) up to 2^12 phases, two past it; the pairs
            # are reused, so they are read-only
            assert fine.size == min(M, 1 << 12)
            assert (coarse is None) == (m <= 12)
            assert not any(f.flags.writeable for f in ladder if f is not None)
            out = np.empty((2, M), dtype=np.complex128)
            _apply_ladder(np.ones((2, M), dtype=np.complex128), ladder, out)
            assert np.abs(out - direct).max() < 1e-15


def test_apply_accepts_numpy_integer_index():
    state = random_state(6, np.random.default_rng(3))
    for n in range(7):
        for direction in ("forward", "inverse"):
            want = apply_partial_transform(state, n, direction).amps
            got = apply_partial_transform(state, np.int64(n), direction).amps
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_fast_applies_return_fresh_frozen_states(n):
    state = random_state(8, np.random.default_rng(n))
    before = state.amps.copy()
    outs = [
        apply_partial_transform(state, n),
        apply_partial_transform(state, n, "inverse"),
        apply_baker_fast(state, n),
    ]
    for out in outs:
        assert not out.amps.flags.writeable
        assert not np.shares_memory(out.amps, state.amps)
    assert np.array_equal(state.amps, before)


def _counting_pool(monkeypatch):
    """Record the worker count of every pool the transforms ask for."""
    asked = []
    pool = qfourier._pool

    def counted(workers):
        asked.append(workers)
        return pool(workers)

    monkeypatch.setattr(qfourier, "_pool", counted)
    return asked


@pytest.mark.parametrize("n", [1, 9, 17])
def test_apply_does_not_depend_on_cpu_count(monkeypatch, n):
    N = 18
    assert 1 << N >= qfourier.THREADED_MIN_AMPS  # the rows are split
    state = random_state(N, np.random.default_rng([73, n]))
    asked = _counting_pool(monkeypatch)
    # 4 workers may outnumber the CPUs; a state never gets more blocks than rows
    for direction in ("forward", "inverse"):
        images = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(qfourier, "_usable_cpus", lambda: cpus)
            images.append(apply_partial_transform(state, n, direction).amps)
        assert np.array_equal(images[0], images[1])
        assert np.array_equal(images[0], images[2])
    assert asked == [2, min(4, 1 << n)] * 2


def test_small_states_stay_on_the_calling_thread(monkeypatch):
    N = 16
    assert 1 << N < qfourier.THREADED_MIN_AMPS
    monkeypatch.setattr(qfourier, "_usable_cpus", lambda: 2)
    asked = _counting_pool(monkeypatch)
    state = random_state(N, np.random.default_rng(74))
    for n in (0, 1, 8, 15, 16):
        apply_partial_transform(state, n)
        apply_partial_transform(state, n, "inverse")
        if n:
            apply_baker_fast(state, n)
    assert asked == []


def _exact_norm(amps):
    """Square root of the squares' exact sum (math.fsum); only the squaring
    and the root round."""
    flat = np.asarray(amps, dtype=np.complex128).view(np.float64)
    return math.sqrt(math.fsum(flat * flat))


@pytest.mark.parametrize("N", [1, 10, 20])
def test_norm_agrees_with_exact_sum_and_linalg(N):
    state = random_state(N, np.random.default_rng([75, N]))
    assert abs(state.norm() - _exact_norm(state.amps)) <= 1e-15
    # np.linalg.norm sums in the order of its BLAS build and thread count: at
    # N=20 it missed the exact value by up to 3.8e-15 on two threads and by
    # 5.6e-15 on one, so the two norms are held to 1e-14 of each other
    assert abs(state.norm() - np.linalg.norm(state.amps)) <= 1e-14
    unnormalized = StateVector._adopt(N, 3 * state.amps)
    assert abs(unnormalized.norm() - _exact_norm(unnormalized.amps)) <= 4e-15


def test_norm_of_non_finite_amplitudes():
    nan = StateVector._adopt(2, np.array([np.nan, 1, 0, 0], dtype=np.complex128))
    assert np.isnan(nan.norm())
    inf = StateVector._adopt(2, np.array([np.inf, 1, 0, 0], dtype=np.complex128))
    assert inf.norm() == np.inf


def test_random_state_is_the_normalized_seeded_draw():
    # seed 0 is one where other norm formulas differ in the last bit
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(1 << 10) + 1j * rng.standard_normal(1 << 10)
    want = amps / np.linalg.norm(amps)
    assert np.array_equal(random_state(10, np.random.default_rng(0)).amps, want)


def test_basis_state_allocates_one_state():
    tracemalloc.start()
    try:
        state = basis_state(16, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * state.amps.nbytes  # the copying constructor needs 2x


@pytest.mark.parametrize("n", [1, 9])
def test_transform_and_step_allocate_one_state_each_stage(n):
    # a transform allocates only its output (the FFT runs in place, the
    # ladders are factor pairs); a step holds at most two states at once
    state = random_state(18, np.random.default_rng([77, n]))
    calls = [
        (lambda: apply_partial_transform(state, n), 1.25),
        (lambda: apply_partial_transform(state, n, "inverse"), 1.25),
        (lambda: apply_baker_fast(state, n), 2.25),
    ]
    for call, bound in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * state.amps.nbytes


def test_adopted_state_keeps_the_constructor_checks():
    amps = np.zeros(4, dtype=np.complex128)
    state = StateVector._adopt(np.int64(2), amps)
    assert type(state.N) is int
    assert np.shares_memory(state.amps, amps)
    assert not state.amps.flags.writeable
    with pytest.raises(ValueError):
        StateVector._adopt(3, amps)
    with pytest.raises(ValueError):
        StateVector._adopt(True, np.zeros(2, dtype=np.complex128))


# --- dot states ---------------------------------------------------------------


def test_dot_state_transform_examples():
    out = dot_state_transform(DotLabel(N=1, n=1, xbits=(0,), abits=()))
    assert np.abs(out.amps - np.array([1j, 0.0])).max() < 1e-15

    out = dot_state_transform(DotLabel(N=1, n=0, xbits=(), abits=(0,)))
    expected = np.exp(1j * np.pi / 4) * np.array([1.0, 1j]) / np.sqrt(2)
    assert np.abs(out.amps - expected).max() < 1e-15

    out = dot_state_transform(DotLabel(N=3, n=2, xbits=(1, 0), abits=(0,)))
    mods = np.abs(out.amps)
    assert set(np.flatnonzero(mods > 1e-15)) == {4, 5}
    assert np.abs(mods[[4, 5]] - 1 / np.sqrt(2)).max() < 1e-15


def test_dot_state_product_examples():
    out = dot_state_product(DotLabel(N=1, n=1, xbits=(1,), abits=()))
    assert np.abs(out.amps - np.array([0.0, 1j])).max() < 1e-15

    out = dot_state_product(DotLabel(N=1, n=0, xbits=(), abits=(0,)))
    expected = np.exp(1j * np.pi / 4) * np.array([1.0, 1j]) / np.sqrt(2)
    assert np.abs(out.amps - expected).max() < 1e-15


def test_dot_basis_orthonormal():
    for N in range(1, 6):
        for n in range(N + 1):
            columns = np.column_stack(
                [dot_state_transform(label).amps for label in iter_labels(N, n)]
            )
            assert unitarity_defect(columns) < 1e-12


def test_dot_state_strict_position_zeros():
    # off-window amplitudes vanish identically, in-window moduli are flat
    for N in range(1, 7):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                amps = dot_state_transform(label).amps
                window = 2 ** (N - n)
                lo = label.basis_index >> (N - n) << (N - n)
                outside = np.abs(np.delete(amps, range(lo, lo + window)))
                assert outside.size == 0 or outside.max() < 1e-15
                inside = np.abs(amps[lo : lo + window])
                assert np.abs(inside - 2 ** (-(N - n) / 2)).max() < 1e-12


# --- displacement operators -----------------------------------------------------


def test_displacement_u_values():
    assert np.abs(displacement_u(1) - np.diag([1j, -1j])).max() < 1e-15
    expected = np.diag(np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4))
    assert np.abs(displacement_u(2) - expected).max() < 1e-15


def test_displacement_v_is_antiperiodic_shift():
    # V is built as the signed cyclic permutation; its spectral form
    # F diag(e^{-2 pi i p}) F^dag is the oracle
    for N in (1, 2, 3, 4, 8):
        D = 2**N
        expected = np.zeros((D, D))
        expected[1:, :-1] = np.eye(D - 1)
        expected[0, -1] = -1.0
        v = displacement_v(N)
        assert np.array_equal(v, expected)
        fourier = antiperiodic_dft(D)
        p = (np.arange(D) + 0.5) / D
        spectral = fourier @ (np.exp(-2j * np.pi * p)[:, None] * fourier.conj().T)
        assert np.abs(spectral - v).max() < 1e-12
