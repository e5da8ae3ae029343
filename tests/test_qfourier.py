import tracemalloc

import numpy as np
import pytest

from qbaker.bakermap import apply_baker_fast
from qbaker.lattice import DotLabel, iter_labels
from qbaker.qfourier import (
    StateVector,
    _phase_ladder,
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


def test_statevector_checks_norm_and_length():
    statevector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        statevector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        statevector(np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError):
        StateVector(N=2, amps=np.zeros(8))


def test_statevector_qubit_count_is_a_plain_int():
    assert type(StateVector(N=np.int64(1), amps=[1, 0]).N) is int
    for bad in (True, 1.0):
        with pytest.raises(ValueError):
            StateVector(N=bad, amps=[1, 0])


def test_statevector_rejects_non_finite():
    with pytest.raises(ValueError):
        statevector(np.array([np.nan, 0.0]))


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
    M = 1 << m
    for sign in (1, -1):
        direct = np.exp(sign * 1j * np.pi * np.arange(M) / M)
        for size in (m, np.int64(m)):
            assert np.abs(_phase_ladder(size, sign) - direct).max() < 1e-15


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
    v = displacement_v(1)
    assert np.abs(v - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-12
    for N in (2, 3, 4):
        v = displacement_v(N)
        D = 2**N
        expected = np.zeros((D, D))
        expected[1:, :-1] = np.eye(D - 1)
        expected[0, -1] = -1.0
        assert np.abs(v - expected).max() < 1e-12
