import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from qbaker import analysis
from qbaker.analysis import (
    check_strict_localization,
    correspondence_trajectory,
    eigenphases,
    max_contiguous_cut_entropy,
    position_support,
    schmidt_entropy,
)
from qbaker.bakermap import apply_baker_fast, baker_composed
from qbaker.lattice import DotLabel, iter_labels
from qbaker.qfourier import (
    StateVector,
    basis_state,
    dot_state_transform,
    random_product_state,
    random_state,
)


def entropy_oracle(state, cut):
    """Independent route: squared singular values of the amplitude matrix."""
    m = state.amps.reshape(2**cut, -1)
    probs = np.linalg.svd(m, compute_uv=False) ** 2
    probs = probs[probs > 1e-14]
    return float(-np.sum(probs * np.log2(probs)))


# --- support and localization -------------------------------------------------


def test_position_support_examples():
    state = dot_state_transform(DotLabel(N=3, n=2, xbits=(1, 0), abits=(0,)))
    assert list(position_support(state, 1e-12)) == [4, 5]
    assert list(position_support(basis_state(3, 0), 1e-12)) == [0]
    full = dot_state_transform(DotLabel(N=4, n=0, xbits=(), abits=(1, 0, 1, 1)))
    assert len(position_support(full, 1e-12)) == 16


def test_position_support_rejects_negative_tol():
    with pytest.raises(ValueError):
        position_support(basis_state(1, 0), -1.0)
    with pytest.raises(ValueError):
        position_support(basis_state(1, 0), float("nan"))


def test_strict_localization_report():
    report = check_strict_localization(DotLabel(N=3, n=2, xbits=(1, 0), abits=(0,)))
    assert report.support == (4, 5)
    assert report.uniform_modulus_dev < 1e-12

    report = check_strict_localization(DotLabel(N=2, n=2, xbits=(0, 1), abits=()))
    assert report.support == (1,)
    assert report.uniform_modulus_dev < 1e-15


def test_strict_localization_keeps_support_and_flatness_apart(monkeypatch):
    # label 1.0 of N=2 lives on the window {0, 1}: a stray amplitude at 3
    # shows in the support and off_window_max, a hole at 1 in the flatness
    label = DotLabel.parse("1.0")

    def built_with(index, value):
        amps = dot_state_transform(label).amps.copy()
        amps[index] = value
        monkeypatch.setattr(analysis, "dot_state_transform", lambda _: StateVector._adopt(2, amps))
        return check_strict_localization(label)

    stray = built_with(3, 1e-14)
    assert stray.support == (0, 1, 3)
    assert stray.uniform_modulus_dev < 1e-15
    assert stray.off_window_max == 1e-14
    hole = built_with(1, 0.0)
    assert hole.support == (0,)
    assert hole.off_window_max == 0.0
    assert abs(hole.uniform_modulus_dev - np.sqrt(0.5)) < 1e-15


def test_window_mass_frozen_snapshot():
    # dense-oracle value (2 + sqrt 2)/4 for the label 0.0, recorded once
    report = check_strict_localization(DotLabel(N=2, n=1, xbits=(0,), abits=(0,)))
    assert abs(report.window_mass - 0.8535533905932737) < 1e-12


# --- entanglement entropy -----------------------------------------------------


def test_schmidt_entropy_examples():
    assert schmidt_entropy(basis_state(2, 0), 1) == 0.0
    bell = StateVector(N=2, amps=np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert abs(schmidt_entropy(bell, 1) - 1.0) < 1e-12


def test_schmidt_entropy_cut_range():
    with pytest.raises(ValueError):
        schmidt_entropy(basis_state(2, 0), 0)
    with pytest.raises(ValueError):
        schmidt_entropy(basis_state(2, 0), 2)


def test_schmidt_entropy_against_svd_oracle():
    rng = np.random.default_rng(61)
    b1 = baker_composed(3, 1)
    for _ in range(20):
        state = random_product_state(3, rng)
        image = StateVector(N=3, amps=b1 @ state.amps)
        for cut in (1, 2):
            assert abs(schmidt_entropy(image, cut) - entropy_oracle(image, cut)) < 1e-10


def test_schmidt_entropy_every_cut_at_n16():
    rng = np.random.default_rng(63)
    entangled = random_state(16, rng)
    image = apply_baker_fast(random_product_state(16, rng), 8)
    product = random_product_state(16, rng)
    for cut in range(1, 16):
        for state in (entangled, image):
            assert abs(schmidt_entropy(state, cut) - entropy_oracle(state, cut)) < 1e-12
        assert schmidt_entropy(product, cut) < 1e-10
        assert schmidt_entropy(basis_state(16, 12345), cut) == 0.0


@pytest.mark.parametrize("N", [2, 3, 5, 17])
def test_schmidt_entropy_every_cut_small_and_odd_n(N):
    # N=2 has no right-half matrix; odd N splits the string unequally
    rng = np.random.default_rng(64 + N)
    entangled = random_state(N, rng)
    image = apply_baker_fast(random_product_state(N, rng), N // 2)
    product = random_product_state(N, rng)
    basis = basis_state(N, (1 << N) - 3)
    for cut in range(1, N):
        for state in (entangled, image):
            assert abs(schmidt_entropy(state, cut) - entropy_oracle(state, cut)) < 1e-12
        assert schmidt_entropy(product, cut) < 1e-10
        assert schmidt_entropy(basis, cut) == 0.0


def test_schmidt_entropy_keeps_no_state_alive():
    state = random_state(10, np.random.default_rng(65))
    ref = weakref.ref(state)
    schmidt_entropy(state, 3)
    del state
    gc.collect()
    assert ref() is None


def test_schmidt_entropy_does_not_depend_on_cut_order():
    N = 11
    state = apply_baker_fast(random_product_state(N, np.random.default_rng(66)), 4)
    backward = [schmidt_entropy(state, cut) for cut in range(N - 1, 0, -1)]
    fresh = StateVector(N, state.amps)
    forward = [schmidt_entropy(fresh, cut) for cut in range(1, N)]
    assert backward[::-1] == forward


def test_schmidt_entropy_invariant_under_local_rotations():
    rng = np.random.default_rng(67)
    state = random_product_state(4, rng)
    bell_like = StateVector(
        N=4, amps=(basis_state(4, 0).amps + basis_state(4, 15).amps) / np.sqrt(2)
    )
    for test_state in (state, bell_like):
        base = [schmidt_entropy(test_state, cut) for cut in (1, 2, 3)]
        local = np.ones(1, dtype=complex)
        for _ in range(4):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(z)
            local = np.kron(local, q)
        rotated = StateVector(N=4, amps=local @ test_state.amps)
        got = [schmidt_entropy(rotated, cut) for cut in (1, 2, 3)]
        assert np.abs(np.array(got) - np.array(base)).max() < 1e-10


def test_max_cut_entropy_examples():
    assert max_contiguous_cut_entropy(basis_state(4, 9)) == 0.0
    rng = np.random.default_rng(71)
    image = apply_baker_fast(random_product_state(6, rng), 6)
    assert max_contiguous_cut_entropy(image) < 1e-10
    with pytest.raises(ValueError):
        max_contiguous_cut_entropy(basis_state(1, 0))


def test_entropies_never_read_below_zero():
    # -sum(p log2 p) rounds to -0.0 on a basis state and to about -1e-16 on
    # some product states; both must read +0.0
    for cut in (1, 2):
        assert math.copysign(1.0, schmidt_entropy(basis_state(3, 5), cut)) == 1.0
    for N in (2, 5, 10):
        for seed in range(200):
            state = random_product_state(N, np.random.default_rng(seed))
            assert math.copysign(1.0, max_contiguous_cut_entropy(state)) == 1.0, (N, seed)


def _count_gram_products(monkeypatch):
    """Count the half-string matrices built, per side."""
    built = {"left": 0, "right": 0}
    for side in built:
        name = f"_{side}_density"
        build = getattr(analysis, name)

        def counted(state, side=side, build=build):
            built[side] += 1
            return build(state)

        monkeypatch.setattr(analysis, name, counted)
    return built


@pytest.mark.parametrize("N", [2, 3, 16])
def test_max_cut_entropy_builds_each_half_once(monkeypatch, N):
    state = apply_baker_fast(random_product_state(N, np.random.default_rng(76)), N // 2)
    per_cut = max(schmidt_entropy(state, cut) for cut in range(1, N))
    built = _count_gram_products(monkeypatch)
    assert max_contiguous_cut_entropy(state) == per_cut
    assert built == {"left": 1, "right": int(N > 2)}


def test_schmidt_entropy_builds_only_the_side_of_its_cut(monkeypatch):
    state = random_state(7, np.random.default_rng(77))
    built = _count_gram_products(monkeypatch)
    schmidt_entropy(state, 3)
    assert built == {"left": 1, "right": 0}
    schmidt_entropy(state, 4)
    assert built == {"left": 1, "right": 1}


def test_max_cut_entropy_keeps_no_matrices():
    # the two half-string matrices of an N=16 state take 1.25 MiB; none of it
    # may outlive the call, or iterate would hold it through the next step
    state = random_state(16, np.random.default_rng(78))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        max_contiguous_cut_entropy(state)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10


def test_b1_entangles_some_input():
    rng = np.random.default_rng(73)
    b1 = baker_composed(3, 1)
    best = 0.0
    inputs = [basis_state(3, j).amps for j in range(8)]
    inputs += [random_product_state(3, rng).amps for _ in range(20)]
    for amps in inputs:
        image = StateVector(N=3, amps=b1 @ amps)
        best = max(best, max_contiguous_cut_entropy(image))
    assert best >= 0.1


# --- spectra -------------------------------------------------------------------


def test_eigenphases_of_scalar_unitary():
    report = eigenphases(1j * np.eye(8))
    assert np.abs(report.phases - np.pi / 2).max() < 1e-12
    assert report.unit_modulus_dev < 1e-12


def test_eigenphases_of_single_qubit_map():
    report = eigenphases(baker_composed(1, 1))
    assert np.abs(report.phases - [0.0, 1.5 * np.pi]).max() < 1e-10


@pytest.mark.parametrize("sign", [1, -1])
def test_eigenphase_just_below_zero_sorts_first(sign):
    # an eigenvalue 1 rounded to either side of the real axis reads phase ~0
    report = eigenphases(np.diag(np.exp(1j * np.array([sign * 1e-15, 1.0, 2.0]))))
    assert report.phases[0] == 0.0
    assert np.abs(report.phases - [0.0, 1.0, 2.0]).max() < 1e-14
    assert abs(report.spacings[-1] - 3 * (2 * np.pi - 2.0) / (2 * np.pi)) < 1e-14


def test_eigenphases_of_degenerate_eigenvalue_one_read_exactly_zero():
    # B_8 at N = 8 has eigenvalue 1 nine times; eigvals rounds some of the
    # nine above the real axis and some below, and all must read 0.0
    report = eigenphases(baker_composed(8, 8))
    assert np.all(report.phases[:9] == 0.0)
    assert np.all(report.spacings[:8] == 0.0)
    assert report.phases[9] > 0.1


@pytest.mark.parametrize("N, n", [(6, n) for n in range(1, 7)] + [(8, 8)])
def test_eigenphases_degenerate_runs_read_spacing_zero(N, n):
    # a degenerate eigenvalue reads spacing exactly 0, never a rounding-size
    # one, and no genuine gap comes near the merging tolerance
    gaps = np.diff(eigenphases(baker_composed(N, n)).phases)
    assert np.all((gaps == 0.0) | (gaps > 1e-6))


def test_eigenphases_normalized_spacings():
    for n in (1, 3, 6):
        report = eigenphases(baker_composed(6, n))
        assert report.unit_modulus_dev < 1e-10
        assert len(report.spacings) == len(report.phases)
        assert abs(report.spacings.mean() - 1.0) < 1e-9
        assert np.all(np.diff(report.phases) >= 0)


def test_eigenphases_rejects_non_unitary():
    with pytest.raises(ValueError):
        eigenphases(np.ones((3, 3)))


def test_eigenvalue_multiset_agrees_between_routes():
    # both dense construction routes must carry the same spectrum
    from qbaker.bakermap import baker_from_basis_map

    for N in range(1, 6):
        for n in range(1, N + 1):
            a = np.linalg.eigvals(baker_from_basis_map(N, n))
            b = np.linalg.eigvals(baker_composed(N, n))
            hausdorff = max(
                np.abs(a[:, None] - b[None, :]).min(axis=1).max(),
                np.abs(a[:, None] - b[None, :]).min(axis=0).max(),
            )
            assert hausdorff < 1e-9


# --- correspondence -------------------------------------------------------------


def test_correspondence_example():
    steps = correspondence_trajectory(DotLabel.parse(".101"), 3)
    assert [s.label.text() for s in steps] == ["1.01", "10.1", "101."]
    assert all(abs(s.overlap - 1.0) < 1e-10 for s in steps)


def test_correspondence_zero_steps():
    assert correspondence_trajectory(DotLabel.parse(".101"), 0) == []


def test_correspondence_exhausts_dot():
    with pytest.raises(ValueError):
        correspondence_trajectory(DotLabel.parse("1.0"), 2)


def test_correspondence_all_labels():
    for N in range(1, 6):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                for step in correspondence_trajectory(label, n):
                    assert step.overlap.real >= 1.0 - 1e-10
