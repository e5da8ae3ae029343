import numpy as np
import pytest

from qbaker import qfourier
from qbaker.analysis import max_contiguous_cut_entropy
from qbaker.bakermap import (
    Gate,
    GateList,
    _cyclic_rows,
    _slot_one_mix,
    apply_baker_fast,
    apply_circuit,
    baker_composed,
    baker_from_basis_map,
    circuit_to_matrix,
    emit_circuit,
    iterate,
    last_qubit_unitary,
)
from qbaker.classical import label_shift
from qbaker.lattice import DotLabel, iter_labels
from qbaker.qfourier import (
    StateVector,
    apply_partial_transform,
    basis_state,
    dot_state_product,
    dot_state_transform,
    partial_transform,
    random_product_state,
    random_state,
)


U_EXPECTED = np.array(
    [[np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)],
     [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]]
) / np.sqrt(2)


# --- cyclic shift ------------------------------------------------------------


def test_cyclic_shift_examples():
    assert np.abs(_cyclic_rows(np.eye(8), 3, 1) - np.eye(8)).max() == 0.0
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.abs(_cyclic_rows(np.eye(4), 2, 2) - swap).max() == 0.0
    # |110> -> |101>
    out = _cyclic_rows(np.eye(8), 3, 3) @ basis_state(3, 0b110).amps
    assert np.abs(out - basis_state(3, 0b101).amps).max() == 0.0


# --- dense constructions -----------------------------------------------------


def test_last_qubit_unitary_columns():
    u = last_qubit_unitary()
    assert np.abs(u - U_EXPECTED).max() < 1e-15
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-15


def test_basis_map_n1_is_u():
    assert np.abs(baker_from_basis_map(1, 1) - U_EXPECTED).max() < 1e-15
    assert np.abs(baker_composed(1, 1) - U_EXPECTED).max() < 1e-15


def test_basis_map_never_calls_the_fast_path(monkeypatch):
    # the dense oracle reads its dot states off the dense transforms
    def refuse(*args, **kwargs):
        raise AssertionError("the basis-action route applied a fast transform")

    monkeypatch.setattr(qfourier, "apply_partial_transform", refuse)
    for N in range(1, 7):
        for n in range(1, N + 1):
            assert baker_from_basis_map(N, n).shape == (1 << N, 1 << N)


@pytest.mark.parametrize("N", range(1, 7))
def test_basis_map_n1_is_exactly_g0_g1_dag(N):
    # Saraceno's B_1 = G_0 G_1^dag: at n = 1 the label shift keeps every
    # basis index, so the route computes this very product
    want = partial_transform(N, 0) @ partial_transform(N, 1).conj().T
    assert np.array_equal(baker_from_basis_map(N, 1), want)


def test_phase_space_cell_stretches():
    # the image of a dot state is a dot state whose cell doubled in q and
    # halved in p
    from qbaker.lattice import label_cell

    for N in range(1, 7):
        for n in range(1, N + 1):
            for label in iter_labels(N, n):
                before = label_cell(label)
                after = label_cell(label_shift(label))
                assert after.qwidth == 2 * before.qwidth
                assert after.pwidth == before.pwidth / 2


# --- fast applies ------------------------------------------------------------


def test_apply_fast_last_map_single_qubit():
    out = apply_baker_fast(basis_state(1, 0), 1)
    assert np.abs(out.amps - U_EXPECTED[:, 0]).max() < 1e-15


def test_apply_fast_last_map_matches_dense():
    rng = np.random.default_rng(23)
    for N in range(1, 8):
        dense = baker_from_basis_map(N, N)
        for _ in range(5):
            state = random_state(N, rng)
            out = apply_baker_fast(state, N)
            assert np.abs(out.amps - dense @ state.amps).max() < 1e-10


def test_apply_fast_last_map_matches_three_stages_at_n16():
    # the n = N closed form against the general route written out, at a size
    # the dense oracle does not reach
    N, D = 16, 1 << 16
    state = random_state(N, np.random.default_rng(59))
    mid = apply_partial_transform(state, N, "inverse").amps
    rotated = StateVector(N=N, amps=mid.reshape(2, D // 2).T.ravel())
    want = apply_partial_transform(rotated, N - 1, "forward").amps
    assert np.abs(apply_baker_fast(state, N).amps - want).max() < 1e-12


def u_on_every_slot(state):
    # u^{(x) N} as N single-qubit gates, with no partial transform
    u = last_qubit_unitary()
    gates = tuple(Gate.single_qubit(slot, u) for slot in range(1, state.N + 1))
    return apply_circuit(state.amps, GateList(N=state.N, gates=gates))


@pytest.mark.parametrize("N", [2, 8, 20])
def test_last_map_to_the_n_is_u_on_every_qubit(N):
    # B_N^N = u^{(x) N}: each qubit passes slot 1, where u acts, once in N
    # steps and returns to its own slot; an exact reference past the dense cap
    state = random_state(N, np.random.default_rng([73, N]))
    got = iterate(state, N, N).amps
    assert np.abs(got - u_on_every_slot(state)).max() <= 1e-15


@pytest.mark.parametrize("N", [1, 5, 16])
def test_slot_one_mix_at_n_equal_N_is_u_on_slot_one(N):
    # C_N, which apply_baker_fast evaluates as the exact u
    state = random_state(N, np.random.default_rng([74, N]))
    want = apply_circuit(state.amps, GateList(N, (Gate.single_qubit(1, last_qubit_unitary()),)))
    assert np.abs(_slot_one_mix(state, N).amps - want).max() <= 1e-15


def slot_one_mix_matrix(N, n):
    """Dense C_n = Phi_n (V (x) I), written out from its definition: V on
    slot 1, then the phase e^{i pi (p - 1/2)(a + 1/2)/M} with p the slot-1 bit
    and a the integer on slots n+1..N, M = 2^(N-n)."""
    D, M = 1 << N, 1 << (N - n)
    v = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
    p = np.arange(D) >> (N - 1)
    a = np.arange(D) % M
    return np.exp(1j * np.pi * (p - 0.5) * (a + 0.5) / M)[:, None] * np.kron(v, np.eye(D // 2))


@pytest.mark.parametrize("N", range(2, 9))
def test_step_factorization_matches_composed_map(N):
    # B_n = Cyc_N G_n C_n G_n^dag, the form apply_baker_fast runs for n < N
    rng = np.random.default_rng([71, N])
    for n in range(1, N):
        g, c = partial_transform(N, n), slot_one_mix_matrix(N, n)
        assert np.abs(c.conj().T @ c - np.eye(1 << N)).max() < 1e-14
        got = _cyclic_rows(np.eye(1 << N), N, N) @ g @ c @ g.conj().T
        assert np.abs(got - baker_composed(N, n)).max() < 1e-13
        state = random_state(N, rng)
        assert np.abs(_slot_one_mix(state, n).amps - c @ state.amps).max() < 1e-15


@pytest.mark.parametrize("n", [1, 9, 17])
def test_apply_fast_does_not_depend_on_cpu_count(monkeypatch, n):
    # N=18 is past the size at which the transforms split their rows
    state = random_state(18, np.random.default_rng([72, n]))
    images = []
    for cpus in (1, 2):
        monkeypatch.setattr(qfourier, "_usable_cpus", lambda: cpus)
        images.append(apply_baker_fast(state, n).amps)
    assert np.array_equal(images[0], images[1])


@pytest.mark.parametrize("n", [1, 2, 10, 13, 19, 20])
def test_apply_fast_commutes_with_parity_at_n20(n):
    # R = X^{(x) N} reverses the index and commutes with every partial
    # transform (R K = K R = -conj(K)) and with C_n, so with every B_n: an
    # exact check past the dense cap.  n = 1, 2 run the two-factor phase
    # ladders of rows longer than 2^12
    state = random_state(20, np.random.default_rng([76, n]))
    flipped = StateVector._adopt(20, state.amps[::-1])
    got = apply_baker_fast(flipped, n).amps
    assert np.abs(got - apply_baker_fast(state, n).amps[::-1]).max() <= 1e-16


def test_apply_fast_moves_dot_states():
    for N in range(1, 7):
        for n in range(1, N + 1):
            for label in iter_labels(N, n):
                out = apply_baker_fast(dot_state_transform(label), n)
                target = dot_state_transform(label_shift(label)).amps
                assert abs(np.vdot(target, out.amps) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [1, 8, 15, 16])
def test_apply_fast_moves_dot_states_at_n16(n):
    # dot_state_product builds states with no partial transform, so it checks
    # the FFT route above the sizes the dense matvecs reach
    bits = tuple(int(b) for b in np.random.default_rng([16, n]).integers(0, 2, 16))
    label = DotLabel(N=16, n=n, xbits=bits[:n], abits=bits[n:])
    source = dot_state_product(label)
    assert np.abs(dot_state_transform(label).amps - source.amps).max() < 1e-12
    target = dot_state_product(label_shift(label)).amps
    assert abs(np.vdot(target, apply_baker_fast(source, n).amps) - 1.0) < 1e-10


def test_apply_fast_validates_n():
    with pytest.raises(ValueError):
        apply_baker_fast(basis_state(2, 0), 0)
    with pytest.raises(ValueError):
        apply_baker_fast(basis_state(2, 0), 3)


def test_iterate_zero_steps_and_four_step_norm():
    state = basis_state(3, 5)
    assert iterate(state, 1, 0) is state
    assert abs(iterate(state, 1, 4).norm() - 1.0) < 4e-10


def test_iterate_norm_drift_100_steps():
    rng = np.random.default_rng(47)
    state = random_state(10, rng)
    out = iterate(state, 1, 100)
    assert abs(out.norm() - 1.0) < 1e-8


def test_iterate_last_map_keeps_norm_over_10k_steps():
    # the n = N step rotates with the exact entries (1 -+ i)/2; their rounded
    # e^{-+i pi/4}/sqrt2 forms lose about 1e-16 of norm per step, 1e-12 here
    state = random_state(10, np.random.default_rng(61))
    out = iterate(state, 10, 10_000)
    assert abs(out.norm() - 1.0) <= 1e-14


def test_iterate_follows_label_until_dot_hits_zero():
    # a dot-basis input with n = 1 tracks the label shift for exactly one
    # step; iteration past that keeps applying the same fixed map
    N = 4
    label = DotLabel.parse("011.1")
    target = dot_state_transform(label_shift(label)).amps
    state = dot_state_transform(label)
    overlaps = []
    for _ in range(N):
        state = apply_baker_fast(state, 1)
        overlaps.append(np.vdot(target, state.amps))
    assert [k for k, z in enumerate(overlaps, 1) if abs(z - 1.0) < 1e-10] == [1]
    assert abs(overlaps[0] - 1.0) < 1e-10


def test_iterate_rejects_negative_steps():
    with pytest.raises(ValueError):
        iterate(basis_state(2, 0), 1, -1)


# --- gate records ------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate.single_qubit(1, np.array([[1.0, 1.0], [0.0, 1.0]]))  # not unitary
    with pytest.raises(ValueError):
        Gate.swap(2, 2)  # duplicate targets
    with pytest.raises(ValueError):
        Gate(kind="twist", targets=(1,))
    with pytest.raises(ValueError):
        Gate(kind="global_phase", targets=(), angle=0.5)  # the phase lives in a gate
    with pytest.raises(ValueError):
        GateList(N=1, gates=(Gate.swap(1, 2),))  # target beyond N
    for angle in ("x", "0.5", float("nan"), float("inf"), -float("inf"), True, 1j):
        with pytest.raises(ValueError, match="gate angle must be a finite number"):
            Gate(kind="controlled_phase", targets=(1, 2), angle=angle)
    with pytest.raises(ValueError, match="gate angle must be a finite number"):
        Gate.controlled_phase(1, 2, float("nan"))
    unused = [
        dict(kind="swap", targets=(1, 2), matrix=np.eye(2)),
        dict(kind="swap", targets=(1, 2), angle=0.5),
        dict(kind="single_qubit", targets=(1,), matrix=np.eye(2), angle=0.5),
        dict(kind="controlled_phase", targets=(1, 2), matrix=np.eye(2), angle=0.5),
    ]
    for fields in unused:
        with pytest.raises(ValueError, match="gate takes no"):
            Gate(**fields)
    assert type(Gate.controlled_phase(1, 2, np.float32(0.5)).angle) is float


def test_gate_list_qubit_count_is_a_plain_int():
    assert type(GateList(N=np.int64(2), gates=()).N) is int
    for bad in (True, 2.0):
        with pytest.raises(ValueError):
            GateList(N=bad, gates=())


def test_circuit_to_matrix_basics():
    assert np.abs(circuit_to_matrix(GateList(N=2, gates=())) - np.eye(4)).max() == 0.0
    swap = circuit_to_matrix(GateList(N=2, gates=(Gate.swap(1, 2),)))
    assert np.abs(swap - np.eye(4)[[0, 2, 1, 3]]).max() == 0.0
    with pytest.raises(ValueError):
        circuit_to_matrix(GateList(N=13, gates=()))


def test_gate_embeddings_against_kron():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    got = circuit_to_matrix(GateList(N=2, gates=(Gate.single_qubit(2, q),)))
    assert np.abs(got - np.kron(np.eye(2), q)).max() < 1e-14

    theta = 0.613
    got = circuit_to_matrix(GateList(N=2, gates=(Gate.controlled_phase(1, 2, theta),)))
    assert np.abs(got - np.diag([1, 1, 1, np.exp(1j * theta)])).max() < 1e-14


def test_apply_circuit_on_states_and_matrices():
    gl = emit_circuit(3, 1)
    state = random_state(3, np.random.default_rng(7))
    dense = circuit_to_matrix(gl)
    assert np.abs(apply_circuit(state.amps, gl) - dense @ state.amps).max() < 1e-14
    block = np.stack([state.amps, basis_state(3, 5).amps], axis=1)
    assert np.abs(apply_circuit(block, gl) - dense @ block).max() < 1e-14
    # a real input comes back complex, and the input is left as it was
    real = np.eye(8)[:, 0]
    out = apply_circuit(real, gl)
    assert out.dtype == np.complex128 and np.abs(out - dense[:, 0]).max() < 1e-14
    assert np.array_equal(real, np.eye(8)[:, 0])
    # a complex, C-ordered input is left as it was, even under a first gate
    # that the simulator applies in place
    cphase = GateList(N=3, gates=(Gate.controlled_phase(1, 2, 0.7),))
    before = block.copy()
    for gates in (gl, cphase):
        apply_circuit(block, gates)
        assert np.array_equal(block, before)
    # an F-ordered block reshapes into a copy; the phase must land on that copy
    fortran = np.asfortranarray(block)
    assert np.array_equal(apply_circuit(fortran, cphase), apply_circuit(block, cphase))
    for bad in (np.zeros(4), np.zeros((16, 2)), np.complex128(1.0)):
        with pytest.raises(ValueError):
            apply_circuit(bad, gl)


# --- lowering ----------------------------------------------------------------


def test_emit_circuit_single_qubit_case():
    gl = emit_circuit(1, 1)
    kinds = [g.kind for g in gl.gates]
    assert kinds == ["single_qubit"]
    assert np.abs(gl.gates[0].matrix - U_EXPECTED).max() < 1e-14


def test_emit_circuit_last_map_shape():
    # n = N lowers to adjacent swaps plus one single-qubit gate, nothing else
    for N in (2, 3, 5):
        gl = emit_circuit(N, N)
        kinds = [g.kind for g in gl.gates]
        assert kinds == ["swap"] * (N - 1) + ["single_qubit"]
        assert gl.gates[-1].targets == (N,)
        assert np.abs(gl.gates[-1].matrix - U_EXPECTED).max() < 1e-14


@pytest.mark.parametrize("N,draws", [(6, 20), (16, 2)])
def test_images_of_products_stay_products_for_last_map(N, draws):
    rng = np.random.default_rng(53)
    for _ in range(draws):
        state = random_product_state(N, rng)
        image = apply_baker_fast(state, N)
        assert max_contiguous_cut_entropy(image) < 1e-10
