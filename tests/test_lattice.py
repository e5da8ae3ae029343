import re
from fractions import Fraction

import numpy as np
import pytest

from qbaker.analysis import correspondence_trajectory, schmidt_entropy
from qbaker.bakermap import Gate, apply_baker_fast, baker_composed, emit_circuit, iterate
from qbaker.classical import SymbolString
from qbaker.lattice import (
    DotLabel,
    bits_to_index,
    index_to_bits,
    iter_labels,
    label_cell,
    momentum_eigenvalue,
    position_eigenvalue,
)
from qbaker.qfourier import (
    antiperiodic_dft,
    apply_partial_transform,
    basis_state,
    displacement_u,
    partial_transform,
)
from qbaker.verify import best_time, run_all, time_fast_vs_dense

# builders that take a qubit count N as their first argument
N_BUILDERS = {
    "iter_labels": lambda N: list(iter_labels(N, 0)),
    "position_eigenvalue": lambda N: position_eigenvalue(N, 0),
    "partial_transform": lambda N: partial_transform(N, 0),
    "displacement_u": displacement_u,
    "basis_state": lambda N: basis_state(N, 0),
    "baker_composed": lambda N: baker_composed(N, 1),
    "emit_circuit": lambda N: emit_circuit(N, 1),
}

# entry points that take an integer argument (a map or transform index n, a
# basis index, a step count, a cut, a bit, ...), all on N = 2; each lambda
# puts its parameter in that argument's place
INDEX_ENTRY_POINTS = {
    "apply_baker_fast": lambda n: apply_baker_fast(basis_state(2, 0), n),
    "iterate": lambda n: iterate(basis_state(2, 0), n, 1),
    "apply_partial_transform": lambda n: apply_partial_transform(basis_state(2, 0), n),
    "partial_transform": lambda n: partial_transform(2, n),
    "baker_composed": lambda n: baker_composed(2, n),
    "iter_labels": lambda n: list(iter_labels(2, n)),
    "iter_labels_not_iterated": lambda n: iter_labels(2, n),
    "basis_state_index": lambda j: basis_state(2, j),
    "iterate_steps": lambda steps: iterate(basis_state(2, 0), 1, steps),
    "position_eigenvalue_index": lambda j: position_eigenvalue(2, j),
    "momentum_eigenvalue_index": lambda k: momentum_eigenvalue(2, k),
    "schmidt_entropy_cut": lambda cut: schmidt_entropy(basis_state(2, 0), cut),
    "gate_target": lambda t: Gate.swap(t, 2),
    "bits_to_index_bit": lambda b: bits_to_index([b, 0]),
    "index_to_bits_length": lambda length: index_to_bits(length, 0),
    "index_to_bits_index": lambda j: index_to_bits(2, j),
    "symbol_string_bit": lambda b: SymbolString(left=(1, 0), right=(b,)),
    "correspondence_steps": lambda steps: correspondence_trajectory(DotLabel.parse(".1"), steps),
    "best_time_reps": lambda reps: best_time(lambda: None, reps=reps),
    "time_fast_vs_dense_reps": lambda reps: time_fast_vs_dense(
        2, 1, np.random.default_rng(0), reps),
    "run_all_max_n": lambda max_n: run_all(max_n=max_n),
    "antiperiodic_dft_size": antiperiodic_dft,
}


@pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
def test_dimensions_rejects_bad_qubit_counts(bad):
    for build in N_BUILDERS.values():
        with pytest.raises(ValueError, match="^qubit count"):
            build(bad)


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("bad_n", [1.0, True, "1"])
def test_map_and_transform_indices_reject_non_integers(entry, bad_n):
    with pytest.raises(ValueError):
        INDEX_ENTRY_POINTS[entry](bad_n)


def test_iter_labels_checks_when_called():
    with pytest.raises(ValueError, match="^qubit count"):
        iter_labels(0, 0)
    with pytest.raises(ValueError, match=r"^dot position n=3 out of range \[0, 2\]$"):
        iter_labels(2, 3)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: iterate(basis_state(2, 0), 1, 1.5),
         "step count must be an integer >= 0, got 1.5"),
        (lambda: basis_state(2, True), "basis index must be an integer, got True"),
        (lambda: schmidt_entropy(basis_state(2, 0), 2), "cut=2 out of range [1, 1]"),
        (lambda: Gate.swap(1.7, 2), "gate target must be an integer >= 1, got 1.7"),
        (lambda: bits_to_index([0, 2]), "bit=2 out of range [0, 1]"),
        (lambda: best_time(lambda: None, reps=0), "reps must be an integer >= 1, got 0"),
        (lambda: run_all(max_n=True), "max_n must be an integer >= 1, got True"),
        (lambda: correspondence_trajectory(DotLabel.parse("1.0"), 2),
         "step count (dot exhausted after n)=2 out of range [0, 1]"),
        (lambda: run_all(max_n=2, seed=True), "seed must be an integer >= 0, got True"),
    ],
)
def test_rejected_integers_name_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_qubit_counts_accept_numpy_integers():
    q = position_eigenvalue(np.int64(3), np.int64(3))
    assert q == Fraction(7, 16) and type(q.denominator) is int
    N, n = np.int64(3), np.int64(1)
    assert np.array_equal(baker_composed(N, n), baker_composed(3, 1))
    assert np.array_equal(apply_baker_fast(basis_state(N, 0), n).amps,
                          apply_baker_fast(basis_state(3, 0), 1).amps)
    label = DotLabel(N=np.int64(2), n=np.int64(1), xbits=(1,), abits=(0,))
    assert label.N == 2 and type(label.N) is int
    assert label.n == 1 and type(label.n) is int
    assert basis_state(2, np.int64(3)).amps[3] == 1.0
    assert np.array_equal(iterate(basis_state(N, 0), n, np.int64(2)).amps,
                          iterate(basis_state(3, 0), 1, 2).amps)
    bits = np.random.default_rng(5).integers(0, 2, size=4)  # as criterion 10a draws them
    assert bits_to_index(bits) == int("".join(map(str, bits)), 2)
    s = SymbolString(left=bits[:2], right=bits[2:])
    assert all(type(b) is int for b in s.left + s.right)


@pytest.mark.parametrize("bad_n", [1.0, True, -1, "1"])
def test_dot_label_rejects_bad_dot_positions(bad_n):
    with pytest.raises(ValueError):
        DotLabel(N=2, n=bad_n, xbits=(1,), abits=(0,))


@pytest.mark.parametrize(
    "N,j,expected",
    [(3, 3, Fraction(7, 16)), (1, 0, Fraction(1, 4)), (2, 3, Fraction(7, 8))],
)
def test_position_eigenvalue_examples(N, j, expected):
    assert position_eigenvalue(N, j) == expected


@pytest.mark.parametrize(
    "N,k,expected",
    [(3, 5, Fraction(11, 16)), (1, 1, Fraction(3, 4)), (4, 0, Fraction(1, 32))],
)
def test_momentum_eigenvalue_examples(N, k, expected):
    assert momentum_eigenvalue(N, k) == expected


def test_eigenvalue_index_range():
    for bad in (-1, 4):
        with pytest.raises(IndexError):
            position_eigenvalue(2, bad)
        with pytest.raises(IndexError):
            momentum_eigenvalue(2, bad)


def test_position_lattice_spacing_exact():
    for N in range(1, 9):
        values = [position_eigenvalue(N, j) for j in range(2**N)]
        assert all(0 < v < 1 for v in values)
        assert all(b - a == Fraction(1, 2**N) for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "bits,expected", [([1, 0, 1], 5), ([0, 0], 0), ([1, 1, 1, 1], 15)]
)
def test_bits_to_index_examples(bits, expected):
    assert bits_to_index(bits) == expected


@pytest.mark.parametrize(
    "length,j,expected",
    [(3, 5, (1, 0, 1)), (2, 0, (0, 0)), (4, 15, (1, 1, 1, 1))],
)
def test_index_to_bits_examples(length, j, expected):
    assert index_to_bits(length, j) == expected


def test_bit_index_roundtrip_exhaustive():
    for length in range(1, 9):
        for j in range(2**length):
            assert bits_to_index(index_to_bits(length, j)) == j


def test_index_to_bits_range():
    with pytest.raises(IndexError):
        index_to_bits(3, 8)
    with pytest.raises(ValueError):
        bits_to_index([0, 2])


def test_label_cell_examples():
    cell = label_cell(DotLabel(N=4, n=2, xbits=(0, 1), abits=(1, 0)))
    assert (cell.q, cell.p) == (Fraction(3, 8), Fraction(5, 8))
    assert (cell.qwidth, cell.pwidth) == (Fraction(1, 4), Fraction(1, 4))

    cell = label_cell(DotLabel(N=2, n=2, xbits=(0, 0), abits=()))
    assert (cell.q, cell.p) == (Fraction(1, 8), Fraction(1, 2))
    assert (cell.qwidth, cell.pwidth) == (Fraction(1, 4), Fraction(1))

    cell = label_cell(DotLabel(N=3, n=0, xbits=(), abits=(1, 1, 1)))
    assert (cell.q, cell.p) == (Fraction(1, 2), Fraction(15, 16))
    assert (cell.qwidth, cell.pwidth) == (Fraction(1), Fraction(1, 8))


def test_label_cell_denominators():
    # cell centers are dyadic with denominators dividing 2^(n+1) and 2^(N-n+1)
    for N in range(1, 7):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                cell = label_cell(label)
                assert (1 << (n + 1)) % cell.q.denominator == 0
                assert (1 << (N - n + 1)) % cell.p.denominator == 0


def test_label_cell_centers_match_the_defining_sums():
    # the loop form of the docstring: sum b_i/2^i plus the guard 1/2^(m+1)
    def center(bits):
        value = sum((Fraction(b, 1 << i) for i, b in enumerate(bits, 1)), Fraction(0))
        return value + Fraction(1, 2 << len(bits))

    for N in range(1, 7):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                cell = label_cell(label)
                assert (cell.q, cell.p) == (center(label.xbits), center(label.abits))


def test_label_text_roundtrip_exhaustive():
    for N in range(1, 7):
        for n in range(N + 1):
            for label in iter_labels(N, n):
                assert DotLabel.parse(label.text()) == label


def test_label_parse_examples():
    label = DotLabel.parse("01.10")
    assert (label.N, label.n) == (4, 2)
    assert label.xbits == (1, 0)
    assert label.abits == (1, 0)  # a_1 sits next to the dot
    assert label.text() == "01.10"
    # pure-position and pure-momentum registers are both legal
    assert DotLabel.parse(".1").n == 1
    assert DotLabel.parse("1.").n == 0


@pytest.mark.parametrize(
    "bad,message",
    [
        pytest.param(bad, message, id=bad)
        for bad, message in [
            ("0110", "dot label needs exactly one dot: '0110'"),
            ("0.1.0", "dot label needs exactly one dot: '0.1.0'"),
            ("0a.1", "dot label may contain only 0/1 and a dot: '0a.1'"),
            (".", "dot label must contain at least one bit"),
        ]
    ],
)
def test_label_parse_rejects(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DotLabel.parse(bad)


def test_label_field_validation():
    with pytest.raises(ValueError):
        DotLabel(N=3, n=2, xbits=(1,), abits=(0,))  # wrong xbits length
    with pytest.raises(ValueError):
        DotLabel(N=3, n=4, xbits=(1, 0, 1, 1), abits=())  # n > N
    with pytest.raises(ValueError):
        DotLabel(N=2, n=1, xbits=(2,), abits=(0,))  # non-bit


def test_basis_index_orders_position_register_first():
    label = DotLabel(N=3, n=2, xbits=(1, 0), abits=(1,))
    assert label.basis_index == 0b101
