import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qbaker.lattice import (
    Dimensions,
    DotLabel,
    bits_to_index,
    index_to_bits,
    iter_labels,
    label_cell,
    momentum_eigenvalue,
    position_eigenvalue,
)


def test_dimensions_invariants():
    for N in range(1, 13):
        dims = Dimensions(N)
        assert dims.D == 2**N
        assert abs(2.0 * math.pi * dims.hbar * dims.D - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
def test_dimensions_rejects_bad_qubit_counts(bad):
    with pytest.raises(ValueError):
        Dimensions(bad)


def test_qubit_counts_accept_numpy_integers():
    dims = Dimensions(np.int64(3))
    assert dims.N == 3 and type(dims.N) is int
    label = DotLabel(N=np.int64(2), n=np.int64(1), xbits=(1,), abits=(0,))
    assert label.N == 2 and type(label.N) is int
    assert label.n == 1 and type(label.n) is int


@pytest.mark.parametrize("bad_n", [1.0, True, -1, "1"])
def test_dot_label_rejects_bad_dot_positions(bad_n):
    with pytest.raises(ValueError):
        DotLabel(N=2, n=bad_n, xbits=(1,), abits=(0,))


@pytest.mark.parametrize(
    "N,j,expected",
    [(3, 3, Fraction(7, 16)), (1, 0, Fraction(1, 4)), (2, 3, Fraction(7, 8))],
)
def test_position_eigenvalue_examples(N, j, expected):
    assert position_eigenvalue(Dimensions(N), j) == expected


@pytest.mark.parametrize(
    "N,k,expected",
    [(3, 5, Fraction(11, 16)), (1, 1, Fraction(3, 4)), (4, 0, Fraction(1, 32))],
)
def test_momentum_eigenvalue_examples(N, k, expected):
    assert momentum_eigenvalue(Dimensions(N), k) == expected


def test_eigenvalue_index_range():
    dims = Dimensions(2)
    for bad in (-1, dims.D):
        with pytest.raises(IndexError):
            position_eigenvalue(dims, bad)
        with pytest.raises(IndexError):
            momentum_eigenvalue(dims, bad)


def test_position_lattice_spacing_exact():
    for N in range(1, 9):
        dims = Dimensions(N)
        values = [position_eigenvalue(dims, j) for j in range(dims.D)]
        assert all(0 < v < 1 for v in values)
        assert all(b - a == Fraction(1, dims.D) for a, b in zip(values, values[1:]))


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
