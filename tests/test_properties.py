"""Property-based checks on random inputs.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker.bakermap import apply_baker_fast, apply_circuit, baker_composed, emit_circuit
from qbaker.classical import SymbolString, decode, geometric_baker, shift
from qbaker.lattice import Dimensions, DotLabel
from qbaker.qfourier import random_state

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

bits = st.lists(st.integers(0, 1), max_size=24).map(tuple)


@st.composite
def dot_labels(draw):
    N = draw(st.integers(1, 16))
    n = draw(st.integers(0, N))
    xs = draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
    return DotLabel(N=N, n=n, xbits=xs[:n], abits=xs[n:])


@PROPERTY
@given(dot_labels())
def test_dot_label_text_roundtrip(label):
    assert DotLabel.parse(label.text()) == label
    assert DotLabel.parse(label.text()).text() == label.text()


@PROPERTY
@given(bits, bits)
def test_symbol_string_text_roundtrip(left, right):
    s = SymbolString(left=left, right=right)
    assert SymbolString.parse(s.text()) == s
    assert SymbolString.parse(s.text()).text() == s.text()


@PROPERTY
@given(bits, bits.filter(len))
def test_decode_shift_is_geometric_decode(left, right):
    s = SymbolString(left=left, right=right)
    assert decode(shift(s)) == geometric_baker(*decode(s))


@st.composite
def map_cases(draw):
    N = draw(st.integers(1, 8))
    return N, draw(st.integers(1, N)), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(map_cases())
def test_circuit_matches_fast_apply(case):
    N, n, seed = case
    state = random_state(N, np.random.default_rng(seed))
    got = apply_circuit(state.amps, emit_circuit(Dimensions(N), n))
    assert np.abs(got - apply_baker_fast(state, n).amps).max() < 1e-12


@PROPERTY
@given(map_cases())
def test_fast_apply_matches_composed_matrix(case):
    N, n, seed = case
    state = random_state(N, np.random.default_rng(seed))
    want = baker_composed(Dimensions(N), n) @ state.amps
    assert np.abs(apply_baker_fast(state, n).amps - want).max() < 1e-12
