"""Property-based checks on random inputs.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbaker.bakermap import apply_baker_fast, apply_circuit, baker_composed, emit_circuit
from qbaker.classical import SymbolString, decode, geometric_baker, shift
from qbaker.cli import main
from qbaker.lattice import DotLabel
from qbaker.qfourier import (
    antiperiodic_dft,
    displacement_u,
    displacement_v,
    dot_state_product,
    dot_state_transform,
    partial_transform,
    random_state,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

bits = st.lists(st.integers(0, 1), max_size=24).map(tuple)


@st.composite
def dot_labels(draw, max_N=16):
    N = draw(st.integers(1, max_N))
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
    got = apply_circuit(state.amps, emit_circuit(N, n))
    assert np.abs(got - apply_baker_fast(state, n).amps).max() < 1e-12


@PROPERTY
@given(map_cases())
def test_fast_apply_matches_composed_matrix(case):
    N, n, seed = case
    state = random_state(N, np.random.default_rng(seed))
    want = baker_composed(N, n) @ state.amps
    assert np.abs(apply_baker_fast(state, n).amps - want).max() < 1e-12


# --- CLI export round trips ----------------------------------------------------


def _export(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--out", "-"]) == 0
    return out.getvalue()


def _read_csv(text: str, header: str, shape: tuple[int, ...]) -> np.ndarray:
    rows = text.splitlines()
    assert rows[0] == header
    arr = np.full(shape, np.nan, dtype=np.complex128)
    for row in rows[1:]:
        *index, re, im = row.split(",")
        arr[tuple(int(i) for i in index)] = complex(float(re), float(im))
    return arr


def _read_pairs(pairs: list) -> np.ndarray:
    return np.array(pairs, dtype=np.float64).view(np.complex128)[..., 0]


@PROPERTY
@given(dot_labels(max_N=6), st.sampled_from(["transform", "product"]),
       st.sampled_from(["csv", "json"]))
def test_state_export_roundtrips(label, route, fmt):
    text = _export(["state", "--label", label.text(), "--route", route, "--format", fmt])
    if fmt == "csv":
        amps = _read_csv(text, "index,re,im", (1 << label.N,))
    else:
        payload = json.loads(text)
        assert payload["N"] == label.N
        amps = _read_pairs(payload["amps"])
    build = dot_state_product if route == "product" else dot_state_transform
    assert np.array_equal(amps, build(label).amps)


@st.composite
def matrix_targets(draw):
    target = draw(st.sampled_from("GBUVF"))
    N = draw(st.integers(1, 4))
    n = draw(st.integers(0 if target == "G" else 1, N))
    return target, N, n


@PROPERTY
@given(matrix_targets(), st.sampled_from(["csv", "json"]))
def test_matrix_export_roundtrips(case, fmt):
    target, N, n = case
    want = {
        "G": lambda: partial_transform(N, n),
        "B": lambda: baker_composed(N, n),
        "U": lambda: displacement_u(N),
        "V": lambda: displacement_v(N),
        "F": lambda: antiperiodic_dft(1 << N),
    }[target]()
    argv = ["matrix", "--target", target, "--N", str(N), "--n", str(n), "--format", fmt]
    text = _export(argv)
    if fmt == "csv":
        got = _read_csv(text, "row,col,re,im", want.shape)
    else:
        got = _read_pairs(json.loads(text))
    assert np.array_equal(got, want)
