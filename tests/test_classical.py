from fractions import Fraction

import numpy as np
import pytest

from qbaker.classical import (
    SymbolString,
    decode,
    embed_label,
    geometric_baker,
    label_shift,
    shift,
)
from qbaker.lattice import DotLabel, iter_labels


@pytest.mark.parametrize(
    "left,right,expected",
    [
        ((0,), (1, 0, 1), (Fraction(5, 8), Fraction(0))),
        ((), (), (Fraction(0), Fraction(0))),
        ((1,), (1,), (Fraction(1, 2), Fraction(1, 2))),
    ],
)
def test_decode_examples(left, right, expected):
    assert decode(SymbolString(left=left, right=right)) == expected


def test_decode_matches_the_defining_sums():
    # the loop form of the docstring: q = sum s_k/2^k, p = sum s_{-k}/2^(k+1)
    rng = np.random.default_rng(998)
    for _ in range(500):
        left = tuple(int(b) for b in rng.integers(0, 2, rng.integers(0, 70)))
        right = tuple(int(b) for b in rng.integers(0, 2, rng.integers(0, 70)))
        q = sum((Fraction(b, 1 << k) for k, b in enumerate(right, 1)), Fraction(0))
        p = sum((Fraction(b, 2 << k) for k, b in enumerate(left)), Fraction(0))
        assert decode(SymbolString(left=left, right=right)) == (q, p)


def test_shift_examples():
    s = shift(SymbolString(left=(0,), right=(1, 0, 1)))
    assert s == SymbolString(left=(1, 0), right=(0, 1))
    assert shift(SymbolString(left=(), right=(1,))) == SymbolString(left=(1,), right=())


def test_shift_refuses_empty_right():
    with pytest.raises(ValueError):
        shift(SymbolString(left=(1, 0), right=()))


@pytest.mark.parametrize(
    "point,expected",
    [
        ((Fraction(5, 8), Fraction(0)), (Fraction(1, 4), Fraction(1, 2))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4))),
    ],
)
def test_geometric_baker_examples(point, expected):
    assert geometric_baker(*point) == expected


def test_geometric_baker_domain():
    with pytest.raises(ValueError):
        geometric_baker(Fraction(3, 2), Fraction(0))


def test_decode_shift_matches_geometric_exactly():
    # exact identity in rational arithmetic on finite windows
    rng = np.random.default_rng(999)
    for _ in range(1000):
        left = tuple(int(b) for b in rng.integers(0, 2, rng.integers(0, 33)))
        right = tuple(int(b) for b in rng.integers(0, 2, rng.integers(1, 33)))
        s = SymbolString(left=left, right=right)
        assert decode(shift(s)) == geometric_baker(*decode(s))


def test_shift_injective_on_fixed_window_length():
    # enumerate all windows with total length 6; shifted outputs stay distinct
    for split in range(7):
        windows = []
        for code in range(2**6):
            bits = tuple((code >> i) & 1 for i in range(6))
            windows.append(SymbolString(left=bits[:split], right=bits[split:]))
        shiftable = [w for w in windows if w.right]
        shifted = {shift(w) for w in shiftable}
        assert len(shifted) == len(shiftable)


@pytest.mark.parametrize(
    "text,expected",
    [("01.10", "011.0"), (".1", "1."), ("1.01", "10.1")],
)
def test_label_shift_examples(text, expected):
    assert label_shift(DotLabel.parse(text)).text() == expected


def test_label_shift_exhausted():
    with pytest.raises(ValueError, match=r"^cannot shift: no position bit left to consume$"):
        label_shift(DotLabel.parse("10."))


def test_label_shift_agrees_with_symbol_shift():
    # the label embeds as a window with all-zero guard context; one label
    # shift must equal one symbol shift on the embedding
    for N in range(1, 9):
        for n in range(1, N + 1):
            for label in iter_labels(N, n):
                assert embed_label(label_shift(label)) == shift(embed_label(label))


def test_symbol_string_text_roundtrip():
    s = SymbolString.parse("01.101")
    assert s.left == (1, 0)  # s_0 = 1, s_-1 = 0
    assert s.right == (1, 0, 1)
    assert s.text() == "01.101"
    assert SymbolString.parse(".") == SymbolString(left=(), right=())


def test_symbol_string_parse_rejects():
    with pytest.raises(ValueError, match=r"^symbol string needs exactly one dot: '0101'$"):
        SymbolString.parse("0101")
    with pytest.raises(ValueError, match=r"^symbol string needs exactly one dot: '0\.1\.0'$"):
        SymbolString.parse("0.1.0")
    with pytest.raises(
        ValueError, match=r"^symbol string may contain only 0/1 and a dot: '0\.x1'$"
    ):
        SymbolString.parse("0.x1")
