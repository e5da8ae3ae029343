"""Classical baker's map as symbolic dynamics on a finite bit window.

A phase-space point is a two-sided bit string ...s_{-1}s_0.s_1s_2... with
q = 0.s_1 s_2 ... and p = 0.s_0 s_{-1} ...; one map step shifts the whole
string one place left (equivalently, moves the dot one place right).  Only a
finite window around the dot is stored; unstored symbols decode as 0, and a
shift that would need a bit beyond the stored right window is refused rather
than fabricated.  All arithmetic is exact, which makes this module the oracle
for the quantum label dynamics: `label_shift` is `shift` on a dot label's
embedded window, read back as a label.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Bits, DotLabel, _as_bits, _dotted_text, _parse_dotted, bits_to_index


@dataclass(frozen=True)
class SymbolString:
    """Finite window of a two-sided symbol string.

    left holds (s_0, s_{-1}, s_{-2}, ...) walking outward from the dot;
    right holds (s_1, s_2, ...).
    """

    left: Bits
    right: Bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", _as_bits(self.left))
        object.__setattr__(self, "right", _as_bits(self.right))

    def text(self) -> str:
        return _dotted_text(self.left, self.right)

    @classmethod
    def parse(cls, text: str) -> "SymbolString":
        left, right = _parse_dotted(text, "symbol string")
        return cls(left=left, right=right)

    def __str__(self) -> str:
        return self.text()


def decode(s: SymbolString) -> tuple[Fraction, Fraction]:
    """Exact phase-space point (q, p) of a window: q = sum s_k/2^k over the
    right side, p = sum s_{-k}/2^(k+1) over the left side."""
    q = Fraction(bits_to_index(s.right), 1 << len(s.right))
    return q, Fraction(bits_to_index(s.left), 1 << len(s.left))


def shift(s: SymbolString) -> SymbolString:
    """One step of the symbolic dynamics, s'_k = s_{k+1}."""
    if not s.right:
        raise ValueError("cannot shift: the right window is exhausted")
    return SymbolString(left=(s.right[0],) + s.left, right=s.right[1:])


def geometric_baker(q: Fraction, p: Fraction) -> tuple[Fraction, Fraction]:
    """Stretch-squeeze-stack form of the map on the unit square:
    q' = 2q mod 1, p' = (p + floor(2q))/2."""
    q = Fraction(q)
    p = Fraction(p)
    if not (0 <= q < 1 and 0 <= p < 1):
        raise ValueError(f"point ({q}, {p}) outside the unit square")
    two_q = 2 * q
    upper = two_q // 1
    return two_q - upper, (p + upper) / 2


def label_shift(label: DotLabel) -> DotLabel:
    """Move the dot one place right: ...a_1.x_1 x_2... -> ...a_1 x_1.x_2...

    This is `shift` on the embedded window, read back as a label: the
    consumed position bit becomes the new innermost momentum bit.
    """
    if label.n == 0:
        raise ValueError("cannot shift: no position bit left to consume")
    s = shift(embed_label(label))
    return DotLabel(N=label.N, n=label.n - 1, xbits=s.right, abits=s.left)


def embed_label(label: DotLabel) -> SymbolString:
    """View a dot label as a symbol window (guard context all zeros):
    right side x_1...x_n, left side a_1, a_2, ... outward from the dot."""
    return SymbolString(left=label.abits, right=label.xbits)
