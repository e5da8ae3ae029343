"""Phase-space lattice for a string of N qubits.

The unit square is modeled in the D = 2^N dimensional Hilbert space of N
qubits, with the quantum scale fixed by 2*pi*hbar = 1/D.  Antiperiodic
boundary conditions put the position and momentum eigenvalues on the
half-integer lattice (j + 1/2)/D.  Computational basis states are labelled
by bit strings with slot 1 the most significant bit, j = sum_l x_l 2^(N-l).

A dot label a_{N-n}...a_1.x_1...x_n names one state of the dot basis: the n
bits right of the dot fix a position window of width 1/2^n, the N-n bits
left of the dot (read backwards) fix a momentum window of width 1/2^(N-n).
Everything here is exact integer/rational arithmetic.  Every integer argument
in the package (qubit count N, map and dot index n, cut, step count, bit) is
a plain int checked by the one rule `_integer`; the subscripts j and k pass
it no lower bound and keep their own IndexError bounds.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

Bits = tuple[int, ...]


def _integer(
    value, least: int | None = 1, most: int | None = None, noun: str = "qubit count"
) -> int:
    """value as a plain int in [least, most], a bound of None being no bound;
    any integer type but bool is accepted, anything else is a ValueError
    naming the noun.  The one rule for every integer argument: qubit counts,
    map and dot indices, cuts, step counts, repetitions, bits and subscripts."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or (least is not None and number < least):
        rule = "an integer" if least is None else f"an integer >= {least}"
        raise ValueError(f"{noun} must be {rule}, got {value!r}")
    if most is not None and number > most:
        raise ValueError(f"{noun}={number} out of range [{least}, {most}]")
    return number


def _as_bits(bits: Sequence[int]) -> Bits:
    return tuple(_integer(b, 0, 1, "bit") for b in bits)


def _dotted_text(inner: Bits, right: Bits) -> str:
    """The `aaa.xxx` text form: the inner bits reversed, a dot, the right bits."""
    return "".join(map(str, reversed(inner))) + "." + "".join(map(str, right))


def _parse_dotted(text: str, noun: str) -> tuple[Bits, Bits]:
    """(inner bits, right bits) of the `aaa.xxx` form; errors name the noun."""
    if text.count(".") != 1:
        raise ValueError(f"{noun} needs exactly one dot: {text!r}")
    before, after = text.split(".")
    if not set(before + after) <= {"0", "1"}:
        raise ValueError(f"{noun} may contain only 0/1 and a dot: {text!r}")
    return tuple(int(c) for c in reversed(before)), tuple(int(c) for c in after)


def position_eigenvalue(N: int, j: int) -> Fraction:
    """Position eigenvalue q_j = (j + 1/2)/D, D = 2^N, as an exact rational."""
    D, j = 1 << _integer(N), _integer(j, None, noun="position index")
    if not 0 <= j < D:
        raise IndexError(f"position index {j} out of range [0, {D})")
    return Fraction(2 * j + 1, 2 * D)


def momentum_eigenvalue(N: int, k: int) -> Fraction:
    """Momentum eigenvalue p_k = (k + 1/2)/D, same half-integer lattice as q."""
    D, k = 1 << _integer(N), _integer(k, None, noun="momentum index")
    if not 0 <= k < D:
        raise IndexError(f"momentum index {k} out of range [0, {D})")
    return Fraction(2 * k + 1, 2 * D)


def bits_to_index(bits: Sequence[int]) -> int:
    """Index j = sum_l bits[l] * 2^(len-1-l); the first bit is most significant."""
    j = 0
    for b in _as_bits(bits):
        j = (j << 1) | b
    return j


def index_to_bits(length: int, j: int) -> Bits:
    """Inverse of bits_to_index: the `length`-bit big-endian expansion of j."""
    length, j = _integer(length, 0, noun="bit length"), _integer(j, None, noun="index")
    if not 0 <= j < (1 << length):
        raise IndexError(f"index {j} does not fit in {length} bits")
    return tuple((j >> (length - 1 - l)) & 1 for l in range(length))


@dataclass(frozen=True)
class DotLabel:
    """Symbolic label a_{N-n}...a_1.x_1...x_n for a dot-basis state.

    xbits stores (x_1, ..., x_n) and abits stores (a_1, ..., a_{N-n}), both
    with the index-1 element first.  Since the text form writes the momentum
    bits in decreasing index order left of the dot, rendering reverses abits.
    """

    N: int
    n: int
    xbits: Bits
    abits: Bits

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integer(self.N))
        object.__setattr__(self, "n", _integer(self.n, 0, self.N, "dot position n"))
        object.__setattr__(self, "xbits", _as_bits(self.xbits))
        object.__setattr__(self, "abits", _as_bits(self.abits))
        if len(self.xbits) != self.n:
            raise ValueError(f"expected {self.n} position bits, got {len(self.xbits)}")
        if len(self.abits) != self.N - self.n:
            raise ValueError(
                f"expected {self.N - self.n} momentum bits, got {len(self.abits)}"
            )

    @property
    def basis_index(self) -> int:
        """Index of the computational basis state |x_1..x_n, a_1..a_{N-n}>."""
        return bits_to_index(self.xbits + self.abits)

    def text(self) -> str:
        return _dotted_text(self.abits, self.xbits)

    @classmethod
    def parse(cls, text: str) -> "DotLabel":
        """Parse the `aaa.xxx` text form; round-trips with text() exactly."""
        abits, xbits = _parse_dotted(text, "dot label")
        if not abits and not xbits:
            raise ValueError("dot label must contain at least one bit")
        return cls(N=len(abits) + len(xbits), n=len(xbits), xbits=xbits, abits=abits)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class PhasePoint:
    """Center and extent of a rectangular phase-space cell, all exact."""

    q: Fraction
    p: Fraction
    qwidth: Fraction
    pwidth: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.q < 1 and 0 <= self.p < 1):
            raise ValueError(f"cell center ({self.q}, {self.p}) outside the unit square")
        if not (0 < self.qwidth <= 1 and 0 < self.pwidth <= 1):
            raise ValueError("cell widths must lie in (0, 1]")


def _binary_fraction(bits: Bits) -> Fraction:
    """0.b_1 b_2 ... b_m with a trailing guard 1, i.e. sum b_i/2^i + 1/2^(m+1)."""
    return Fraction(2 * bits_to_index(bits) + 1, 2 << len(bits))


def label_cell(label: DotLabel) -> PhasePoint:
    """Phase-space cell of a dot-basis state.

    The cell is centered at q = 0.x_1...x_n1 and p = 0.a_1...a_{N-n}1 (binary,
    with the trailing guard bit placing the center half a cell in), and has
    widths 1/2^n and 1/2^(N-n).
    """
    return PhasePoint(
        q=_binary_fraction(label.xbits),
        p=_binary_fraction(label.abits),
        qwidth=Fraction(1, 1 << label.n),
        pwidth=Fraction(1, 1 << (label.N - label.n)),
    )


def iter_labels(N: int, n: int) -> Iterator[DotLabel]:
    """All 2^N dot labels for fixed (N, n), in basis-index order.  N and n are
    checked when it is called, not at the first label."""
    N = _integer(N)
    n = _integer(n, 0, N, "dot position n")
    return (
        DotLabel(N=N, n=n, xbits=bits[:n], abits=bits[n:])
        for bits in itertools.product((0, 1), repeat=N)
    )
