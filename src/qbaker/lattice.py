"""Phase-space lattice for a string of N qubits.

The unit square is modeled in the D = 2^N dimensional Hilbert space of N
qubits, with the quantum scale fixed by 2*pi*hbar = 1/D.  Antiperiodic
boundary conditions put the position and momentum eigenvalues on the
half-integer lattice (j + 1/2)/D.  Computational basis states are labelled
by bit strings with slot 1 the most significant bit, j = sum_l x_l 2^(N-l).

A dot label a_{N-n}...a_1.x_1...x_n names one state of the dot basis: the n
bits right of the dot fix a position window of width 1/2^n, the N-n bits
left of the dot (read backwards) fix a momentum window of width 1/2^(N-n).
Everything here is exact integer/rational arithmetic.  N and n are plain
ints throughout the package, each checked by `_qubit_count`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

Bits = tuple[int, ...]


def _as_bits(bits: Sequence[int]) -> Bits:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    return out


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


def _qubit_count(count, least: int = 1, noun: str = "qubit count") -> int:
    """count as a plain int >= least; any integer type but bool is accepted.
    The one check for qubit counts N and for the map and dot indices n."""
    try:
        value = operator.index(count)
    except TypeError:
        value = least - 1
    if isinstance(count, bool) or value < least:
        raise ValueError(f"{noun} must be an integer >= {least}, got {count!r}")
    return value


def position_eigenvalue(N: int, j: int) -> Fraction:
    """Position eigenvalue q_j = (j + 1/2)/D, D = 2^N, as an exact rational."""
    D = 1 << _qubit_count(N)
    if not 0 <= j < D:
        raise IndexError(f"position index {j} out of range [0, {D})")
    return Fraction(2 * j + 1, 2 * D)


def momentum_eigenvalue(N: int, k: int) -> Fraction:
    """Momentum eigenvalue p_k = (k + 1/2)/D, same half-integer lattice as q."""
    D = 1 << _qubit_count(N)
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
    if length < 0:
        raise ValueError(f"bit length must be non-negative, got {length}")
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
        object.__setattr__(self, "N", _qubit_count(self.N))
        object.__setattr__(self, "n", _qubit_count(self.n, least=0, noun="dot position n"))
        if self.n > self.N:
            raise ValueError(f"dot position n={self.n} out of range [0, {self.N}]")
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
    value = Fraction(0)
    for i, b in enumerate(bits, start=1):
        value += Fraction(b, 1 << i)
    return value + Fraction(1, 1 << (len(bits) + 1))


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
    """All 2^N dot labels for fixed (N, n), in basis-index order."""
    N, n = _qubit_count(N), _qubit_count(n, least=0, noun="dot position n")
    if n > N:
        raise ValueError(f"dot position n={n} out of range [0, {N}]")
    for j in range(1 << N):
        bits = index_to_bits(N, j)
        yield DotLabel(N=N, n=n, xbits=bits[:n], abits=bits[n:])
