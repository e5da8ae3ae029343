"""The dot-shift family of quantum baker's maps on N qubits.

The n-th map (1 <= n <= N) sends each dot-basis state to the dot-basis state
whose label has the dot moved one place right.  It is the composition

    B_n = G_{n-1} * Cyc_n * G_n^dag,

where Cyc_n cyclically rotates the contents of the first n qubit slots (slot 1
moves to slot n) and G_k is the partial antiperiodic transform.  Cyc_n acts on
slots 1..n and G_n^dag on slots n+1..N, so the two commute: `baker_composed`
builds the product as (I (x) T) * Cyc_n from a closed form of T, and
`baker_from_basis_map` from the basis action.  The production route is the
O(D*N) state apply `apply_baker_fast`.  It runs every map as the one exact
refactoring B_n = Cyc_N * G_n * C_n * G_n^dag, where C_n mixes slot 1 with a
fixed 2x2 unitary and a diagonal phase: both partial transforms then act on
the same 2^n rows, which `apply_partial_transform` splits across the usable
CPUs for large states.  At n = N both transforms are i*1 and cancel, and C_N
is exactly the single-qubit rotation u = `last_qubit_unitary()` on slot 1, so
B_N = Cyc_N * (u on slot 1) never entangles product states.  Both dense forms
and an O(N^2) gate-list lowering are its checks.  `iterate` repeats one map;
`qbaker evolve` calls `apply_baker_fast` in its own loop, which logs each step.
The lowering has three gate kinds (single-qubit gates, controlled phases,
swaps); the map's scalar phase is folded into its last gate.  `apply_circuit`
runs a gate list on reshaped views that expose each gate's slots as axes, so
it acts on matrices (checked against the dense map) and on states past the
dense cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classical import label_shift
from .lattice import _integer, iter_labels
from .qfourier import (
    UNITARY_TOL,
    StateVector,
    _apply_ladder,
    _check_unitary,
    _ladder,
    apply_partial_transform,
    dot_state_transform,
)

DENSE_CAP_N = 12
FAST_CAP_N = 20

GATE_KINDS = ("single_qubit", "controlled_phase", "swap")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2)


def _phase_matrix(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class Gate:
    """One elementary gate record; slot indices are 1-based, slot 1 = MSB."""

    kind: str
    targets: tuple[int, ...]
    matrix: Optional[np.ndarray] = None
    angle: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(_integer(t, noun="gate target") for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"targets must be distinct slots, got {targets}")
        object.__setattr__(self, "targets", targets)
        if self.kind == "single_qubit":
            if len(targets) != 1 or self.matrix is None:
                raise ValueError("single_qubit gate needs one target and a matrix")
            mat = np.array(self.matrix, dtype=np.complex128)
            if mat.shape != (2, 2):
                raise ValueError(f"single_qubit matrix must be 2x2, got {mat.shape}")
            _check_unitary(mat, UNITARY_TOL, "single_qubit gate matrix")
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        elif self.kind == "controlled_phase":
            if len(targets) != 2 or self.angle is None:
                raise ValueError("controlled_phase gate needs two targets and an angle")
        elif len(targets) != 2:
            raise ValueError("swap gate needs two targets")

    @classmethod
    def single_qubit(cls, slot: int, matrix: np.ndarray) -> "Gate":
        return cls(kind="single_qubit", targets=(slot,), matrix=matrix)

    @classmethod
    def controlled_phase(cls, slot_a: int, slot_b: int, angle: float) -> "Gate":
        return cls(kind="controlled_phase", targets=(slot_a, slot_b), angle=float(angle))

    @classmethod
    def swap(cls, slot_a: int, slot_b: int) -> "Gate":
        return cls(kind="swap", targets=(slot_a, slot_b))


@dataclass(frozen=True, eq=False)
class GateList:
    """Gate sequence in time order (first gate acts first)."""

    N: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integer(self.N))
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(t > self.N for t in g.targets):
                raise ValueError(f"gate targets {g.targets} exceed N={self.N}")

    def __len__(self) -> int:
        return len(self.gates)


def _check_map_index(N: int, n: int) -> tuple[int, int]:
    """(N, n) as plain ints with 1 <= n <= N, else a ValueError."""
    N = _integer(N)
    return N, _integer(n, 1, N, "map index n")


def _cyclic_rows(arr: np.ndarray, N: int, n: int) -> np.ndarray:
    """Rotate the first n slot-bits of the leading index: the slot-1 bit moves
    to slot n, slots 2..n move up one.  Works on vectors and on matrices
    (rows are permuted, columns untouched)."""
    tail = arr.shape[1:]
    shaped = arr.reshape((2, 1 << (n - 1), 1 << (N - n)) + tail)
    axes = (1, 0, 2) + tuple(range(3, 3 + len(tail)))
    return shaped.transpose(axes).reshape(arr.shape)


def cyclic_shift_operator(N: int, n: int) -> np.ndarray:
    """Permutation matrix on N qubits for the slot rotation (x1, x2, ..., xn,
    rest) -> (x2, ..., xn, x1, rest)."""
    N, n = _check_map_index(N, n)
    return _cyclic_rows(np.eye(1 << N), N, n)


def baker_from_basis_map(N: int, n: int) -> np.ndarray:
    """Dense map assembled directly from its action on the dot basis: the
    state labelled ...a_1.x_1...x_n goes to the one labelled ...a_1x_1.x_2...x_n."""
    N, n = _check_map_index(N, n)
    D = 1 << N
    src = np.empty((D, D), dtype=np.complex128)
    tgt = np.empty((D, D), dtype=np.complex128)
    for label in iter_labels(N, n):
        j = label.basis_index
        src[:, j] = dot_state_transform(label).amps
        tgt[:, j] = dot_state_transform(label_shift(label)).amps
    return tgt @ src.conj().T


def baker_composed(N: int, n: int) -> np.ndarray:
    """Dense map G_{n-1} * Cyc_n * G_n^dag = (I_{2^(n-1)} (x) T) * Cyc_n in O(D^2),
    from the closed form of T = K_{2M} (I_2 (x) K_M^dag), M = 2^(N-n):

        T[x, (x_1, a)] = e^{i pi (x+1/2) x_1} (1 + i(-1)^x) i / (2 sqrt2 M sin(pi theta)),

    a geometric sum with theta = (x - 2a - 1/2)/(2M), never an integer.  Cyc_n
    moves the slot-1 bit x_1 past the block index k of slots 2..n, so column
    (x_1, k, a) of B_n is column (x_1, a) of T in block k.
    """
    N, n = _check_map_index(N, n)
    K, M = 1 << (n - 1), 1 << (N - n)
    x = np.arange(2 * M)[:, None]
    parity = 1 - 2 * (x & 1)  # (-1)^x
    sine = np.sin(np.pi * (x - 2 * np.arange(M) - 0.5) / (2 * M))
    t = (1j - parity) / (2 * np.sqrt(2) * M * sine)  # the x_1 = 0 half
    out = np.zeros((K, 2 * M, 2, K, M), dtype=np.complex128)
    blocks = np.arange(K)
    out[blocks, :, 0, blocks] = t
    out[blocks, :, 1, blocks] = 1j * parity * t
    return out.reshape(1 << N, 1 << N)


def last_qubit_unitary() -> np.ndarray:
    """The fixed 2x2 rotation the n = N map applies to the shifted-out qubit,
    (1/sqrt2) [[e^{-i pi/4}, e^{i pi/4}], [e^{i pi/4}, e^{-i pi/4}]], in exact entries."""
    return np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2


def apply_baker_fast(state: StateVector, n: int) -> StateVector:
    """Apply the n-th map to a state in O(D*N).

    It runs B_n = Cyc_N * G_n * C_n * G_n^dag, so both partial transforms act
    on the same 2^n rows of length M = 2^(N-n) (and so split across the CPUs
    alike, see `apply_partial_transform`), where the composed form's forward
    transform G_{n-1} would need rows of length 2M.  C_n is `_slot_one_mix`.
    The identity comes from splitting the row index of K_{2M} as x = 2y + p
    and its column index as (x_1, a):

        K_{2M}[2y+p, x_1 M + a]
            = e^{i pi (p+1/2) x_1} e^{i pi (p-1/2)(a+1/2)/M} K_M[y, a] / sqrt2,

    and Cyc_N carries the new low bit p from slot 1 to slot N.  At n = N,
    G_N = i*1, so G_N C_N G_N^dag = C_N, which is evaluated as the exact u =
    `last_qubit_unitary()` on slot 1 (computing C_N and the transforms would
    round u's entries: 10^4 steps at N=10 then drift by 1.1e-12).  Each
    intermediate state is dropped once the next one is built.
    """
    N, n = _check_map_index(state.N, n)
    if n == N:
        amps = (last_qubit_unitary() @ state.amps.reshape(2, -1)).ravel()
    else:
        amps = apply_partial_transform(
            _slot_one_mix(apply_partial_transform(state, n, "inverse"), n), n, "forward"
        ).amps
    return StateVector._adopt(N, _cyclic_rows(amps, N, N))


def _slot_one_mix(state: StateVector, n: int) -> StateVector:
    """C_n = Phi_n * (V (x) I): V = [[1, i], [1, -i]]/sqrt2 turns the slot-1
    bit x_1 into p, then Phi_n multiplies by e^{i pi (p-1/2)(a+1/2)/M}, with a
    the integer on slots n+1..N and M = 2^(N-n).  It leaves slots 2..n alone
    and is diagonal in slots n+1..N, so it costs a few passes over the state;
    its phases are `_ladder` factor pairs, so no M-entry phase vector is
    built.  At n = N it is u = `last_qubit_unitary()` on slot 1, up to
    rounding."""
    m = state.N - n
    low, high = state.amps.reshape(2, -1, 1 << m)  # x_1 = 0 and x_1 = 1
    # the twists e^{+-i pi (a+1/2)/2M}/sqrt2.  np.sqrt(0.5) is 1/sqrt2
    # correctly rounded; 1/np.sqrt(2) is one ulp low, which alone takes
    # 1.1e-16 of norm per step (at N=10, n=1: -1.9e-12 after 10^4 steps,
    # against -2.8e-13 with np.sqrt(0.5))
    out = np.empty((2,) + low.shape, dtype=np.complex128)
    np.multiply(high, 1j, out=out[1])
    np.add(low, out[1], out=out[0])
    np.subtract(low, out[1], out=out[1])
    _apply_ladder(out[1], _ladder(m, 0.5, 0.5, np.sqrt(0.5)), out[1])
    _apply_ladder(out[0], _ladder(m, -0.5, 0.5, np.sqrt(0.5)), out[0])
    return StateVector._adopt(state.N, out)


def iterate(state: StateVector, n: int, steps: int) -> StateVector:
    """Apply the n-th map `steps` times and return the final state; zero
    steps return `state` itself.  Each state is dropped once the next one is
    built."""
    steps = _integer(steps, 0, noun="step count")
    _, n = _check_map_index(state.N, n)
    for _ in range(steps):
        state = apply_baker_fast(state, n)
    return state


# --- gate-list lowering -----------------------------------------------------


def _qft_gates(slots: Sequence[int]) -> list[Gate]:
    """Standard transform with kernel exp(+2 pi i x a / M)/sqrt(M) on the given
    slots (first slot = most significant): Hadamards, a controlled-phase
    ladder, and the final order-reversing swaps."""
    t = len(slots)
    gates: list[Gate] = []
    for k in range(t):
        gates.append(Gate.single_qubit(slots[k], _HADAMARD))
        for j in range(k + 1, t):
            gates.append(
                Gate.controlled_phase(slots[j], slots[k], 2.0 * np.pi / (1 << (j - k + 1)))
            )
    for l in range(t // 2):
        gates.append(Gate.swap(slots[l], slots[t - 1 - l]))
    return gates


def _antiperiodic_block(slots: Sequence[int]) -> list[Gate]:
    """Forward antiperiodic kernel on the given slots up to its scalar phase
    e^{i pi/2M}, factorized as half-bit phase ladder, standard transform,
    phase ladder."""
    ladder = [
        Gate.single_qubit(slots[m - 1], _phase_matrix(np.pi / (1 << m)))
        for m in range(1, len(slots) + 1)
    ]
    return ladder + _qft_gates(slots) + ladder


def _invert_gates(gates: Sequence[Gate]) -> list[Gate]:
    out: list[Gate] = []
    for g in reversed(gates):
        if g.kind == "single_qubit":
            out.append(Gate.single_qubit(g.targets[0], g.matrix.conj().T))
        elif g.kind == "controlled_phase":
            out.append(Gate.controlled_phase(*g.targets, -g.angle))
        else:  # a swap is its own inverse
            out.append(g)
    return out


def _simplify(gates: Sequence[Gate]) -> list[Gate]:
    """Merge runs of consecutive single-qubit gates on the same slot."""
    out: list[Gate] = []
    for g in gates:
        if out and g.kind == out[-1].kind == "single_qubit" and out[-1].targets == g.targets:
            out[-1] = Gate.single_qubit(g.targets[0], g.matrix @ out[-1].matrix)
        else:
            out.append(g)
    return out


def emit_circuit(N: int, n: int) -> GateList:
    """Lower the n-th map on N qubits to elementary gates.

    Realizes G_{n-1} * Cyc_n * G_n^dag: inverse kernel block on slots
    n+1..N, adjacent swaps for the slot rotation, forward kernel block on
    slots n..N.  Gate count is O(N^2); the n = N case reduces to swaps plus
    one single-qubit gate.
    """
    N, n = _check_map_index(N, n)
    gates = _invert_gates(_antiperiodic_block(range(n + 1, N + 1)))
    gates += [Gate.swap(k, k + 1) for k in range(1, n)]
    forward = _antiperiodic_block(range(n, N + 1))
    # the blocks' scalar phases e^{-i pi/2^(N-n+1)} and e^{i pi/2^(N-n+1)} sum
    # to e^{-i pi/2^(N-n+2)}; the forward block always ends on slot N
    phase = np.exp(-1j * np.pi / (4 << (N - n)))
    forward[-1] = Gate.single_qubit(N, phase * forward[-1].matrix)
    return GateList(N=N, gates=tuple(_simplify(gates + forward)))


def _apply_gate_rows(mat: np.ndarray, gate: Gate) -> np.ndarray:
    """Left-multiply `mat` by the embedding of `gate`, which may overwrite
    `mat`.  The rows of `mat` are indexed by the qubit string, so a reshaped
    view exposes each target slot as an axis of length 2 and the gate acts on
    those axes alone."""
    if gate.kind == "single_qubit":
        shaped = mat.reshape(1 << (gate.targets[0] - 1), 2, -1)
        return np.einsum("ab,ibj->iaj", gate.matrix, shaped).reshape(mat.shape)
    a, b = sorted(gate.targets)
    view = (1 << (a - 1), 2, 1 << (b - a - 1), 2, -1)
    if gate.kind == "swap":
        return mat.reshape(view).swapaxes(1, 3).reshape(mat.shape)
    shaped = mat.reshape(view)  # a copy, not a view, when mat is not C-ordered
    shaped[:, 1, :, 1] *= np.exp(1j * gate.angle)
    return shaped.reshape(mat.shape)


def apply_circuit(amps: np.ndarray, gl: GateList) -> np.ndarray:
    """Run the gates of `gl` in order over an array whose rows are indexed by
    the qubit string: a length-2^N state or a (2^N, k) matrix.  No size cap.
    The entry copy is the only copy of `amps`; the gates may overwrite it."""
    out = np.array(amps, dtype=np.complex128)
    if out.shape[:1] != (1 << gl.N,):
        raise ValueError(f"expected {1 << gl.N} rows for N={gl.N}, got shape {out.shape}")
    for g in gl.gates:
        out = _apply_gate_rows(out, g)
    return out


def circuit_to_matrix(gl: GateList) -> np.ndarray:
    """Dense matrix of a gate list (ordered product of gate embeddings)."""
    if gl.N > DENSE_CAP_N:
        raise ValueError(f"dense circuit evaluation capped at N={DENSE_CAP_N}, got {gl.N}")
    return _check_unitary(apply_circuit(np.eye(1 << gl.N), gl), 1e-10, "circuit matrix")
