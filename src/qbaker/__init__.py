"""Quantum baker's maps as shifts on a finite qubit string.

Builds the family of maps that move the dot through the symbolic label of a
partially Fourier-transformed qubit basis, together with the exact classical
symbolic dynamics they mirror: dense operators by two cross-checked routes, a
fast structured apply, verified gate-list lowering, and localization,
entanglement, and spectral diagnostics.
"""

from .lattice import (
    Dimensions,
    DotLabel,
    PhasePoint,
    bits_to_index,
    index_to_bits,
    iter_labels,
    label_cell,
    momentum_eigenvalue,
    position_eigenvalue,
)
from .classical import (
    SymbolString,
    decode,
    embed_label,
    geometric_baker,
    label_shift,
    shift,
)
from .qfourier import (
    StateVector,
    antiperiodic_dft,
    apply_partial_transform,
    basis_state,
    displacement_u,
    displacement_v,
    dot_state_product,
    dot_state_transform,
    partial_transform,
    statevector,
    unitarity_defect,
)
from .bakermap import (
    Gate,
    GateList,
    apply_baker_fast,
    apply_circuit,
    baker_composed,
    baker_from_basis_map,
    circuit_to_matrix,
    cyclic_shift_operator,
    emit_circuit,
    iterate,
    last_qubit_unitary,
)
from .analysis import (
    CorrespondenceStep,
    LocalizationReport,
    SpectrumReport,
    check_strict_localization,
    correspondence_trajectory,
    eigenphases,
    max_contiguous_cut_entropy,
    position_support,
    schmidt_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "Dimensions",
    "DotLabel",
    "PhasePoint",
    "SymbolString",
    "StateVector",
    "Gate",
    "GateList",
    "LocalizationReport",
    "SpectrumReport",
    "CorrespondenceStep",
    "position_eigenvalue",
    "momentum_eigenvalue",
    "bits_to_index",
    "index_to_bits",
    "label_cell",
    "iter_labels",
    "decode",
    "shift",
    "geometric_baker",
    "label_shift",
    "embed_label",
    "statevector",
    "basis_state",
    "unitarity_defect",
    "antiperiodic_dft",
    "partial_transform",
    "apply_partial_transform",
    "dot_state_transform",
    "dot_state_product",
    "displacement_u",
    "displacement_v",
    "cyclic_shift_operator",
    "baker_from_basis_map",
    "baker_composed",
    "last_qubit_unitary",
    "apply_baker_fast",
    "iterate",
    "emit_circuit",
    "apply_circuit",
    "circuit_to_matrix",
    "position_support",
    "check_strict_localization",
    "schmidt_entropy",
    "max_contiguous_cut_entropy",
    "eigenphases",
    "correspondence_trajectory",
]
