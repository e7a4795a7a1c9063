"""Synthesis of Hermitian unitary matrices into elementary quantum-gate circuits.

The pipeline: complex Jacobi rotations diagonalize a Hermitian unitary into
an ordered rotation log plus a +/-1 sign diagonal; each rotation becomes
multi-controlled RY/PHASE gates via gray-code ladders; the diagonal becomes
multi-controlled Z gates through its GF(2) normal form; rewrite passes
strip redundant controls and cancel inverse pairs. Everything is verified
by dense simulation.

Bit convention throughout: qubit 0 is the MOST significant bit of a
basis-state index (the top wire).
"""

from . import errors
from .baselines import (
    H2Params,
    TABULATED_MCU_COUNTS,
    barenco_cu,
    formula_mcu_counts,
    h2_matrix,
    h2_params,
    jacobi_cu,
    qsd_cu,
)
from .circuit import (
    Circuit,
    Gate,
    GateKind,
    counts,
    gate_matrix,
    load_circuit,
    parse as parse_circuit,
    save_circuit,
    serialize as serialize_circuit,
    simulate,
)
from .diagonal import synthesize_sign_diagonal
from .jacobi import (
    JacobiResult,
    RotationStep,
    diagonalize,
    rotation_params,
    snap_signs,
)
from .matrices import (
    DEFAULT_TOLERANCES,
    Tolerances,
    format_matrix,
    is_hermitian,
    is_unitary,
    load_matrix,
    max_abs_diff,
    off_norm,
    parse_matrix,
    save_matrix,
)
from .optimize import (
    OptLevel,
    cancel_adjacent_inverses,
    optimize,
    rewrite_cz_cnot,
    strip_conjugate_controls,
)
from .twolevel import (
    SynthesisReport,
    emit_two_level,
    gray_path,
    synthesize,
)

__version__ = "0.1.0"
