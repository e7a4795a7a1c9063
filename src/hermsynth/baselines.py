"""Closed-form decompositions of controlled single-qubit Hermitian gates.

Any 2x2 Hermitian unitary other than +/-I can be written with full angles as

    [[cos t, e^{-i a} sin t], [e^{i a} sin t, -cos t]],  t in [0, pi].

Note the full-angle / half-angle split: the RY gates below take the same
number t as their argument but apply cos(t/2) internally; the identity
RY(-t) Z RY(t) reproduces the full-angle matrix above, which is what makes
the conjugation forms work without a factor-2 slip.

Three decompositions are provided: conjugated rotations around a controlled
Z (the native form produced by the Jacobi synthesizer), the classic
CNOT-based ABC conjugation (Barenco et al., Lemma 5.5), and the quantum
Shannon / multiplexer form (QSD). Closed-form gate-count formulas for the
multi-controlled case round out the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, gate_matrix, invert_gates
from .errors import IsPlusMinusIdentity, NotHermitianUnitary
from .matrices import DEFAULT_TOLERANCES, HALF_PI, as_matrix, is_hermitian, is_unitary

_ANGLE_EPS = 1e-12


@dataclass(frozen=True)
class H2Params:
    """Full-angle parameters (theta in [0, pi], alpha) of a 2x2 Hermitian unitary."""

    theta: float
    alpha: float


def h2_matrix(theta: float, alpha: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    e = complex(math.cos(alpha), math.sin(alpha))
    return np.array([[c, s * e.conjugate()], [s * e, -c]], dtype=complex)


def h2_params(u) -> H2Params:
    """Extract (theta, alpha) from a 2x2 Hermitian unitary other than +/-I."""
    tol = DEFAULT_TOLERANCES
    m = as_matrix(u)
    if m.shape != (2, 2):
        raise NotHermitianUnitary(f"expected a 2x2 matrix, got {m.shape}")
    if not is_hermitian(m):
        raise NotHermitianUnitary("matrix is not Hermitian")
    if not is_unitary(m):
        raise NotHermitianUnitary("matrix is not unitary")
    eye = np.eye(2)
    if np.max(np.abs(m - eye)) <= tol.sign_tol:
        raise IsPlusMinusIdentity(1)
    if np.max(np.abs(m + eye)) <= tol.sign_tol:
        raise IsPlusMinusIdentity(-1)
    theta = math.acos(min(1.0, max(-1.0, m[0, 0].real)))
    u10 = complex(m[1, 0])
    alpha = math.atan2(u10.imag, u10.real) if abs(u10) > tol.zero_tol else 0.0
    return H2Params(theta, alpha)


def _outer(target: int, alpha: float, tilt: float) -> tuple[Gate, ...]:
    """B of a B D B^-1 form: PHASE(-alpha) then RY(tilt), uncontrolled on
    ``target``, each dropped when its angle is within _ANGLE_EPS of zero."""
    gates: tuple[Gate, ...] = ()
    if abs(alpha) > _ANGLE_EPS:
        gates += (Gate(GateKind.PHASE, target, (), -alpha),)
    if abs(tilt) > _ANGLE_EPS:
        gates += (Gate(GateKind.RY, target, (), tilt),)
    return gates


def jacobi_cu(params: H2Params, k: int) -> Circuit:
    """Controlled Hermitian gate as rotations conjugating one C^k Z, on
    k + 1 wires: positive controls on wires 0..k-1, the target on wire k.

    Produces, in time order, PHASE(-alpha), RY(theta), C^k Z, RY(-theta),
    PHASE(alpha): B D B^-1 with B the outer single-qubit gates, uncontrolled
    (the two sides are mutual inverses, so control-off states cancel). Zero
    angles are dropped; C Z alone comes back for diag(1, -1).
    """
    if k < 0:
        raise ValueError("control count must be nonnegative")
    outer = _outer(k, params.alpha, params.theta)
    centre = Gate(GateKind.Z, k, tuple((q, True) for q in range(k)))
    return Circuit(k + 1, outer + (centre,) + invert_gates(outer))


def barenco_cu(params: H2Params) -> Circuit:
    """CNOT-based conjugation on two qubits (control 0, target 1).

    Time order: PHASE(-alpha), RY(theta - pi/2), CNOT, RY(pi/2 - theta),
    PHASE(alpha) on the target, a B D B^-1 form with D the CNOT. The ABC
    form's pair RZ(-alpha), RZ(alpha) is this PHASE pair times the global
    phases e^{i alpha/2} and e^{-i alpha/2}, which cancel, so the identity
    is phase exact.
    """
    outer = _outer(1, params.alpha, params.theta - HALF_PI)
    centre = Gate(GateKind.X, 1, ((0, True),))
    return Circuit(2, outer + (centre,) + invert_gates(outer))


_NAMED_REAL = (GateKind.H, GateKind.X, GateKind.Z)


def _real_literal(theta: float) -> list[Gate]:
    """The full-angle matrix with alpha = 0 as a named gate or a short expansion."""
    m = h2_matrix(theta, 0.0)
    for kind in _NAMED_REAL:
        if np.max(np.abs(m - gate_matrix(kind))) <= _ANGLE_EPS:
            return [Gate(kind, 1)]
    # h2(theta, 0) = Z . RY(2 theta) as matrices
    return [Gate(GateKind.RY, 1, (), 2.0 * theta), Gate(GateKind.Z, 1)]


def qsd_cu(params: H2Params) -> Circuit:
    """Single-select-qubit multiplexer form on two qubits (control 0, target 1).

    The middle diag(S, S^dag) block expands into two CNOTs with control on
    the target wire plus PHASE corrections on the control wire (S is
    PHASE(pi/2); the textbook form's pair RZ(-3pi/2), RZ(3pi/2) is this
    PHASE pair up to global phases that cancel). For a real gate the
    leading literal is kept; a complex off-diagonal folds the literal and
    the trailing S into the phase corrections via
    S RY(t) PHASE(-a) h2(t, a) = PHASE(-pi/2) RY(t) PHASE(-a).
    """
    theta, alpha = params.theta, params.alpha
    phased = abs(alpha) > _ANGLE_EPS
    rotated = abs(theta) > _ANGLE_EPS
    gates: list[Gate] = []
    if phased:
        gates.append(Gate(GateKind.PHASE, 1, (), -alpha))
        if rotated:
            gates.append(Gate(GateKind.RY, 1, (), theta))
        gates.append(Gate(GateKind.PHASE, 1, (), -HALF_PI))
    else:
        gates.extend(_real_literal(theta))
        if rotated:
            gates.append(Gate(GateKind.RY, 1, (), theta))
        gates.append(Gate(GateKind.PHASE, 1, (), HALF_PI))
    cnot_up = Gate(GateKind.X, 0, ((1, True),))
    gates.append(cnot_up)
    gates.append(Gate(GateKind.PHASE, 0, (), -1.5 * math.pi))
    gates.append(cnot_up)
    if rotated:
        gates.append(Gate(GateKind.RY, 1, (), -theta))
    if phased:
        gates.append(Gate(GateKind.PHASE, 1, (), alpha))
    gates.append(Gate(GateKind.PHASE, 0, (), 1.5 * math.pi))
    return Circuit(2, tuple(gates))


# Multi-controlled C^{n-2} U gate counts (CZ plus single-qubit gates) after
# expanding the controlled NOTs with one borrowed ancilla, as closed-form
# functions of the total qubit count n.
_FORMULAS = {
    "jacobi": (lambda n: 24 * n - 48, lambda n: 24 * n - 70),
    "barenco": (lambda n: 48 * n - 214, lambda n: 48 * n - 212),
}

# Reference counts as reported for this comparison. The jacobi CZ entries at
# n = 7 and 8 disagree with the 24n - 48 closed form (which gives 120 and
# 144); both are exposed and the discrepancy is left unreconciled.
TABULATED_MCU_COUNTS = {
    ("jacobi", 7): (84, 98),
    ("jacobi", 8): (108, 122),
    ("jacobi", 9): (168, 146),
    ("barenco", 7): (122, 124),
    ("barenco", 8): (170, 172),
    ("barenco", 9): (218, 220),
}


def formula_mcu_counts(n: int, method: str) -> tuple[int, int]:
    """Closed-form (two-qubit, single-qubit) counts for a C^{n-2} U gate."""
    if n < 5:
        raise ValueError(f"formulas hold for n >= 5, got {n}")
    if method not in _FORMULAS:
        raise ValueError(f"method must be one of {sorted(_FORMULAS)}, got {method!r}")
    two_qubit, single = _FORMULAS[method]
    return two_qubit(n), single(n)
