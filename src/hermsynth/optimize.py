"""Semantics-preserving circuit rewrite passes.

Every pass keeps the simulated matrix bit-for-bit up to float roundoff and
never touches the global phase. Rules are deliberately conservative: they
only match structurally (literal adjacency, identical target and control
tuples), which is sufficient for the shapes the synthesizer emits.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from itertools import groupby

from .circuit import Circuit, Gate, GateKind, gate_entries
from .matrices import HALF_PI


class OptLevel(Enum):
    NONE = "none"
    BASIC = "basic"
    FULL = "full"


def _same_site(g1: Gate, g2: Gate) -> bool:
    return g1.target == g2.target and g1.controls == g2.controls


def _combine(g1: Gate, g2: Gate):
    """Outcome of the adjacent pair (g1 then g2): None cancels, Gate merges,
    False means no rule applies."""
    if g2.kind is not g1.kind.inverse or not _same_site(g1, g2):
        return False
    if not g1.kind.parametric:
        return None
    total = g1.param + g2.param
    return None if total == 0.0 else replace(g1, param=total)


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Remove adjacent inverse pairs and merge adjacent same-axis rotations.

    Handles RY(a)RY(-a), PHASE(a)PHASE(-a), RZ likewise, the self-inverse
    kinds X, Y, Z, H, the S/SDG pair, and sums adjacent same-kind rotation
    angles. Runs to a fixpoint in one forward scan: each gate combines with
    the top of the already-reduced stack for as long as a rule applies.
    """
    out: list[Gate] = []
    for g in circuit.gates:
        while out and (outcome := _combine(out[-1], g)) is not False:
            out.pop()
            if outcome is None:
                break
            g = outcome
        else:
            out.append(g)
    return Circuit(circuit.n_qubits, tuple(out), circuit.global_phase)


def _payload_product(gates) -> tuple[complex, complex, complex, complex]:
    """2x2 product of a time-ordered gate sequence on a shared target."""
    a, b, c, d = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for g in gates:
        e, f, gg, h = gate_entries(g.kind, g.param)
        a, b, c, d = e * a + f * c, e * b + f * d, gg * a + h * c, gg * b + h * d
    return a, b, c, d


# Well below the 1e-12 matrix-preservation budget but far above the roundoff
# of exact inverse pairs (~1e-15), so a strip never moves the simulation.
_IDENTITY_EPS = 1e-13


def _is_identity_2x2(m: tuple[complex, complex, complex, complex]) -> bool:
    a, b, c, d = m
    return (
        abs(a - 1.0) <= _IDENTITY_EPS
        and abs(b) <= _IDENTITY_EPS
        and abs(c) <= _IDENTITY_EPS
        and abs(d - 1.0) <= _IDENTITY_EPS
    )


def _mul_2x2(left, right):
    a, b, c, d = left
    e, f, g, h = right
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _strip_run(run: list[Gate]) -> list[Gate] | None:
    """Strip the controls of one conjugate pair around a controlled diagonal.

    ``run`` is a contiguous window with identical nonempty controls and
    target. For each maximal block of diagonal kinds taken as the pivot,
    the surrounding payloads A (after) and B (before) are tested for
    A.B = I on the target; if so their controls are redundant, since
    control-off states see A.B = I either way.
    """
    k = 0
    while k < len(run):
        if not run[k].kind.diagonal:
            k += 1
            continue
        lo = k
        while k < len(run) and run[k].kind.diagonal:
            k += 1
        hi = k  # run[lo:hi] is diagonal
        before, after = run[:lo], run[hi:]
        if not before and not after:
            continue
        if _is_identity_2x2(_mul_2x2(_payload_product(after), _payload_product(before))):
            return (
                [replace(g, controls=()) for g in before]
                + run[lo:hi]
                + [replace(g, controls=()) for g in after]
            )
    return None


def strip_conjugate_controls(circuit: Circuit) -> Circuit:
    """Remove redundant controls from conjugate pairs around controlled diagonals."""
    out: list[Gate] = []
    for (_, controls), run in groupby(circuit.gates, key=lambda g: (g.target, g.controls)):
        run = list(run)
        # a single gate has nothing on either side of its diagonal block
        stripped = _strip_run(run) if controls and len(run) > 1 else None
        out.extend(stripped or run)
    return Circuit(circuit.n_qubits, tuple(out), circuit.global_phase)


def rewrite_cz_cnot(circuit: Circuit, target_lib: str) -> Circuit:
    """Convert controlled Z gates to controlled X (or back) via RY conjugation.

    Z = RY(pi/2) X RY(-pi/2) as matrices, so a k-controlled Z becomes, in
    time order, RY(-pi/2) on the target, the k-controlled X, RY(pi/2); the
    reverse rewrite uses the inverse conjugation. Orientation is fixed by
    requiring the simulated matrix to be preserved exactly. A cancellation
    pass runs afterwards.
    """
    if target_lib not in ("cz", "cnot"):
        raise ValueError(f"target_lib must be 'cz' or 'cnot', got {target_lib!r}")
    out: list[Gate] = []
    for g in circuit.gates:
        if target_lib == "cnot" and g.kind is GateKind.Z and g.controls:
            out.append(Gate(GateKind.RY, g.target, (), -HALF_PI))
            out.append(Gate(GateKind.X, g.target, g.controls))
            out.append(Gate(GateKind.RY, g.target, (), HALF_PI))
        elif target_lib == "cz" and g.kind is GateKind.X and g.controls:
            out.append(Gate(GateKind.RY, g.target, (), HALF_PI))
            out.append(Gate(GateKind.Z, g.target, g.controls))
            out.append(Gate(GateKind.RY, g.target, (), -HALF_PI))
        else:
            out.append(g)
    return cancel_adjacent_inverses(
        Circuit(circuit.n_qubits, tuple(out), circuit.global_phase)
    )


def optimize(circuit: Circuit, level: OptLevel = OptLevel.FULL) -> Circuit:
    """None: identity. Basic: cancellation/merge. Full: control stripping
    plus cancellation, iterated to a fixpoint.

    Cancellation's output has no adjacent pair left to combine, so once a
    strip pass leaves a cancelled circuit unchanged, cancelling again would
    too, and the loop stops there. The input is not known to be cancelled,
    so the first round always runs both passes.
    """
    if level is OptLevel.NONE:
        return circuit
    if level is OptLevel.BASIC:
        return cancel_adjacent_inverses(circuit)
    current = cancel_adjacent_inverses(strip_conjugate_controls(circuit))
    if current.gates == circuit.gates:
        return current
    while (stripped := strip_conjugate_controls(current)).gates != current.gates:
        current = cancel_adjacent_inverses(stripped)
    return current
