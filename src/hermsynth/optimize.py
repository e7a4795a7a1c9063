"""Semantics-preserving circuit rewrite passes.

Every pass keeps the simulated matrix bit-for-bit up to float roundoff and
never touches the global phase. Rules are deliberately conservative: they
only match structurally (literal adjacency, identical target and control
tuples), which is sufficient for the shapes the synthesizer emits.

The strip pass tests a 2x2 payload product for the identity only where it
might be one. Before building the product it applies an exact rejection
test (``_cannot_cancel``), which skips a run only when the product provably
fails the identity test; on dense inputs nearly every run is skipped this
way, since none of them strips.
"""

from __future__ import annotations

import math
from enum import Enum

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
    return None if total == 0.0 else Gate(g1.kind, g1.target, g1.controls, total)


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


# A run whose only RY has an off-diagonal modulus above this is never the
# identity: ten times _IDENTITY_EPS leaves room for the product's roundoff.
_RY_EPS = 1e-12


def _cannot_cancel(gates) -> bool:
    """True only if the payload product of ``gates``, in any order, provably
    fails ``_is_identity_2x2``; False means the product must be built.

    X and Y are antidiagonal and Z, S, SDG, PHASE and RZ diagonal, each with
    unit-modulus nonzero entries, so a product of these kinds is diagonal or
    antidiagonal. In floating point too: where one factor of a 2x2 product
    is such a matrix, every entry of the product is one term plus a finite
    number times an exact 0, so structural zeros stay exact. So:

    - With no RY or H and an odd number of X and Y, the product has exact
      zeros on its diagonal, so ``|a - 1| = 1``: not the identity.
    - With one RY(t) and no H, the product is M1 RY M2 for such products M1
      and M2. An even number of X and Y leaves the off-diagonal entries at
      sin(t/2), an odd number at cos(t/2), each times unit-modulus factors.
      Each factor adds a few ulp of relative error, so an off-diagonal
      modulus above _RY_EPS stays above _IDENTITY_EPS (a run would need
      some 10^14 gates to lose that factor of ten): not the identity.

    Any other run (an H, two RYs, or a modulus at most _RY_EPS, as for RY
    angles near a multiple of 2 pi, or of pi with an odd X/Y count) gets
    the full product test.
    """
    odd = False
    ry = None
    for g in gates:
        kind = g.kind
        if kind.diagonal:
            continue
        if kind is GateKind.X or kind is GateKind.Y:
            odd = not odd
        elif kind is GateKind.RY and ry is None:
            ry = g.param
        else:  # H, or a second RY
            return False
    if ry is None:
        return odd
    half = ry / 2.0  # as gate_entries computes it, so the moduli match
    return abs(math.cos(half) if odd else math.sin(half)) > _RY_EPS


def _strip_run(run: tuple[Gate, ...]) -> list[Gate] | None:
    """Strip the controls of one conjugate pair around a controlled diagonal.

    ``run`` is a contiguous window with identical nonempty controls and
    target. For each maximal block of diagonal kinds taken as the pivot,
    the surrounding payloads A (after) and B (before) are tested for
    A.B = I on the target; if so their controls are redundant, since
    control-off states see A.B = I either way. A block whose payloads
    ``_cannot_cancel`` proves unequal to I is skipped without a product.
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
        if not before and not after or _cannot_cancel(before + after):
            continue
        if _is_identity_2x2(_mul_2x2(_payload_product(after), _payload_product(before))):
            return (
                [Gate(g.kind, g.target, (), g.param) for g in before]
                + list(run[lo:hi])
                + [Gate(g.kind, g.target, (), g.param) for g in after]
            )
    return None


def strip_conjugate_controls(circuit: Circuit) -> Circuit:
    """Remove redundant controls from conjugate pairs around controlled diagonals.

    Runs of neighbouring gates on one site (target and controls) are found
    in place; a run of one gate, or of uncontrolled gates, is kept as it is.
    Each longer run goes to ``_strip_run``, which skips, without building a
    product, every diagonal block whose payloads ``_cannot_cancel`` proves
    unequal to I. That test is exact, so the pass returns the same gates as
    testing every block's product.
    """
    gates = circuit.gates
    count = len(gates)
    out: list[Gate] = []
    start = 0
    while start < count:
        first = gates[start]
        target, controls = first.target, first.controls
        end = start + 1
        while end < count and gates[end].target == target and gates[end].controls == controls:
            end += 1
        if end - start == 1:
            out.append(first)
        else:
            run = gates[start:end]
            out += (controls and _strip_run(run)) or run  # uncontrolled: nothing to strip
        start = end
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
