"""Two-level rotations as multi-controlled gates, and the full synthesizer.

A rotation at basis states (p, q) whose binary forms differ in one bit is
exactly one multi-controlled gate. For larger Hamming distance, a ladder of
multi-controlled NOTs walks p along a gray-code path to a neighbor of q,
the controlled rotation fires on that pair, and the ladder unwinds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, counts, invert_gates, simulate
from .diagonal import synthesize_sign_diagonal
from .errors import IndexOutOfRange, VerificationFailed
from .jacobi import JacobiResult, RotationStep, diagonalize
from .matrices import DEFAULT_TOLERANCES, Tolerances, as_matrix, max_abs_diff
from .optimize import OptLevel, optimize


@dataclass(frozen=True)
class SynthesisReport:
    gate_counts: dict[str, int]
    sweeps: int
    rotations_executed: int
    residual_offnorm: float
    verify_error: float
    opt_level: OptLevel


def target_control_to_states(i: int, j: int, n: int) -> tuple[int, int]:
    """Basis-state pair acted on by a gate with target i and control string j.

    The pair is obtained by inserting a 0 (respectively 1) at bit position i
    of j, counting from the most significant bit.
    """
    if not (0 <= i < n):
        raise IndexOutOfRange(f"target {i} outside {n}-qubit register")
    if not (0 <= j < 1 << (n - 1)):
        raise IndexOutOfRange(f"control value {j} outside {n - 1} bits")
    low_bits = n - 1 - i
    high = j >> low_bits
    low = j & ((1 << low_bits) - 1)
    a = (high << (low_bits + 1)) | low
    return a, a | (1 << low_bits)


def states_to_target_control(p: int, q: int, n: int) -> tuple[int, int] | None:
    """Inverse of the above; None unless p and q differ in exactly one bit."""
    if not (0 <= p < q < 1 << n):
        raise IndexOutOfRange(f"need 0 <= p < q < 2^{n}, got ({p}, {q})")
    diff = p ^ q
    if diff & (diff - 1):
        return None
    bpos = diff.bit_length() - 1
    i = n - 1 - bpos
    j = ((p >> (bpos + 1)) << bpos) | (p & ((1 << bpos) - 1))
    return i, j


def gray_path(p: int, q: int, n: int) -> tuple[int, ...]:
    """Basis states from p to q, consecutive entries differing in one bit.

    Differing bits flip from the most significant down, so the final
    transition flips the least significant differing bit (the pivot)."""
    if not (0 <= p < q < 1 << n):
        raise IndexOutOfRange(f"need 0 <= p < q < 2^{n}, got ({p}, {q})")
    diff = p ^ q
    states = [p]
    current = p
    for bpos in reversed(range(n)):
        if (diff >> bpos) & 1:
            current ^= 1 << bpos
            states.append(current)
    return tuple(states)


def _transposition(state: int, flipped_qubit: int, n: int) -> Gate:
    """Multi-controlled X swapping ``state`` with its neighbor at one bit."""
    controls = tuple(
        (qb, bool((state >> (n - 1 - qb)) & 1)) for qb in range(n) if qb != flipped_qubit
    )
    return Gate(GateKind.X, flipped_qubit, controls)


def emit_two_level(step: RotationStep, n: int) -> tuple[Gate, ...]:
    """Time-ordered gates whose simulation is exactly the Q' embedding of the step.

    The ladder moves |p> to the path state g adjacent to |q>; the controlled
    RY/PHASE pair acts on (g, q); the ladder unwinds. When q carries a 0 in
    the pivot bit the controlled gate sees the pair in swapped order, which
    negates theta and, for complex pivots, requires conjugating the phase
    gate with the pivot transposition.
    """
    if step.q >= 1 << n:
        raise IndexOutOfRange(f"step ({step.p}, {step.q}) outside {n} qubits")
    states = gray_path(step.p, step.q, n)
    ladder = []
    for k in range(len(states) - 2):
        cur, nxt = states[k], states[k + 1]
        flipped = n - 1 - ((cur ^ nxt).bit_length() - 1)
        ladder.append(_transposition(cur, flipped, n))

    g_state, q_state = states[-2], states[-1]
    a, b = min(g_state, q_state), max(g_state, q_state)
    pair = states_to_target_control(a, b, n)
    assert pair is not None
    i, _ = pair
    controls = tuple((qb, bool((a >> (n - 1 - qb)) & 1)) for qb in range(n) if qb != i)

    core: list[Gate] = []
    if q_state == b:
        core.append(Gate(GateKind.RY, i, controls, step.theta))
        if step.has_phase:
            core.append(Gate(GateKind.PHASE, i, controls, -step.alpha))
    else:
        # swapped orientation: the ladder parked |p> on the pivot-1 state
        core.append(Gate(GateKind.RY, i, controls, -step.theta))
        if step.has_phase:
            flip = Gate(GateKind.X, i, controls)
            core.extend([flip, Gate(GateKind.PHASE, i, controls, -step.alpha), flip])
    return tuple(ladder) + tuple(core) + tuple(reversed(ladder))


def _assemble(result: JacobiResult, n: int) -> Circuit:
    """Inverse factors of each step, the sign diagonal, then forward factors."""
    diag_gates, phase = synthesize_sign_diagonal(result.signs)
    gates: list[Gate] = []
    for step in result.steps:
        gates.extend(invert_gates(emit_two_level(step, n)))
    gates.extend(diag_gates)
    for step in reversed(result.steps):
        gates.extend(emit_two_level(step, n))
    return Circuit(n, tuple(gates), global_phase=phase)


def verify_circuit(circuit: Circuit, h, tol: Tolerances | None = None) -> float:
    """Max entrywise deviation of the simulated circuit from ``h``.

    Raises VerificationFailed if it exceeds verify_tol (which would indicate
    a bug, not a property of the input).
    """
    tol = tol or DEFAULT_TOLERANCES
    error = max_abs_diff(simulate(circuit), h)
    if error > tol.verify_tol:
        raise VerificationFailed(error)
    return error


def synthesize(
    h,
    tol: Tolerances | None = None,
    opt_level: OptLevel = OptLevel.FULL,
    max_sweeps: int = 30,
) -> tuple[Circuit, SynthesisReport]:
    """Decompose a Hermitian unitary into a gate circuit and verify it
    with :func:`verify_circuit`."""
    tol = tol or DEFAULT_TOLERANCES
    m = as_matrix(h)
    result = diagonalize(m, tol, max_sweeps)
    n = m.shape[0].bit_length() - 1
    circuit = optimize(_assemble(result, n), opt_level)
    report = SynthesisReport(
        gate_counts=counts(circuit),
        sweeps=result.sweeps,
        rotations_executed=len(result.steps),
        residual_offnorm=result.residual,
        verify_error=verify_circuit(circuit, m, tol),
        opt_level=opt_level,
    )
    return circuit, report
