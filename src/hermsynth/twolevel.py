"""Two-level rotations as multi-controlled gates, and the full synthesizer.

A rotation at basis states (p, q) whose binary forms differ in one bit is
exactly one multi-controlled gate. For larger Hamming distance, a ladder of
multi-controlled NOTs walks p along a gray-code path to a neighbor of q,
the controlled rotation fires on that pair, and the ladder unwinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .circuit import Circuit, Gate, GateKind, counts, invert_gates, simulate
from .diagonal import synthesize_sign_diagonal
from .errors import IndexOutOfRange, VerificationFailed
from .jacobi import JacobiResult, RotationStep, diagonalize
from .matrices import DEFAULT_TOLERANCES, max_abs_diff
from .optimize import OptLevel, optimize


@dataclass(frozen=True)
class SynthesisReport:
    gate_counts: dict[str, int]
    sweeps: int
    rotations_executed: int
    sweep_rotations: tuple[int, ...]  # rotations in each sweep, first to last
    sweep_residuals: tuple[float, ...]  # off-diagonal norm after each sweep
    residual_offnorm: float
    verify_error: float
    opt_level: OptLevel


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


@cache
def _controls(state: int, target: int, n: int) -> tuple[tuple[int, bool], ...]:
    """Every qubit but ``target``, controlled on its bit in ``state``."""
    return tuple((qb, bool((state >> (n - 1 - qb)) & 1)) for qb in range(n) if qb != target)


@cache
def _full_x(state: int, qubit: int, n: int) -> Gate:
    """The X on ``qubit`` controlled on every other bit of ``state``."""
    return Gate(GateKind.X, qubit, _controls(state, qubit, n))


def emit_two_level(step: RotationStep, n: int) -> tuple[Gate, ...]:
    """Time-ordered gates whose simulation is exactly the Q' embedding of the step.

    The ladder moves |p> to the path state g adjacent to |q>; the controlled
    RY/PHASE pair acts on (g, q), which differ only at the pivot qubit i (the
    last flip of the path); the ladder unwinds. When q carries a 0 at the
    pivot the controlled gate sees the pair in swapped order, which negates
    theta and, for complex pivots, requires conjugating the phase gate with
    the pivot transposition.

    Every control tuple and every X gate (the ladder's and the swapped
    orientation's ``flip``) is built once per (state, qubit, n) and then
    shared by all steps and circuits: ``Gate`` is frozen, so a shared object
    is safe, and it was validated once when it was built. The two caches
    hold at most n * 2^n entries each per qubit count.
    """
    states = gray_path(step.p, step.q, n)
    flips = [n - 1 - ((a ^ b).bit_length() - 1) for a, b in zip(states, states[1:])]
    ladder = tuple(_full_x(s, qb, n) for s, qb in zip(states, flips[:-1]))
    i = flips[-1]
    controls = _controls(step.q, i, n)
    if (step.q >> (n - 1 - i)) & 1:
        core = (Gate(GateKind.RY, i, controls, step.theta),)
        if step.alpha:
            core += (Gate(GateKind.PHASE, i, controls, -step.alpha),)
    else:
        # swapped orientation: the ladder parked |p> on the pivot-1 state
        core = (Gate(GateKind.RY, i, controls, -step.theta),)
        if step.alpha:
            flip = _full_x(step.q, i, n)
            core += (flip, Gate(GateKind.PHASE, i, controls, -step.alpha), flip)
    return ladder + core + ladder[::-1]


def _assemble(result: JacobiResult, n: int) -> Circuit:
    """W^dagger, the sign diagonal, then W: the forward factors of the steps
    in reverse order, each step emitted once."""
    diag_gates, phase = synthesize_sign_diagonal(result.signs)
    forward = tuple(g for step in reversed(result.steps) for g in emit_two_level(step, n))
    return Circuit(n, invert_gates(forward) + diag_gates + forward, global_phase=phase)


def verify_circuit(circuit: Circuit, h) -> float:
    """Max entrywise deviation of the simulated circuit from ``h``.

    Raises VerificationFailed if it exceeds verify_tol (which would indicate
    a bug, not a property of the input).
    """
    error = max_abs_diff(simulate(circuit), h)
    if error > DEFAULT_TOLERANCES.verify_tol:
        raise VerificationFailed(error)
    return error


def build_circuit(
    h, opt_level: OptLevel = OptLevel.FULL, max_sweeps: int = 30
) -> tuple[Circuit, JacobiResult]:
    """The first step of :func:`synthesize`: diagonalize ``h``, assemble the
    circuit and optimize it. The circuit is not yet verified."""
    result = diagonalize(h, max_sweeps)
    n = len(result.signs).bit_length() - 1
    return optimize(_assemble(result, n), opt_level), result


def verified_report(
    circuit: Circuit, h, result: JacobiResult, opt_level: OptLevel
) -> SynthesisReport:
    """The second step of :func:`synthesize`: verify ``circuit`` against
    ``h`` with :func:`verify_circuit` and report on it."""
    return SynthesisReport(
        gate_counts=counts(circuit),
        sweeps=result.sweeps,
        rotations_executed=len(result.steps),
        sweep_rotations=result.sweep_rotations,
        sweep_residuals=result.sweep_residuals,
        residual_offnorm=result.residual,
        verify_error=verify_circuit(circuit, h),
        opt_level=opt_level,
    )


def synthesize(
    h, opt_level: OptLevel = OptLevel.FULL, max_sweeps: int = 30
) -> tuple[Circuit, SynthesisReport]:
    """Decompose a Hermitian unitary into a gate circuit and verify it:
    :func:`build_circuit`, then :func:`verified_report`."""
    circuit, result = build_circuit(h, opt_level, max_sweeps)
    return circuit, verified_report(circuit, h, result, opt_level)
