"""Two-level rotations as multi-controlled gates, and the full synthesizer.

A rotation at basis states (p, q) whose binary forms differ in one bit is
exactly one multi-controlled gate. For larger Hamming distance, a ladder of
multi-controlled NOTs walks p along a gray-code path to a neighbor of q,
the controlled rotation fires on that pair, and the ladder unwinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

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


def _site_run(gates) -> int:
    """Length of the leading run of ``gates`` on one site (target and controls)."""
    end = min(len(gates), 1)
    while end < len(gates) and (gates[end].target, gates[end].controls) == (
        gates[0].target, gates[0].controls
    ):
        end += 1
    return end


def build_circuit(
    h, opt_level: OptLevel = OptLevel.FULL, max_sweeps: int = 30
) -> tuple[Circuit, JacobiResult]:
    """The first step of :func:`synthesize`: diagonalize ``h``, then build
    W^dagger D W, optimized, from the forward half. The circuit is not yet
    verified.

    W is the forward factors of the steps in reverse order, each step
    emitted once, and D the sign diagonal. ``optimize`` runs on W alone,
    giving head + rest with ``head`` its leading run on one site. A pass
    over W^dagger D W only combines neighbouring gates on one site, so it
    can reach across the centre only within invert_gates(head) D head:
    every gate of W carries n-1 controls and W holds no Z, while D holds
    only Z, so no gate of ``rest`` shares a site with the window's ends or
    combines with D. That window is optimized once more as the centre,
    and the circuit is invert_gates(rest) + centre + rest. When the centre
    cancels away (D is empty), invert_gates(rest) meets rest and cancels
    gate for gate, so the circuit is empty.
    """
    result = diagonalize(h, max_sweeps)
    n = len(result.signs).bit_length() - 1
    diag_gates, phase = synthesize_sign_diagonal(result.signs)
    forward = tuple(g for step in reversed(result.steps) for g in emit_two_level(step, n))
    half = optimize(Circuit(n, forward), opt_level).gates
    split = _site_run(half)
    head, rest = half[:split], half[split:]
    centre = optimize(Circuit(n, invert_gates(head) + diag_gates + head), opt_level).gates
    gates = invert_gates(rest) + centre + rest if centre else ()
    return Circuit(n, gates, global_phase=phase), result


def mirror_depth(gates) -> int:
    """The number k of leading gates that literally mirror the trailing
    ones: for every i < k, ``gates[i]`` has the inverse kind, the same
    target and controls, and the negated angle of ``gates[-1-i]``. The
    first k gates then multiply to the inverse of the last k exactly."""
    last = len(gates) - 1
    k = 0
    while k < last - k:
        a, b = gates[k], gates[last - k]
        if (
            a.kind is not b.kind.inverse
            or a.target != b.target
            or a.controls != b.controls
            or (a.kind.parametric and a.param != -b.param)
        ):
            break
        k += 1
    return k


def mirror_matrix(circuit: Circuit, k: int) -> np.ndarray:
    """phase M C M^H, with M the simulated last k gates and C the gates
    between the first k and the last k. When ``k`` is at most
    :func:`mirror_depth` of the gates, this is the circuit's matrix up to
    roundoff. A centre of diagonal kinds is applied as a column scaling."""
    gates, n = circuit.gates, circuit.n_qubits
    cut = len(gates) - k
    m = simulate(Circuit(n, gates[cut:]))
    centre = gates[k:cut]
    c = simulate(Circuit(n, centre, circuit.global_phase))
    if all(g.kind.diagonal for g in centre):
        return (m * c.diagonal()) @ m.conj().T
    return (m @ c) @ m.conj().T


# The mirror route simulates len(gates) - k gates instead of len(gates),
# and pays for it with one dense N x N product (two when the centre is not
# diagonal). Measured on synthesized circuits cut to shorter mirrored
# windows (2-core x86_64 host), it broke even at about 45, 110, 540,
# 3000-5000 and 9000-15000 gates at n = 5..9, that is at N^3 / 2^9.5,
# 2^11, 2^12, 2^12 and 2^13.4. The route is taken from
# len(gates) << _MIRROR_SHIFT >= N^3 on: from 512 gates at n = 7 and
# 4096 at n = 8.
_MIRROR_SHIFT = 12


def circuit_error(circuit: Circuit, h) -> float:
    """Max entrywise deviation of the circuit's matrix from ``h``.

    A circuit large for its size whose leading gates mirror its trailing
    ones (:func:`mirror_depth`), such as W^dagger D W, is computed by
    :func:`mirror_matrix`; any other is simulated whole.
    """
    gates = circuit.gates
    big = len(gates) << _MIRROR_SHIFT >= 1 << 3 * circuit.n_qubits
    k = mirror_depth(gates) if big else 0
    return max_abs_diff(mirror_matrix(circuit, k) if k else simulate(circuit), h)


def verify_circuit(circuit: Circuit, h) -> float:
    """:func:`circuit_error` of the circuit against ``h``.

    Raises VerificationFailed if it exceeds verify_tol (which would indicate
    a bug, not a property of the input).
    """
    error = circuit_error(circuit, h)
    if error > DEFAULT_TOLERANCES.verify_tol:
        raise VerificationFailed(error)
    return error


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
