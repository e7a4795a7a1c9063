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

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    _row_pairs,
    counts,
    gate_entries,
    invert_gates,
    mirror_depth,
    simulate,
)
from .diagonal import synthesize_sign_diagonal
from .errors import IndexOutOfRange, VerificationFailed
from .jacobi import JacobiResult, RotationStep, diagonalize
from .matrices import DEFAULT_TOLERANCES, _blocks, as_matrix, max_abs_diff
# ``optimize`` is the one cancel pass build_circuit runs; bench/tracing.py
# times it under this name.
from .optimize import cancel_adjacent_inverses as optimize, strip_conjugate_controls


@dataclass(frozen=True)
class SynthesisReport:
    gate_counts: dict[str, int]
    sweeps: int
    rotations_executed: int
    sweep_rotations: tuple[int, ...]  # rotations in each sweep, first to last
    sweep_residuals: tuple[float, ...]  # off-diagonal norm after each sweep
    residual_offnorm: float
    verify_error: float


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
def _full_x(state: int, qubit: int, n: int) -> Gate:
    """The X on ``qubit`` controlled on every other qubit's bit in ``state``."""
    controls = tuple((qb, bool((state >> (n - 1 - qb)) & 1)) for qb in range(n) if qb != qubit)
    return Gate(GateKind.X, qubit, controls)


@cache
def _route(p: int, q: int, n: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...], Gate, bool]:
    """The gates of a rotation at (p, q) that do not depend on its angles:
    the ladder, the ladder reversed, ``flip`` (the X at the pivot qubit i,
    controlled on every other bit of q) and whether q has a 1 at i.

    The ladder's X gates are shared through ``_full_x``, which holds at
    most n * 2^n gates per qubit count n.
    """
    states = gray_path(p, q, n)
    flips = [n - 1 - ((a ^ b).bit_length() - 1) for a, b in zip(states, states[1:])]
    ladder = tuple(_full_x(s, qb, n) for s, qb in zip(states, flips[:-1]))
    i = flips[-1]
    return ladder, ladder[::-1], _full_x(q, i, n), bool((q >> (n - 1 - i)) & 1)


def emit_two_level(step: RotationStep, n: int) -> tuple[Gate, ...]:
    """Time-ordered gates whose simulation is exactly the Q' embedding of the step.

    The ladder moves |p> to the path state g adjacent to |q>; the controlled
    RY/PHASE pair acts on (g, q), which differ only at the pivot qubit i (the
    last flip of the path); the ladder unwinds. When q carries a 0 at the
    pivot the controlled gate sees the pair in swapped order, which negates
    theta and, for complex pivots, requires conjugating the phase gate with
    the pivot transposition ``flip``.

    The route of (p, q) (:func:`_route`: the ladder, its reverse, ``flip``
    and the orientation) is built once per (p, q, n) and shared by all
    steps and circuits: ``Gate`` is frozen, so a shared gate is safe, and
    it was validated once when it was built. The memo holds at most
    2^(n-1) (2^n - 1) routes per qubit count n, one per pair, of about
    260-300 bytes each beside the shared X gates (tracemalloc, CPython
    3.11): 496 routes and 130 KB at n = 5, 32,640 routes and 10 MB at
    n = 8. The RY and PHASE cores sit on the site of ``flip`` and are
    built from it by ``Gate._on_site``, which checks only their angles.
    """
    ladder, unwind, flip, upright = _route(step.p, step.q, n)
    if upright:
        core = (flip._on_site(GateKind.RY, step.theta),)
        if step.alpha:
            core += (flip._on_site(GateKind.PHASE, -step.alpha),)
    else:
        # swapped orientation: the ladder parked |p> on the pivot-1 state
        core = (flip._on_site(GateKind.RY, -step.theta),)
        if step.alpha:
            core += (flip, flip._on_site(GateKind.PHASE, -step.alpha), flip)
    return ladder + core + unwind


def _site_run(gates) -> int:
    """Length of the leading run of ``gates`` on one site (target and controls)."""
    end = min(len(gates), 1)
    while end < len(gates) and (gates[end].target, gates[end].controls) == (
        gates[0].target, gates[0].controls
    ):
        end += 1
    return end


def build_circuit(h) -> tuple[Circuit, JacobiResult]:
    """The first step of :func:`synthesize`: :func:`diagonalize` ``h``,
    then :func:`assemble` its steps and signs. The circuit is not yet
    verified."""
    result = diagonalize(h)
    n = len(result.signs).bit_length() - 1
    return assemble(result.steps, result.signs, n), result


def assemble(steps, signs, n: int) -> Circuit:
    """W^dagger D W, optimized, built from its forward half: W is the
    forward factors of ``steps`` in reverse order, each step emitted once,
    and D the sign diagonal of ``signs``. Only ``p``, ``q``, ``theta`` and
    ``alpha`` of a step are read.

    ``optimize``, the cancel pass
    :func:`hermsynth.optimize.cancel_adjacent_inverses`, runs on W alone,
    giving head + rest with ``head`` its leading run on one site. A pass
    over W^dagger D W only combines neighbouring gates on one site, so it
    can reach across the centre only within invert_gates(head) D head:
    every gate of W carries n-1 controls and W holds no Z, while D holds
    only Z, so no gate of ``rest`` shares a site with the window's ends or
    combines with D. That window goes through
    :func:`strip_conjugate_controls`, the one place the rule has matched
    (see :mod:`hermsynth.optimize`): with ``head`` a rotation core and D
    one Z on its site, C^k U gets the paper's uncontrolled rotations. The
    window is then optimized once more as the centre, and the circuit is
    invert_gates(rest) + centre + rest. When the centre cancels away (D is
    empty), invert_gates(rest) meets rest and cancels gate for gate, so
    the circuit is empty.
    """
    diag_gates, phase = synthesize_sign_diagonal(signs)
    forward = tuple(g for step in reversed(steps) for g in emit_two_level(step, n))
    half = optimize(Circuit(n, forward)).gates
    split = _site_run(half)
    head, rest = half[:split], half[split:]
    window = strip_conjugate_controls(Circuit(n, invert_gates(head) + diag_gates + head))
    centre = optimize(window).gates
    gates = invert_gates(rest) + centre + rest if centre else ()
    return Circuit(n, gates, global_phase=phase)


def _diagonal(gates, n: int, phase: complex) -> np.ndarray:
    """The diagonal of ``simulate(Circuit(n, gates, phase))`` for gates of
    diagonal kinds, bit for bit, as a vector.

    Each gate scales the entries of its rows j by its entry u11 with the
    product ``simulate`` uses, u11 times an array, and the phase scales
    the result as in ``simulate``, phase times an array: numpy rounds a
    product of two scalars, and one with its operands swapped,
    differently."""
    d = np.ones(1 << n, dtype=complex)
    for gate in gates:
        j = _row_pairs(gate.target, gate.controls, n)[1]
        if type(j) is int:
            j = slice(j, j + 1)
        d[j] = gate_entries(gate.kind, gate.param)[3] * d[j]
    return phase * d


def mirror_matrix(circuit: Circuit, k: int) -> np.ndarray:
    """phase M C M^H, with M the simulated last k gates and C the gates
    between the first k and the last k. When ``k`` is at most
    :func:`mirror_depth` of the gates, this is the circuit's matrix up to
    roundoff. A k outside 0..len(gates) // 2 raises ValueError.

    A centre of diagonal kinds is the vector d = phase diag(C)
    (:func:`_diagonal`), and the product M diag(d) M^H is formed one block
    of M's nonzero pattern at a time (:func:`hermsynth.matrices._blocks`),
    batched by block size, with exact zeros between blocks: there every
    term of the product is an exact zero. An M of one block, such as the
    half of any dense synthesized circuit, takes the whole product, and
    any other centre is simulated and multiplied whole."""
    gates, n = circuit.gates, circuit.n_qubits
    if not 0 <= k <= len(gates) // 2:
        raise ValueError(f"need 0 <= k <= {len(gates) // 2}, got {k}")
    cut = len(gates) - k
    m = simulate(Circuit(n, gates[cut:]))
    centre = gates[k:cut]
    if not all(g.kind.diagonal for g in centre):
        return (m @ simulate(Circuit(n, centre, circuit.global_phase))) @ m.conj().T
    d = _diagonal(centre, n, circuit.global_phase)
    blocks = _blocks(m)
    if blocks is None:
        return (m * d) @ m.conj().T
    out = np.zeros_like(m)
    for idx in blocks:
        rows, cols = idx[:, :, None], idx[:, None, :]
        b = m[rows, cols]
        out[rows, cols] = (b * d[cols]) @ b.conj().transpose(0, 2, 1)
    return out


# The mirror route simulates len(gates) - k gates instead of len(gates),
# and pays for it with one N x N product (two when the centre is not
# diagonal). Measured on synthesized circuits cut to shorter mirrored
# windows (2-core x86_64 host), it broke even at about 45, 110, 540,
# 3000-5000 and 9000-15000 gates at n = 5..9, that is at N^3 / 2^9.5,
# 2^11, 2^12, 2^12 and 2^13.4. The route is taken when
# len(gates) << _MIRROR_SHIFT reaches the product's cost: the sum of the
# cubed block sizes of h's nonzero pattern, N^3 for one block.
_MIRROR_SHIFT = 12


def circuit_error(circuit: Circuit, h) -> float:
    """Max entrywise deviation of the circuit's matrix from ``h``.

    A circuit whose leading gates mirror its trailing ones
    (:func:`mirror_depth`), such as W^dagger D W, is computed by
    :func:`mirror_matrix` when len(gates) << _MIRROR_SHIFT reaches the
    sum of the cubed block sizes of h's nonzero pattern: a diagonal
    centre's product is formed one block of M at a time, and the blocks
    of M are those of h when the circuit is right. Any other circuit is
    simulated whole. The pattern of h chooses the route only: a wrong
    circuit whose M reaches across h's blocks forms its own larger
    blocks, so its error is exact either way.
    """
    gates = circuit.gates
    blocks = _blocks(as_matrix(h))
    if blocks is None:
        cost = 1 << 3 * circuit.n_qubits
    else:
        cost = sum(idx.size * idx.shape[1] ** 2 for idx in blocks)
    k = mirror_depth(gates) if len(gates) << _MIRROR_SHIFT >= cost else 0
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


def verified_report(circuit: Circuit, h, result: JacobiResult) -> SynthesisReport:
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
    )


def synthesize(h) -> tuple[Circuit, SynthesisReport]:
    """Decompose a Hermitian unitary into a gate circuit and verify it:
    :func:`build_circuit`, then :func:`verified_report`."""
    circuit, result = build_circuit(h)
    return circuit, verified_report(circuit, h, result)
