"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import replace
from itertools import groupby

import numpy as np

from hermsynth.circuit import (
    Circuit,
    Gate,
    GateKind,
    _parse_gate_line,
    gate_entries,
    invert_gates,
)
from hermsynth.diagonal import synthesize_sign_diagonal
from hermsynth.errors import BadDimension, NoConvergence, ParseError, RotationFailed
from hermsynth.jacobi import (
    _MAX_SWEEPS,
    JacobiResult,
    RotationStep,
    _operands,
    _rotate,
    rotation_params,
    snap_signs,
)
from hermsynth.matrices import DEFAULT_TOLERANCES, as_matrix, format_float, off_norm
from hermsynth.optimize import cancel_adjacent_inverses, strip_conjugate_controls
from hermsynth.twolevel import emit_two_level, gray_path

SQRT1_2 = 1.0 / math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex)


def controlled_4x4(u: np.ndarray) -> np.ndarray:
    """CU with control on qubit 0 (most significant bit), target qubit 1."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


CH_EMBED = controlled_4x4(HADAMARD)
CY_EMBED = controlled_4x4(PAULI_Y)
CZ_EMBED = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CNOT_EMBED = controlled_4x4(PAULI_X)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_hermitian_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """U diag(+/-1) U^dag for a random unitary U and random signs."""
    u = random_unitary(rng, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    h = u @ np.diag(signs.astype(complex)) @ u.conj().T
    return (h + h.conj().T) / 2.0  # scrub roundoff asymmetry


_RANDOM_KINDS = list(GateKind)


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind = _RANDOM_KINDS[rng.integers(len(_RANDOM_KINDS))]
        target = int(rng.integers(n_qubits))
        others = [q for q in range(n_qubits) if q != target]
        rng.shuffle(others)
        n_controls = int(rng.integers(len(others) + 1))
        controls = tuple((q, bool(rng.integers(2))) for q in others[:n_controls])
        param = float(rng.uniform(-math.pi, math.pi)) if kind.parametric else None
        gates.append(Gate(kind, target, controls, param))
    return Circuit(n_qubits, tuple(gates))


def charpoly_coeffs(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    trace recursion (no eigensolver involved)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ (work + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(work) / k
    return coeffs


def phased_involution(rng: np.random.Generator, n: int) -> np.ndarray:
    """A permutation involution of 3N/8 disjoint transpositions carrying
    unit-modulus phases, with +/-1 on every fixed point."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    perm = rng.permutation(dim)
    pairs = 3 * dim // 8
    for t in range(pairs):
        i, j = perm[2 * t], perm[2 * t + 1]
        h[j, i] = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        h[i, j] = h[j, i].conjugate()
    for i in perm[2 * pairs :]:
        h[i, i] = rng.choice([-1.0, 1.0])
    return h


def block_direct_sum(rng: np.random.Generator, n: int, block: int = 4) -> np.ndarray:
    """Direct sum of random block x block Hermitian unitaries on the diagonal."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for b in range(0, dim, block):
        h[b : b + block, b : b + block] = random_hermitian_unitary(rng, block)
    return h


def controlled_u(u: np.ndarray, k: int, target: int | None = None, negative=()) -> np.ndarray:
    """C^k U on k + 1 qubits: U acts on ``target`` (default: the last
    wire) when each other qubit is 1, or 0 for the qubits in ``negative``."""
    target = k if target is None else target
    bit = 1 << (k - target)
    on = sum(1 << (k - q) for q in range(k + 1) if q != target and q not in negative)
    h = np.eye(2 << k, dtype=complex)
    h[np.ix_([on, on | bit], [on, on | bit])] = u
    return h


# --- dense references for the Jacobi rotations ------------------------------


def components_reference(pattern: np.ndarray) -> set[frozenset[int]]:
    """Connected components of i ~ j when pattern[i, j] or pattern[j, i],
    by breadth-first search."""
    adjacent = pattern | pattern.T
    seen, parts = set(), set()
    for start in range(len(pattern)):
        if start in seen:
            continue
        part, queue = {start}, deque([start])
        while queue:
            for j in np.flatnonzero(adjacent[queue.popleft()]).tolist():
                if j not in part:
                    part.add(j)
                    queue.append(j)
        seen |= part
        parts.add(frozenset(part))
    return parts


def ordering_row_major(dim: int) -> list[tuple[int, int]]:
    """All index pairs p < q in lexicographic order."""
    if dim < 2:
        raise BadDimension(f"need dim >= 2, got {dim}")
    return [(p, q) for p in range(dim) for q in range(p + 1, dim)]


def rotate_inplace(m: np.ndarray, step: RotationStep, zero_tol: float) -> None:
    """Conjugate ``m`` by the two-level Q' of ``step`` in place, by the
    kernel ``jacobi._rotate`` on fresh row and column views and operands."""
    _rotate(
        list(m), list(m.T), step.p, step.q, step.theta, step.alpha, zero_tol,
        _operands(m.shape[0]),
    )


def phase_on_q(p: int, q: int) -> bool:
    """Whether q holds the pivot bit of (p, q), the lowest set bit of p ^ q.
    The phase of a complex rotation goes on that state: e^(-i alpha) on q
    when it holds the bit, e^(i alpha) on p otherwise (:func:`phase_factors`),
    and the emitted PHASE gate acts on it (:func:`emit_two_level_gray`)."""
    low = (p ^ q) & -(p ^ q)
    return bool(q & low)


def phase_factors(step: RotationStep) -> tuple[complex, complex]:
    """(u, v) of the step's Q' = diag(u, v) G(theta) at (p, q):
    (1, e^(-i alpha)) when :func:`phase_on_q`, else (e^(i alpha), 1), and
    (1, 1) for a real step."""
    if not step.alpha:
        return 1.0, 1.0
    if phase_on_q(step.p, step.q):
        return 1.0, cmath.exp(-1j * step.alpha)
    return cmath.exp(1j * step.alpha), 1.0


def rotate_reference(m: np.ndarray, step: RotationStep, zero_tol: float) -> None:
    """:func:`rotate_inplace` as it was before its 0-d coefficient
    operands: Python scalar coefficients and copied rows and columns. The
    kernel is held to these bits."""
    p, q = step.p, step.q
    c = math.cos(step.theta / 2.0)
    s = math.sin(step.theta / 2.0)
    u, v = phase_factors(step)

    # columns of Q': (u c, -v s) and (u s, v c)
    colp = m[:, p].copy()
    colq = m[:, q].copy()
    m[:, p] = (u * c) * colp - (v * s) * colq
    m[:, q] = (u * s) * colp + (v * c) * colq
    # rows of the adjoint Q'^H: (conj(u) c, -conj(v) s) and (conj(u) s, conj(v) c)
    bu, bv = u.conjugate(), v.conjugate()
    rowp = m[p, :].copy()
    rowq = m[q, :].copy()
    m[p, :] = (bu * c) * rowp - (bv * s) * rowq
    m[q, :] = (bu * s) * rowp + (bv * c) * rowq

    if abs(m[p, q]) > zero_tol:
        raise RotationFailed(
            f"pivot ({p}, {q}) still {abs(m[p, q]):.3e} after rotation"
        )
    m[p, q] = 0.0
    m[q, p] = 0.0
    m[p, p] = m[p, p].real
    m[q, q] = m[q, q].real


# The pivot rule as documented in ``jacobi.diagonalize``, written out here
# rather than imported, so the walk holds the library to the stated values.
SAME_SIGN_CUT = 0.1
PLAIN_ROWS = 4
FALLBACK_SHARE = 0.9


def diagonalize_row_major(h, same_sign_cut: float = SAME_SIGN_CUT) -> JacobiResult:
    """``jacobi.diagonalize`` as a scalar walk: every sweep tests each pair
    of ``ordering_row_major`` in turn, reading work[p, q] and the real parts
    of work[p, p] and work[q, q] at test time, and rotates it by
    ``rotate_reference`` when its entry exceeds zero_tol and, for a
    same-sign pair in a block of more than PLAIN_ROWS rows of the input's
    nonzero pattern (``components_reference``), also ``same_sign_cut``.
    After the first sweep that leaves more than FALLBACK_SHARE of the
    off-diagonal norm it started with, every pair takes zero_tol. With
    ``same_sign_cut`` 0.0 this is the rule that rotates every entry above
    zero_tol. Inputs are not validated."""
    tol = DEFAULT_TOLERANCES
    work = as_matrix(h).copy()
    dim = work.shape[0]
    block_rows = [0] * dim
    for part in components_reference(work != 0):
        for i in part:
            block_rows[i] = len(part)
    threshold = tol.zero_tol * dim
    steps: list[RotationStep] = []
    per_sweep: list[int] = []
    residuals: list[float] = []
    residual = off_norm(work)
    fallen_back = False
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        sweeps += 1
        executed = 0
        for p, q in ordering_row_major(dim):
            entry = abs(work[p, q])
            if entry <= tol.zero_tol:
                continue
            same_sign = (work[p, p].real < 0) == (work[q, q].real < 0)
            if (
                same_sign
                and not fallen_back
                and block_rows[p] > PLAIN_ROWS
                and entry <= same_sign_cut
            ):
                continue
            theta, alpha = rotation_params(
                work[p, p].real, work[q, q].real, complex(work[p, q])
            )
            step = RotationStep(p, q, theta, alpha)
            rotate_reference(work, step, tol.zero_tol)
            steps.append(step)
            executed += 1
        per_sweep.append(executed)
        start, residual = residual, off_norm(work)
        residuals.append(residual)
        if residual <= threshold:
            break
        fallen_back = fallen_back or residual > FALLBACK_SHARE * start
    if residual > threshold:
        raise NoConvergence(residual, sweeps)
    signs = snap_signs(np.diagonal(work))
    return JacobiResult(
        tuple(steps), signs, sweeps, residual, tuple(per_sweep), tuple(residuals)
    )


def apply_rotation(
    a, step: RotationStep, zero_tol: float = DEFAULT_TOLERANCES.zero_tol
) -> np.ndarray:
    """Return Q'^H a Q' (H: adjoint) for the step's two-level rotation."""
    m = as_matrix(a).copy()
    if step.q >= m.shape[0]:
        raise BadDimension(f"step indices ({step.p}, {step.q}) exceed dim {m.shape[0]}")
    rotate_inplace(m, step, zero_tol)
    return m


def step_factors(step: RotationStep, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense phase factor R = diag(u, v) at (p, q) (:func:`phase_factors`)
    and rotation factor G(theta) for one step.

    The product R @ G is the two-level Q' embedding; R is the identity when
    no phase is needed.
    """
    if step.q >= dim:
        raise BadDimension(f"step indices ({step.p}, {step.q}) exceed dim {dim}")
    r = np.eye(dim, dtype=complex)
    r[step.p, step.p], r[step.q, step.q] = phase_factors(step)
    g = np.eye(dim, dtype=complex)
    c = math.cos(step.theta / 2.0)
    s = math.sin(step.theta / 2.0)
    g[step.p, step.p] = c
    g[step.p, step.q] = s
    g[step.q, step.p] = -s
    g[step.q, step.q] = c
    return r, g


def two_level_matrix(step: RotationStep, dim: int) -> np.ndarray:
    """Dense embedding of Q' = diag(u, v) G(theta) at (p, q)."""
    r, g = step_factors(step, dim)
    return r @ g


def emit_two_level_gray(step: RotationStep, n: int) -> tuple[Gate, ...]:
    """``twolevel.emit_two_level`` rebuilt for each step from its gray path,
    every gate by the validating ``Gate(...)``: the ladder of fully
    controlled X gates to the neighbour of q, the RY and for complex steps
    the PHASE on the pivot-1 state, then the ladder unwound. When q holds
    the pivot bit (:func:`phase_on_q`) the core is RY(theta), PHASE(-alpha);
    otherwise the pair is seen in swapped order and it is RY(-theta),
    PHASE(alpha)."""
    states = gray_path(step.p, step.q, n)
    flips = [n - 1 - ((a ^ b).bit_length() - 1) for a, b in zip(states, states[1:])]

    def controls(state: int, target: int) -> tuple[tuple[int, bool], ...]:
        return tuple((qb, bool((state >> (n - 1 - qb)) & 1)) for qb in range(n) if qb != target)

    ladder = tuple(Gate(GateKind.X, qb, controls(s, qb)) for s, qb in zip(states, flips[:-1]))
    i = flips[-1]
    site = controls(step.q, i)
    sign = 1.0 if phase_on_q(step.p, step.q) else -1.0
    core = (Gate(GateKind.RY, i, site, sign * step.theta),)
    if step.alpha:
        core += (Gate(GateKind.PHASE, i, site, -sign * step.alpha),)
    return ladder + core + ladder[::-1]


def assemble_whole(result: JacobiResult, n: int) -> Circuit:
    """W^dagger, the sign diagonal, then W, unoptimized: the forward
    factors of the steps in reverse order, each step emitted once, and
    their inverse. :func:`full_rounds_reference` of this circuit is the
    reference that ``build_circuit``'s half-plus-centre build must equal
    gate for gate; the circuit itself is the build with no pass run, and
    ``cancel_adjacent_inverses`` of it the build without the strip pass."""
    diag_gates, phase = synthesize_sign_diagonal(result.signs)
    forward = tuple(g for step in reversed(result.steps) for g in emit_two_level(step, n))
    return Circuit(n, invert_gates(forward) + diag_gates + forward, global_phase=phase)


def full_rounds_reference(circuit: Circuit) -> Circuit:
    """Strip then cancel over the whole circuit, repeated until a round
    returns its input. ``build_circuit`` strips only its centre window, so
    where it equals this, the strip rule matched nowhere else."""
    current = circuit
    while True:
        step = cancel_adjacent_inverses(strip_conjugate_controls(current))
        if step.gates == current.gates:
            return step
        current = step


# --- reference for the simulator ---------------------------------------------


def apply_gate_full(t: np.ndarray, gate: Gate) -> None:
    """Left-multiply a (2,)*n + (2^n,) tensor view by the gate's embedding,
    updating the target's 0 and 1 slices by the full 2x2 matrix for every
    kind, diagonal or not."""
    u00, u01, u10, u11 = gate_entries(gate.kind, gate.param)
    index = [slice(None)] * t.ndim
    for q, positive in gate.controls:
        index[q] = int(positive)
    index[gate.target] = 0
    a = t[tuple(index)]
    index[gate.target] = 1
    b = t[tuple(index)]
    new_a = u00 * a + u01 * b
    b[...] = u10 * a + u11 * b
    a[...] = new_a


# --- reference for the verify route --------------------------------------------


def mirror_depth_reference(gates) -> int:
    """``circuit.mirror_depth`` as an index walk: the first k with
    ``gates[k]`` and ``gates[-1-k]`` differing in kind, target, controls or
    negated angle, for k below the middle."""
    last = len(gates) - 1
    k = 0
    while k < last - k:
        a, b = gates[k], gates[last - k]
        if (
            a.kind is not b.kind
            or a.target != b.target
            or a.controls != b.controls
            or (a.kind.parametric and a.param != -b.param)
        ):
            break
        k += 1
    return k


# --- reference for the gate counts ---------------------------------------------


def counts_reference(circuit: Circuit) -> dict[str, int]:
    """``circuit.counts`` as one walk over every gate: each gate is added
    to its class in time order, so a class keeps the place of its first
    gate."""
    hist: dict[str, int] = {}
    for g in circuit.gates:
        k = len(g.controls)
        if k == 0:
            key = "single"
        elif g.kind is GateKind.Z:
            key = "CZ" if k == 1 else "MCZ"
        elif g.kind is GateKind.X:
            key = "CNOT" if k == 1 else "MCX"
        else:
            key = "MC" + g.kind.value
        hist[key] = hist.get(key, 0) + 1
    return hist


# --- references for the circuit text format ----------------------------------


def serialize_reference(circuit: Circuit) -> str:
    """``circuit.serialize`` formatting every gate's line in full."""
    phase = circuit.global_phase
    lines = [
        f"qubits {circuit.n_qubits}",
        f"phase {format_float(phase.real)},{format_float(phase.imag)}",
    ]
    for g in circuit.gates:
        parts = [f"gate {g.kind.value}", f"target={g.target}"]
        if g.controls:
            ctl = ",".join(f"{'+' if pos else '-'}{q}" for q, pos in g.controls)
            parts.append(f"controls={ctl}")
        parts.append("params=" + ("" if g.param is None else format_float(g.param)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_reference(text: str) -> Circuit:
    """``circuit.parse`` line by line: every gate line goes through
    ``_parse_gate_line``, and every line is held to the checks of
    ``Circuit(...)`` as it is read, so an error names its own line."""

    def check(lineno: int, *args) -> None:
        try:
            Circuit(*args)
        except (ValueError, IndexError) as exc:
            raise ParseError(lineno, str(exc)) from None

    n_qubits = None
    phase = None
    gates: list[Gate] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_qubits is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "qubits":
                raise ParseError(lineno, f"expected 'qubits N' header, got {line!r}")
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"bad qubit count {parts[1]!r}") from None
            check(lineno, n_qubits)
            continue
        if phase is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "phase":
                raise ParseError(lineno, f"expected 'phase re,im', got {line!r}")
            pieces = parts[1].split(",")
            if len(pieces) != 2:
                raise ParseError(lineno, f"bad phase {parts[1]!r}")
            try:
                phase = complex(float(pieces[0]), float(pieces[1]))
            except ValueError:
                raise ParseError(lineno, f"bad phase {parts[1]!r}") from None
            check(lineno, n_qubits, (), phase)
            continue
        gate = _parse_gate_line(lineno, line)
        check(lineno, n_qubits, (gate,))
        gates.append(gate)
    if n_qubits is None or phase is None:
        raise ParseError(last_line, "missing qubits/phase header")
    return Circuit(n_qubits, tuple(gates), global_phase=phase)


# --- reference for the strip pass ---------------------------------------------


def payload_product(gates) -> tuple[complex, complex, complex, complex]:
    """2x2 product of a time-ordered gate sequence on a shared target."""
    a, b, c, d = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for g in gates:
        e, f, gg, h = gate_entries(g.kind, g.param)
        a, b, c, d = e * a + f * c, e * b + f * d, gg * a + h * c, gg * b + h * d
    return a, b, c, d


def mul_2x2(left, right):
    a, b, c, d = left
    e, f, g, h = right
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


# Well below the 1e-12 matrix-preservation budget but far above the roundoff
# of exact inverse pairs (~1e-15), so a strip never moves the simulation.
IDENTITY_EPS = 1e-13


def is_identity_2x2(m: tuple[complex, complex, complex, complex]) -> bool:
    a, b, c, d = m
    return (
        abs(a - 1.0) <= IDENTITY_EPS
        and abs(b) <= IDENTITY_EPS
        and abs(c) <= IDENTITY_EPS
        and abs(d - 1.0) <= IDENTITY_EPS
    )


def strip_run_numeric(run: list[Gate]) -> list[Gate] | None:
    """A numeric strip rule, the reference ``optimize._strip_run`` must match
    on synthesized circuits: for each diagonal block in turn, the payload
    product A.B of the gates after (A) and before (B) it is built, and the
    first block where it is the identity to IDENTITY_EPS has its payloads'
    controls removed. It also strips runs that are an inverse pair only
    numerically, which ``_strip_run`` keeps."""
    k = 0
    while k < len(run):
        if not run[k].kind.diagonal:
            k += 1
            continue
        lo = k
        while k < len(run) and run[k].kind.diagonal:
            k += 1
        hi = k
        before, after = run[:lo], run[hi:]
        if not before and not after:
            continue
        if is_identity_2x2(mul_2x2(payload_product(after), payload_product(before))):
            return (
                [replace(g, controls=()) for g in before]
                + run[lo:hi]
                + [replace(g, controls=()) for g in after]
            )
    return None


def strip_conjugate_controls_numeric(circuit: Circuit) -> Circuit:
    """``optimize.strip_conjugate_controls`` with ``strip_run_numeric``
    on every same-site run of more than one controlled gate."""
    out: list[Gate] = []
    for (_, controls), run in groupby(circuit.gates, key=lambda g: (g.target, g.controls)):
        run = list(run)
        stripped = strip_run_numeric(run) if controls and len(run) > 1 else None
        out.extend(stripped or run)
    return Circuit(circuit.n_qubits, tuple(out), circuit.global_phase)
