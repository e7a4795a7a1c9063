"""Complex Jacobi diagonalization of Hermitian unitaries.

Each elimination conjugates the working matrix by a two-level complex
rotation Q' = diag(u, v) G(theta) at (p, q), where G is a real Givens
rotation in the half-angle convention and diag(u, v) puts the phase
e^(-i alpha) on one of the two states: (u, v) = (1, e^(-i alpha)) when q
holds the pivot bit, the lowest set bit of p ^ q, and (e^(i alpha), 1),
which is e^(i alpha) times the same 2x2 block, when p holds it. The phase
then always sits on the pivot-1 state, where the controlled PHASE gate of
:func:`hermsynth.twolevel.emit_two_level` acts. For a Hermitian unitary
input the process terminates on a diagonal of +/-1 entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from numpy import add, multiply, subtract

from .errors import (
    BadDimension,
    DiagonalNotPM1,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    RotationFailed,
    ZeroOffDiagonal,
)
from .matrices import (
    DEFAULT_TOLERANCES,
    HALF_PI,
    _blocks,
    _off_norm,
    as_matrix,
    is_hermitian,
    is_unitary,
)

# The sweep cap, a safety bound only: the dense inputs of BENCH_scale.json
# converged in at most 5 sweeps up to n = 8 and 7 at n = 9 (at most 16 up to
# n = 8 when every entry above zero_tol is rotated).
_MAX_SWEEPS = 30
# The pivot rule (:func:`diagonalize`): a pair whose diagonal entries have
# the same sign is rotated only when its entry exceeds _SAME_SIGN_CUT,
# until a sweep leaves more than _FALLBACK_SHARE of the off-diagonal norm
# it started with.
_SAME_SIGN_CUT = 0.1
_FALLBACK_SHARE = 0.9


@dataclass(frozen=True, slots=True)
class RotationStep:
    """One elimination: zero entry (p, q) with angles (theta, alpha).

    ``alpha`` is 0.0 exactly when the pivot entry was real: a real pivot needs
    no phase factor and uses the signed real angle formula. Otherwise its
    phase factor sits on the one of p and q that holds the pivot bit, the
    lowest set bit of p ^ q (:func:`_rotate`).
    """

    p: int
    q: int
    theta: float
    alpha: float

    def __post_init__(self):
        _check_step(self.p, self.q, self.theta, self.alpha)


def _check_step(p: int, q: int, theta: float, alpha: float) -> None:
    if not (0 <= p < q):
        raise ValueError(f"need 0 <= p < q, got ({p}, {q})")
    if not abs(theta) <= HALF_PI + 1e-12:  # NaN fails too
        raise ValueError(f"theta {theta} outside [-pi/2, pi/2]")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha {alpha} is not finite")


# The slot setters skip the frozen ``__setattr__`` and ``__post_init__``:
# ``_new_step`` costs about half of ``RotationStep(...)`` (timeit).
_new = object.__new__
_set_p = RotationStep.p.__set__
_set_q = RotationStep.q.__set__
_set_theta = RotationStep.theta.__set__
_set_alpha = RotationStep.alpha.__set__


def _new_step(p: int, q: int, theta: float, alpha: float) -> RotationStep:
    """``RotationStep(p, q, theta, alpha)``, with the same checks."""
    _check_step(p, q, theta, alpha)
    step = _new(RotationStep)
    _set_p(step, p)
    _set_q(step, q)
    _set_theta(step, theta)
    _set_alpha(step, alpha)
    return step


@dataclass(frozen=True)
class JacobiResult:
    steps: tuple[RotationStep, ...]
    signs: tuple[int, ...]
    sweeps: int
    residual: float  # off_norm when the sweeps stopped
    sweep_rotations: tuple[int, ...]  # rotations in each sweep, first to last
    sweep_residuals: tuple[float, ...]  # off_norm after each sweep; the last is ``residual``


def rotation_params(app: float, aqq: float, apq: complex) -> tuple[float, float]:
    """Angles (theta, alpha) that zero the pivot.

    For a real pivot, tan(theta) = -2*apq / (app - aqq) with the signed value
    and alpha = 0.0, no phase factor. For a complex pivot, tan(theta) =
    -2*|apq| / (app - aqq) and alpha = arg(apq), which is never 0 since
    |imag(apq)| > zero_tol. Theta is folded into [-pi/2, pi/2].
    """
    zero_tol = DEFAULT_TOLERANCES.zero_tol
    apq = complex(apq)
    magnitude = abs(apq)
    if magnitude <= zero_tol:
        raise ZeroOffDiagonal(f"pivot magnitude {magnitude:.3e} below {zero_tol:.3e}")
    if abs(apq.imag) <= zero_tol:
        numerator = -2.0 * apq.real
        alpha = 0.0
    else:
        numerator = -2.0 * magnitude
        alpha = math.atan2(apq.imag, apq.real)
    theta = math.atan2(numerator, app - aqq)
    if theta < -HALF_PI:
        theta += math.pi
    elif theta > HALF_PI:
        theta -= math.pi
    return theta, alpha


def _operands(dim: int) -> tuple[np.ndarray, ...]:
    """The operands of one rotation of a dim x dim matrix: eight 0-d complex
    coefficients (u c, v s, u s, v c and their conjugates) and four complex
    temporaries of length dim. Each caller allocates its own, so concurrent
    calls share no state."""
    holders = tuple(np.zeros((), dtype=complex) for _ in range(8))
    return holders + tuple(np.empty(dim, dtype=complex) for _ in range(4))


def _rotate(
    rows, cols, p: int, q: int, theta: float, alpha: float, zero_tol: float, operands
) -> None:
    """Conjugate a matrix by the two-level Q' = diag(u, v) G(theta) at
    (p, q), touching only those rows and columns. ``rows`` and ``cols``
    hold views of the matrix's rows and columns (``list(m)``,
    ``list(m.T)``), and ``operands`` comes from ``_operands``.

    The phase e^(-i alpha) goes on q, (u, v) = (1, e^(-i alpha)), when q
    holds the lowest set bit of p ^ q, and otherwise on p as
    (u, v) = (e^(i alpha), 1), e^(i alpha) times the first form. The two
    differ on the 2x2 block by a scalar only, so the block, the diagonal
    and every modulus come out the same; the phase lands on the pivot-1
    state, the row the emitted PHASE gate scales. A real step has
    u = v = 1.

    The coefficients are written into the 0-d holders before they scale a
    row or column: numpy spends about a third of a Python scalar times a
    short array converting the scalar, and a 0-d complex operand gives the
    same bits, since a float is widened to complex(x, 0.0) either way. Every
    product keeps the form coefficient * vector, because numpy's complex
    multiply is not bitwise commutative. Each phase forms its four products
    in the temporaries, then writes the new p and q over the old vectors,
    so no ufunc allocates its result.
    """
    h_uc, h_vs, h_us, h_vc, h_buc, h_bvs, h_bus, h_bvc, t1, t2, t3, t4 = operands
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    u = v = 1.0
    if alpha:
        diff = p ^ q
        if q & diff & -diff:
            v = cmath.exp(-1j * alpha)
        else:
            u = cmath.exp(1j * alpha)
    bu, bv = u.conjugate(), v.conjugate()
    h_uc[()] = u * c
    h_vs[()] = v * s
    h_us[()] = u * s
    h_vc[()] = v * c
    h_buc[()] = bu * c
    h_bvs[()] = bv * s
    h_bus[()] = bu * s
    h_bvc[()] = bv * c

    # columns of Q': (u c, -v s) and (u s, v c)
    colp, colq = cols[p], cols[q]
    multiply(h_uc, colp, t1)
    multiply(h_vs, colq, t2)
    multiply(h_us, colp, t3)
    multiply(h_vc, colq, t4)
    subtract(t1, t2, colp)
    add(t3, t4, colq)
    # rows of the adjoint Q'^H: (conj(u) c, -conj(v) s) and (conj(u) s, conj(v) c)
    rowp, rowq = rows[p], rows[q]
    multiply(h_buc, rowp, t1)
    multiply(h_bvs, rowq, t2)
    multiply(h_bus, rowp, t3)
    multiply(h_bvc, rowq, t4)
    subtract(t1, t2, rowp)
    add(t3, t4, rowq)

    pivot = abs(rowp.item(q))
    if not pivot <= zero_tol:  # a NaN pivot fails too
        raise RotationFailed(f"pivot ({p}, {q}) still {pivot:.3e} after rotation")
    rowp[q] = 0.0
    rowq[p] = 0.0
    rowp[p] = rowp.item(p).real
    rowq[q] = rowq.item(q).real


def snap_signs(diag_entries) -> tuple[int, ...]:
    """Map converged diagonal entries to exact +/-1, within sign_tol."""
    sign_tol = DEFAULT_TOLERANCES.sign_tol
    signs = []
    for index, value in enumerate(diag_entries):
        z = complex(value)
        if abs(z - 1.0) <= sign_tol:
            signs.append(1)
        elif abs(z + 1.0) <= sign_tol:
            signs.append(-1)
        else:
            raise DiagonalNotPM1(index, z)
    return tuple(signs)


def _block_mates(m: np.ndarray) -> list[tuple[int, list[int]]]:
    """(p, the block-mates of p above p) for each index p that has any
    mates, by ascending p, the mates ascending. The blocks are those of m's
    nonzero pattern (:func:`_blocks`); one block makes every index above p
    a mate."""
    mates = [
        (block[i], block[i + 1 :])
        for idx in _blocks(m)
        if idx.shape[1] > 1
        for block in idx.tolist()
        for i in range(len(block) - 1)
    ]
    mates.sort(key=itemgetter(0))
    return mates


def _pivots(rows, mates, same: float, zero_tol: float):
    """The pivots (p, q), p < q, of one sweep in row-major order, each
    read from row p and the diagonal as the last rotation left them, so
    the caller rotates each pivot before the next is looked for. An entry
    is a pivot when it exceeds zero_tol and, if the real parts of its two
    diagonal entries have the same sign (both negative or both not), also
    ``same``.

    Row p's candidates are its block-mates above p (``mates``, from
    :func:`_block_mates`), each tested in turn. A rotation at (p, q) mixes
    only rows and columns of one block, so every entry between two blocks
    stays an exact (+/-) zero and is never a pivot."""
    for p, later in mates:
        row = rows[p]
        for q in later:
            entry = abs(row.item(q))
            if entry > zero_tol and (
                entry > same or (row.item(p).real < 0) != (rows[q].item(q).real < 0)
            ):
                yield p, q


def diagonalize(h) -> JacobiResult:
    """Drive the off-diagonal norm of a Hermitian unitary to (near) zero.

    Each sweep rotates, in row-major order, the pivots (p, q), p < q, that
    :func:`_pivots` finds as the sweep reaches them. Every entry above
    zero_tol between two indices whose diagonal entries have real parts of
    opposite sign is a pivot. Between two of the same sign, an entry is a
    pivot only above _SAME_SIGN_CUT (0.1): writing the work matrix as S + E,
    with S the +/-1 signs its diagonal heads to, A^2 = I gives
    (s_p + s_q) E_pq = -(E^2)_pq, so a same-sign entry is second order in E
    and fades once the cross-sign ones are gone (Rutishauser's threshold
    Jacobi, Numer. Math. 9, 1 (1966); on repeated eigenvalues, Hari,
    Numer. Math. 60, 375 (1991)). After the first sweep that leaves more
    than _FALLBACK_SHARE (90%) of the off-diagonal norm it started with,
    every entry above zero_tol is a pivot for the rest of the run.

    The input's blocks are labelled once, and row p tests its block-mates
    above p in turn (every index above p when there is one block), so a
    block-sparse input costs what its blocks cost. The pairs rotated, and
    their order, are those of testing every entry of the row. Sweeps
    repeat until off_norm <= zero_tol * dim. Random dense inputs
    (``bench/workloads.dense_balanced``, BENCH_scale.json) take 1, 2, 3-4,
    4, 4, 4, 4-5, 5 and 6-7 sweeps at n = 1..9, against 10-16 at n = 5..8
    when every entry above zero_tol is rotated. The residuals are taken
    without validating the work matrix again. The tolerances are the fixed
    DEFAULT_TOLERANCES, and an input still off diagonal after
    ``_MAX_SWEEPS`` sweeps raises NoConvergence.
    """
    tol = DEFAULT_TOLERANCES
    zero_tol = tol.zero_tol
    m = as_matrix(h)
    dim = m.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise BadDimension(f"need a power-of-two dim >= 2, got {dim}")
    if not is_hermitian(m):
        raise NotHermitian(f"input deviates from its adjoint by more than {tol.hermitian_tol}")
    if not is_unitary(m):
        raise NotUnitary(f"input deviates from unitarity by more than {tol.unitary_tol}")

    work = m.copy()
    # views of every row and column, and the kernel's operands, built once
    rows, cols = list(work), list(work.T)
    operands = _operands(dim)
    mates = _block_mates(m)
    threshold = zero_tol * dim
    same = _SAME_SIGN_CUT
    steps: list[RotationStep] = []
    per_sweep: list[int] = []
    residuals: list[float] = []
    residual = _off_norm(work)
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        sweeps += 1
        executed = 0
        for p, q in _pivots(rows, mates, same, zero_tol):
            row = rows[p]
            theta, alpha = rotation_params(row.item(p).real, rows[q].item(q).real, row.item(q))
            step = _new_step(p, q, theta, alpha)
            _rotate(rows, cols, p, q, theta, alpha, zero_tol, operands)
            steps.append(step)
            executed += 1
        per_sweep.append(executed)
        start, residual = residual, _off_norm(work)
        residuals.append(residual)
        if residual <= threshold:
            break
        if residual > _FALLBACK_SHARE * start:
            same = zero_tol
    if residual > threshold:
        raise NoConvergence(residual, sweeps)
    signs = snap_signs(np.diagonal(work))
    return JacobiResult(
        tuple(steps), signs, sweeps, residual, tuple(per_sweep), tuple(residuals)
    )
