"""Complex Jacobi diagonalization of Hermitian unitaries.

Each elimination conjugates the working matrix by a two-level complex
rotation Q' = R(-alpha) G(theta), where G is a real Givens rotation in the
half-angle convention and R is a phase shift. For a Hermitian unitary input
the process terminates on a diagonal of +/-1 entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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
    as_matrix,
    is_hermitian,
    is_unitary,
    off_norm,
)



@dataclass(frozen=True)
class RotationStep:
    """One elimination: zero entry (p, q) with angles (theta, alpha).

    ``has_phase`` records whether the pivot entry was genuinely complex; real
    pivots need no phase factor and use the signed real angle formula.
    """

    p: int
    q: int
    theta: float
    alpha: float
    has_phase: bool

    def __post_init__(self):
        if not (0 <= self.p < self.q):
            raise ValueError(f"need 0 <= p < q, got ({self.p}, {self.q})")
        if abs(self.theta) > HALF_PI + 1e-12:
            raise ValueError(f"theta {self.theta} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class JacobiResult:
    steps: tuple[RotationStep, ...]
    signs: tuple[int, ...]
    sweeps: int
    residual: float
    sweep_rotations: tuple[int, ...]


def rotation_params(
    app: float, aqq: float, apq: complex, zero_tol: float = DEFAULT_TOLERANCES.zero_tol
) -> tuple[float, float, bool]:
    """Angles (theta, alpha) that zero the pivot, plus whether a phase is needed.

    For a real pivot, tan(theta) = -2*apq / (app - aqq) with the signed value
    and no phase factor. For a complex pivot, tan(theta) = -2*|apq| /
    (app - aqq) and alpha = arg(apq). Theta is folded into [-pi/2, pi/2].
    """
    apq = complex(apq)
    magnitude = abs(apq)
    if magnitude <= zero_tol:
        raise ZeroOffDiagonal(f"pivot magnitude {magnitude:.3e} below {zero_tol:.3e}")
    if abs(apq.imag) <= zero_tol:
        numerator = -2.0 * apq.real
        alpha = 0.0
        has_phase = False
    else:
        numerator = -2.0 * magnitude
        alpha = math.atan2(apq.imag, apq.real)
        has_phase = True
    theta = math.atan2(numerator, app - aqq)
    if theta < -HALF_PI:
        theta += math.pi
    elif theta > HALF_PI:
        theta -= math.pi
    return theta, alpha, has_phase


def _rotate_inplace(m: np.ndarray, step: RotationStep, zero_tol: float) -> None:
    """Conjugate ``m`` by the two-level Q' at (p, q), touching only those rows/cols."""
    p, q = step.p, step.q
    c = math.cos(step.theta / 2.0)
    s = math.sin(step.theta / 2.0)
    e = cmath.exp(-1j * step.alpha) if step.has_phase else 1.0

    # columns of Q': (c, -e s) and (s, e c)
    colp = m[:, p].copy()
    colq = m[:, q].copy()
    m[:, p] = c * colp - (e * s) * colq
    m[:, q] = s * colp + (e * c) * colq
    # rows of the adjoint Q'^H: (c, -conj(e) s) and (s, conj(e) c)
    ec = e.conjugate() if step.has_phase else 1.0
    rowp = m[p, :].copy()
    rowq = m[q, :].copy()
    m[p, :] = c * rowp - (ec * s) * rowq
    m[q, :] = s * rowp + (ec * c) * rowq

    if abs(m[p, q]) > zero_tol:
        raise RotationFailed(
            f"pivot ({p}, {q}) still {abs(m[p, q]):.3e} after rotation"
        )
    m[p, q] = 0.0
    m[q, p] = 0.0
    m[p, p] = m[p, p].real
    m[q, q] = m[q, q].real


def snap_signs(
    diag_entries, sign_tol: float = DEFAULT_TOLERANCES.sign_tol
) -> tuple[int, ...]:
    """Map converged diagonal entries to exact +/-1."""
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


def diagonalize(h, max_sweeps: int = 30) -> JacobiResult:
    """Drive the off-diagonal norm of a Hermitian unitary to (near) zero.

    Each sweep rotates, in row-major order, every pair (p, q) with p < q
    whose entry exceeds zero_tol when the sweep reaches it. Row p is scanned
    as one array for its first such entry past q; a rotation rewrites row p,
    so the scan resumes past the rotated q on the new values. That rotates
    the same pairs in the same order as testing each entry in turn, while
    the zero entries of a sparse input cost no Python-level work. Sweeps
    repeat until off_norm <= zero_tol * dim. Cyclic Jacobi can refill
    previously zeroed entries, hence the multi-sweep loop. The +/-1 spectrum
    of these inputs is highly degenerate, so convergence is close to linear
    rather than quadratic: random dense inputs take 2, 3-6, 4-9, 9-11 and
    12-13 sweeps at n = 2..6, the early sweeps rotating nearly all N(N-1)/2
    pairs. The tolerances are the fixed DEFAULT_TOLERANCES.
    """
    tol = DEFAULT_TOLERANCES
    zero_tol = tol.zero_tol
    m = as_matrix(h)
    dim = m.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise BadDimension(f"need a power-of-two dim >= 2, got {dim}")
    if not is_hermitian(m, tol.hermitian_tol):
        raise NotHermitian(f"input deviates from its adjoint by more than {tol.hermitian_tol}")
    if not is_unitary(m, tol.unitary_tol):
        raise NotUnitary(f"input deviates from unitarity by more than {tol.unitary_tol}")

    work = m.copy()
    threshold = zero_tol * dim
    steps: list[RotationStep] = []
    per_sweep: list[int] = []
    residual = off_norm(work)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        executed = 0
        for p in range(dim - 1):
            row, q = work[p], p
            while q < dim - 1:
                # the first entry past q above zero_tol, in row p as the
                # last rotation left it
                above = np.abs(row[q + 1 :]) > zero_tol
                k = int(above.argmax())  # the first True, or 0 if none
                if not above[k]:
                    break
                q += 1 + k
                theta, alpha, has_phase = rotation_params(
                    work[p, p].real, work[q, q].real, complex(work[p, q]), zero_tol
                )
                step = RotationStep(p, q, theta, alpha, has_phase)
                _rotate_inplace(work, step, zero_tol)
                steps.append(step)
                executed += 1
        per_sweep.append(executed)
        residual = off_norm(work)
        if residual <= threshold:
            break
    if residual > threshold:
        raise NoConvergence(residual, sweeps)
    signs = snap_signs(np.diagonal(work), tol.sign_tol)
    return JacobiResult(tuple(steps), signs, sweeps, residual, tuple(per_sweep))
