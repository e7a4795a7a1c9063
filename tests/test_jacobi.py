import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CH_EMBED,
    CY_EMBED,
    CZ_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    SQRT1_2,
    apply_rotation,
    block_direct_sum,
    charpoly_coeffs,
    controlled_u,
    diagonalize_row_major,
    ordering_row_major,
    phased_involution,
    random_hermitian_unitary,
    random_unitary,
    rotate_inplace,
    rotate_reference,
    step_factors,
    two_level_matrix,
)
from hermsynth import jacobi
from hermsynth.circuit import serialize
from hermsynth.errors import (
    BadDimension,
    DiagonalNotPM1,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    RotationFailed,
    ZeroOffDiagonal,
)
from hermsynth.jacobi import (
    JacobiResult,
    RotationStep,
    diagonalize,
    rotation_params,
    snap_signs,
)
from hermsynth.matrices import (
    DEFAULT_TOLERANCES,
    HALF_PI,
    _blocks,
    is_hermitian,
    is_unitary,
    max_abs_diff,
    off_norm,
)
from hermsynth.twolevel import synthesize

RNG = np.random.default_rng(2718)


def bits(m: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a complex array: equal bits, NaNs and the
    sign of zero included, compare equal."""
    return np.ascontiguousarray(m).view(np.uint64)


def load_bench_workloads():
    """The benchmark's seeded input generators, loaded from their file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestRotationParams:
    def test_hadamard_block(self):
        theta, alpha = rotation_params(SQRT1_2, -SQRT1_2, SQRT1_2 + 0j)
        assert theta == pytest.approx(-math.pi / 4, abs=1e-12)
        assert alpha == 0.0

    def test_pure_imaginary_pivot(self):
        theta, alpha = rotation_params(0.0, 0.0, -1j)
        assert theta == pytest.approx(-math.pi / 2, abs=1e-12)
        assert alpha == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_small_pivot_small_angle(self):
        theta, _ = rotation_params(1.0, -1.0, 1e-6 + 0j)
        assert abs(theta) < 1e-5

    def test_negative_real_pivot_no_phase(self):
        theta, alpha = rotation_params(0.0, 0.0, -1.0 + 0j)
        assert alpha == 0.0
        assert abs(theta) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_zero_pivot_rejected(self):
        with pytest.raises(ZeroOffDiagonal):
            rotation_params(1.0, -1.0, 0j)

    def test_theta_range_random(self):
        for _ in range(200):
            app, aqq = RNG.normal(size=2)
            apq = complex(RNG.normal(), RNG.normal())
            theta, _ = rotation_params(app, aqq, apq)
            assert abs(theta) <= math.pi / 2 + 1e-12


class TestApplyRotation:
    def test_hadamard_diagonalized(self):
        theta, alpha = rotation_params(HADAMARD[0, 0].real, HADAMARD[1, 1].real, HADAMARD[0, 1])
        step = RotationStep(0, 1, theta, alpha)
        out = apply_rotation(HADAMARD, step)
        assert max_abs_diff(out, np.diag([1.0, -1.0])) < 1e-12

    def test_pauli_y_diagonalized(self):
        step = RotationStep(0, 1, -math.pi / 2, -math.pi / 2)
        out = apply_rotation(PAULI_Y, step)
        assert max_abs_diff(out, np.diag([1.0, -1.0])) < 1e-12

    def test_preserves_hermitian_unitary(self):
        h = random_hermitian_unitary(RNG, 8)
        p, q = 2, 5
        theta, alpha = rotation_params(h[p, p].real, h[q, q].real, h[p, q])
        out = apply_rotation(h, RotationStep(p, q, theta, alpha))
        assert is_hermitian(out) and is_unitary(out)
        assert abs(out[p, q]) <= 1e-12

    def test_off_norm_drop(self):
        # off_norm^2 decreases by exactly 2|a_pq|^2 per rotation
        h = random_hermitian_unitary(RNG, 8)
        p, q = 1, 6
        pivot = abs(h[p, q]) ** 2
        theta, alpha = rotation_params(h[p, p].real, h[q, q].real, h[p, q])
        out = apply_rotation(h, RotationStep(p, q, theta, alpha))
        drop = off_norm(h) ** 2 - off_norm(out) ** 2
        assert drop == pytest.approx(2.0 * pivot, abs=1e-10)

    def test_only_pivot_rows_cols_change(self):
        h = random_hermitian_unitary(RNG, 8)
        p, q = 0, 3
        theta, alpha = rotation_params(h[p, p].real, h[q, q].real, h[p, q])
        out = apply_rotation(h, RotationStep(p, q, theta, alpha))
        untouched = [k for k in range(8) if k not in (p, q)]
        assert np.array_equal(out[np.ix_(untouched, untouched)], h[np.ix_(untouched, untouched)])

    def test_eigenvalues_preserved(self):
        # characteristic polynomial oracle, no eigensolver
        for dim in (2, 4, 8):
            h = random_hermitian_unitary(RNG, dim)
            p, q = 0, dim - 1
            theta, alpha = rotation_params(h[p, p].real, h[q, q].real, h[p, q])
            out = apply_rotation(h, RotationStep(p, q, theta, alpha))
            assert np.max(np.abs(charpoly_coeffs(h) - charpoly_coeffs(out))) < 1e-10

    def test_wrong_angle_raises_rotation_failed(self):
        # X needs theta = +/-pi/2 at (0, 1); theta = 0.3 leaves the pivot at cos(0.3)
        m = np.array([[0, 1], [1, 0]], dtype=complex)
        message = r"^pivot \(0, 1\) still 9\.553e-01 after rotation$"
        with pytest.raises(RotationFailed, match=message):
            rotate_inplace(m, RotationStep(0, 1, 0.3, 0.0), 1e-12)
        assert abs(m[0, 1]) == pytest.approx(math.cos(0.3))


class TestNonFinite:
    """A NaN compares false with every bound, so each check is written to
    fail on NaN."""

    def test_nan_theta_rejected(self):
        with pytest.raises(ValueError, match=r"^theta nan outside \[-pi/2, pi/2\]$"):
            RotationStep(0, 1, math.nan, 0.0)

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValueError, match="^alpha inf is not finite$"):
            RotationStep(0, 1, 0.3, math.inf)

    def test_nan_pivot_raises_rotation_failed(self):
        # X's angle at (0, 1), but a NaN on the diagonal reaches the pivot;
        # the reference's ``> zero_tol`` test lets it through
        m = np.array([[0, 1], [1, math.nan]], dtype=complex)
        step = RotationStep(0, 1, HALF_PI, 0.0)
        reference = m.copy()
        rotate_reference(reference, step, 1e-12)
        assert reference[0, 1] == 0.0
        with pytest.raises(RotationFailed, match=r"^pivot \(0, 1\) still nan after rotation$"):
            rotate_inplace(m, step, 1e-12)


def rotation_outcome(rotate, m: np.ndarray, step: RotationStep, zero_tol: float):
    """The matrix bits after ``rotate`` and its RotationFailed message, if any."""
    try:
        rotate(m, step, zero_tol)
        message = None
    except RotationFailed as error:
        message = str(error)
    return bits(m).tobytes(), message


class TestKernelBits:
    """The kernel ``jacobi._rotate``, run by ``rotate_inplace``, holds its
    coefficients in 0-d arrays and writes rows and columns in place; it
    must give every bit that ``rotate_reference``, the kernel as it was
    with Python scalars and copies, gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        dim = data.draw(st.integers(2, 256), label="dim")
        spread = data.draw(st.sampled_from(["adjacent", "far", "any"]), label="spread")
        if spread == "adjacent":
            p = data.draw(st.integers(0, dim - 2), label="p")
            q = p + 1
        elif spread == "far":
            quarter = (dim - 2) // 4
            p = data.draw(st.integers(0, quarter), label="p")
            q = data.draw(st.integers(max(p + 1, dim - 1 - quarter), dim - 1), label="q")
        else:
            p = data.draw(st.integers(0, dim - 2), label="p")
            q = data.draw(st.integers(p + 1, dim - 1), label="q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = rng.normal(size=(dim, dim)).astype(complex)
        if data.draw(st.booleans(), label="complex entries"):
            a += 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2.0
        if data.draw(st.booleans(), label="real pivot"):
            h[p, q] = h[q, p] = h[p, q].real
        if data.draw(st.booleans(), label="zeroing angles"):
            theta, alpha = rotation_params(h[p, p].real, h[q, q].real, h[p, q])
        else:  # almost surely leaves the pivot: both kernels must raise alike
            theta = data.draw(st.floats(-HALF_PI, HALF_PI), label="theta")
            alpha = data.draw(st.sampled_from([0.0, -2.5, 0.7, math.pi]), label="alpha")
        step = RotationStep(p, q, theta, alpha)
        zero_tol = DEFAULT_TOLERANCES.zero_tol
        got = rotation_outcome(rotate_inplace, h.copy(), step, zero_tol)
        assert got == rotation_outcome(rotate_reference, h.copy(), step, zero_tol)


class TestZeroDimOperand:
    """The kernels pass coefficients as 0-d complex arrays, which numpy
    multiplies without converting a Python scalar each time. That gives
    the bits of a Python float or complex only while numpy widens both to
    the same complex128 operand and runs the same loop; a numpy release
    that breaks this fails here before the bit tests of the kernels."""

    def test_matches_python_scalar(self):
        rng = np.random.default_rng(1812)
        holder = np.zeros((), dtype=complex)
        for length in range(1, 301):
            m = rng.normal(size=(length, length)) + 1j * rng.normal(size=(length, length))
            k = int(rng.integers(length))
            for scalar in (float(rng.normal()), complex(rng.normal(), rng.normal())):
                holder[()] = scalar
                for vector in (m[k], m[:, k]):  # a contiguous row, a strided column
                    assert np.array_equal(bits(holder * vector), bits(scalar * vector)), (
                        length, scalar
                    )


class TestInPlaceForms:
    """The kernels write their products through ``out``: ``np.multiply(h,
    v, out=v)`` scales a row in place and ``np.multiply(h, v, t)`` fills a
    temporary. Both must give the bits of ``h * v``. ``simulate``'s
    docstring records that ``*=`` and numpy's reuse of an unnamed temporary
    once rounded differently from ``h * v``, so a numpy release that runs
    the out forms by another loop fails here before the bit tests of the
    kernels. The in-place form starts at length 2: numpy 2.4.6 rounds a
    complex holder times a one-entry vector in place differently, and no
    kernel scales one, since a row of a 2^n x 2^n matrix has 2^n >= 2
    entries."""

    def test_match_product(self):
        rng = np.random.default_rng(1813)
        holder = np.zeros((), dtype=complex)
        for length in range(1, 301):
            m = rng.normal(size=(length, length)) + 1j * rng.normal(size=(length, length))
            k = int(rng.integers(length))
            temporary = np.empty(length, dtype=complex)
            for scalar in (float(rng.normal()), complex(rng.normal(), rng.normal())):
                holder[()] = scalar
                work = m.copy()
                for vector in (work[k], work[:, k]):  # a contiguous row, a strided column
                    expected = bits(holder * vector)
                    np.multiply(holder, vector, temporary)
                    assert np.array_equal(bits(temporary), expected), (length, scalar)
                    if length > 1:
                        np.multiply(holder, vector, out=vector)
                        assert np.array_equal(bits(vector), expected), (length, scalar)


class TestOrderings:
    def test_row_major_dim2(self):
        assert ordering_row_major(2) == [(0, 1)]

    def test_row_major_dim4(self):
        assert ordering_row_major(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_row_major_dim8_count(self):
        assert len(ordering_row_major(8)) == 28


class TestSnapSigns:
    def test_within_tolerance(self):
        assert snap_signs([1.0000000001, -0.9999999998]) == (1, -1)

    def test_rejects_half(self):
        with pytest.raises(DiagonalNotPM1):
            snap_signs([0.5, 1.0])

    def test_cz_diagonal(self):
        assert snap_signs([1, 1, 1, -1]) == (1, 1, 1, -1)

    def test_imaginary_part_counts(self):
        with pytest.raises(DiagonalNotPM1):
            snap_signs([1.0 + 1e-3j])


class TestDiagonalize:
    def test_cz_already_diagonal(self):
        res = diagonalize(CZ_EMBED)
        assert res.steps == () and res.signs == (1, 1, 1, -1) and res.sweeps == 1

    def test_ch_single_step(self):
        res = diagonalize(CH_EMBED)
        assert len(res.steps) == 1
        step = res.steps[0]
        assert (step.p, step.q) == (2, 3)
        assert step.theta == pytest.approx(-math.pi / 4, abs=1e-12)
        assert step.alpha == 0.0
        assert res.signs == (1, 1, 1, -1)
        assert res.sweeps == 1

    def test_cy_factors_match_printed_values(self):
        res = diagonalize(CY_EMBED)
        assert len(res.steps) == 1
        r, g = step_factors(res.steps[0], 4)
        expected_r = np.diag([1, 1, 1, 1j]).astype(complex)
        expected_g = np.eye(4, dtype=complex)
        expected_g[2:, 2:] = [[0.7071, -0.7071], [0.7071, 0.7071]]
        assert max_abs_diff(r, expected_r) < 1e-4
        assert max_abs_diff(g, expected_g) < 1e-4

    def test_random_reconstruction(self):
        # rebuild prod(RG) . diag . prod(G^ R^) and compare to the input
        for dim in (2, 4, 8):
            h = random_hermitian_unitary(RNG, dim)
            res = diagonalize(h)
            m = np.diag(np.array(res.signs, dtype=complex))
            for step in reversed(res.steps):
                q = two_level_matrix(step, dim)
                m = q @ m @ q.conj().T
            assert max_abs_diff(m, h) < 1e-9

    def test_sweep_rotation_bound(self):
        h = random_hermitian_unitary(RNG, 16)
        res = diagonalize(h)
        assert all(r <= 16 * 15 // 2 for r in res.sweep_rotations)
        assert sum(res.sweep_rotations) == len(res.steps)
        assert res.residual <= 1e-12 * 16
        assert snap_signs(res.signs) == res.signs

    def test_sweep_residuals(self):
        # the off-norm after each sweep; only the last is at the threshold
        h = random_hermitian_unitary(RNG, 16)
        res = diagonalize(h)
        assert len(res.sweep_residuals) == res.sweeps > 1
        assert res.sweep_residuals[-1] == res.residual <= 1e-12 * 16
        assert all(r > 1e-12 * 16 for r in res.sweep_residuals[:-1])
        assert res.sweep_residuals[0] < off_norm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            diagonalize(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            diagonalize(np.diag([1.0, 0.5]))

    def test_rejects_huge_hermitian(self):
        # Hermitian, with m m^H past the float range: not unitary
        h = 1e308 * np.array([[1, 1 + 1j], [1 - 1j, -1]])
        assert is_hermitian(h)
        with pytest.raises(NotUnitary):
            diagonalize(h)

    def test_sparse_rejected_as_non_hermitian_first(self):
        # a block-sparse input scaled off unitarity, with one unmirrored
        # entry that joins two of its blocks: neither predicate holds, and
        # the Hermitian check comes first
        rng = np.random.default_rng(31)
        h = 1.5 * block_direct_sum(rng, 5)
        h[0, 4] = 1e-6
        p = rng.permutation(32)
        for m in (h, h[np.ix_(p, p)]):
            assert sum(map(len, _blocks(m))) > 1
            assert not is_hermitian(m) and not is_unitary(m)
            with pytest.raises(NotHermitian):
                diagonalize(m)

    def test_rejects_bad_dimension(self):
        with pytest.raises(BadDimension):
            diagonalize(np.eye(3))

    def test_no_convergence_when_sweeps_exhausted(self, monkeypatch):
        monkeypatch.setattr(jacobi, "_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            diagonalize(CH_EMBED)

    def test_snap_succeeds_for_hermitian_unitaries(self):
        # both predicates true implies the sign snap goes through
        h = random_hermitian_unitary(RNG, 8)
        assert is_hermitian(h) and is_unitary(h)
        res = diagonalize(h)
        assert all(s in (-1, 1) for s in res.signs)


def banded_chain(n: int) -> np.ndarray:
    """G P G^T: P swaps each pair (2k, 2k+1), and G rotates each pair
    (2k+1, 2k+2) by 0.3. The pairs link every index into one block whose
    rows hold at most four nonzeros."""
    dim = 1 << n
    p = np.zeros((dim, dim))
    p[np.arange(dim), np.arange(dim) ^ 1] = 1.0
    g = np.eye(dim)
    c, s = math.cos(0.3), math.sin(0.3)
    for k in range(1, dim - 1, 2):
        g[k, k] = g[k + 1, k + 1] = c
        g[k, k + 1], g[k + 1, k] = -s, s
    return (g @ p @ g.T).astype(complex)


class TestRowScan:
    """``diagonalize`` walks each row's block-mates above p (every later
    index on an input of one block), testing each in turn; it must rotate
    exactly the pairs the scalar row-major walk rotates. Result equality
    compares every field, each step's angles exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_dense(self, n):
        rng = np.random.default_rng(4000 + n)
        for _ in range(3 if n < 6 else 1):
            h = random_hermitian_unitary(rng, 1 << n)
            assert diagonalize(h) == diagonalize_row_major(h)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_sparse(self, n):
        # phased involutions (transpositions and fixed points) and direct
        # sums: blocks of sizes 1 and 2, 4, 8 (one block at n = 3); at
        # n = 4..6 also a banded chain, one block of long, mostly zero rows
        rng = np.random.default_rng(5000 + n)
        involution = phased_involution(rng, n)
        assert np.count_nonzero(np.diagonal(involution)) == 1 << n - 2
        inputs = [involution, block_direct_sum(rng, n), block_direct_sum(rng, n, 8)]
        if 4 <= n <= 6:
            chain = banded_chain(n)
            assert [idx.shape for idx in _blocks(chain)] == [(1, 1 << n)]
            assert np.count_nonzero(chain, axis=1).max() <= 4
            inputs.append(chain)
        for h in inputs:
            res = diagonalize(h)
            assert res.steps
            assert res == diagonalize_row_major(h)

    def test_entries_at_zero_tol(self):
        # row 0 holds cross-sign entries exactly at zero_tol, which are
        # skipped, and one ulp above it, which are rotated (row 2 is empty
        # past column 2 and the pivots' diagonal entries differ, so row 0
        # keeps its values); a dense block on rows 4..7, whose diagonal is
        # (-0.08, 0.50, 0.36, -0.79), keeps the later scans busy
        tiny = DEFAULT_TOLERANCES.zero_tol
        above = np.nextafter(tiny, 1.0)
        h = np.diag([1.0, -1.0, -1.0, 1.0, 0, 0, 0, 0]).astype(complex)
        h[4:, 4:] = random_hermitian_unitary(np.random.default_rng(6), 4)
        entries = {(0, 1): tiny, (0, 2): above, (0, 3): 1j * tiny, (0, 4): 1j * above,
                   (1, 3): -tiny, (1, 6): tiny}
        for (p, q), value in entries.items():
            h[p, q], h[q, p] = value, np.conj(value)
        res = diagonalize(h)
        # row 0 is the first row scanned: q = 1 and 3 are skipped
        assert [(s.p, s.q) for s in res.steps[:2]] == [(0, 2), (0, 4)]
        assert res == diagonalize_row_major(h)

    def test_entries_at_same_sign_cut(self):
        # I - 2 v v^T with v = (0.5, -0.1, -0.1, 0.38...): a_00 = 0.5 and
        # a_11 = a_22 = 0.98, so (0, 1) and (0, 2) are same-sign pairs of
        # one 8-row block; (0, 1) is exactly the cut, which is skipped, and
        # (0, 2) one ulp above it, which is the first rotation
        cut = jacobi._SAME_SIGN_CUT
        v = np.array([0.5, -0.1, -0.1] + [math.sqrt(0.73 / 5)] * 5)
        h = (np.eye(8) - 2.0 * np.outer(v, v)).astype(complex)
        assert h[0, 1] == cut
        h[0, 2] = h[2, 0] = np.nextafter(cut, 1.0)
        res = diagonalize(h)
        assert (res.steps[0].p, res.steps[0].q) == (0, 2)
        assert res == diagonalize_row_major(h)

    def test_pivot_behind_exact_zero(self):
        # the banded chain with indices 1 and 3 swapped: one block, whose
        # first walked row holds an exact zero at column 1 that no rotation
        # has reached, and pivots at columns 2 and 3 behind it; the walk
        # passes the zero and rotates (0, 2) first
        perm = np.arange(16)
        perm[[1, 3]] = perm[[3, 1]]
        h = banded_chain(4)[np.ix_(perm, perm)]
        assert [idx.shape for idx in _blocks(h)] == [(1, 16)]
        assert h[0, 1] == 0 and h[0, 2] != 0 and h[0, 3] != 0
        res = diagonalize(h)
        assert (res.steps[0].p, res.steps[0].q) == (0, 2)
        assert res == diagonalize_row_major(h)

    def test_rotation_fills_later_entry_of_row(self):
        # H (x) X: entry (0, 2) is zero until the rotation at (0, 1) mixes
        # in row 1, whose entry (1, 2) is not; the walk then rotates (0, 2)
        # in the same sweep
        h = np.kron(HADAMARD, PAULI_X)
        assert h[0, 2] == 0 and h[0, 1] != 0 and h[1, 2] != 0
        res = diagonalize(h)
        assert [(s.p, s.q) for s in res.steps[:2]] == [(0, 1), (0, 2)]
        assert res == diagonalize_row_major(h)


def permuted_direct_sum(blocks, perm) -> np.ndarray:
    """The direct sum of the square ``blocks``, its indices permuted by
    ``perm``, which interleaves the blocks."""
    dim = sum(len(b) for b in blocks)
    h = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in blocks:
        h[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return h[np.ix_(perm, perm)]


class TestBlockWalk:
    """On an input whose nonzero pattern has more than one block, row p's
    candidates are its block-mates above p, each tested on the row as the
    last rotation left it: the same pairs in the same order as the scalar
    row-major walk, which tests every entry."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 7), st.data())
    def test_permuted_direct_sums(self, n, data):
        dim = 1 << n
        sizes: list[int] = []
        while sum(sizes) < dim:
            sizes.append(data.draw(st.integers(1, min(8, dim // 2, dim - sum(sizes)))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h = permuted_direct_sum([random_hermitian_unitary(rng, s) for s in sizes], rng.permutation(dim))
        assert sum(map(len, _blocks(h))) > 1
        assert diagonalize(h) == diagonalize_row_major(h)

    def test_entries_at_zero_tol(self):
        # two interleaved blocks: the odd indices are dense, and the even
        # ones are joined only by entries exactly at zero_tol, which are
        # skipped, and one ulp above it, which are rotated; each rotated
        # pair's diagonal entries differ, and rows 4 and 6 are empty past
        # their diagonal, so rows 0 and 2 keep their later entries
        tiny = DEFAULT_TOLERANCES.zero_tol
        above = np.nextafter(tiny, 1.0)
        h = np.diag([1.0, 0, -1.0, 0, -1.0, 0, 1.0, 0]).astype(complex)
        odd = [1, 3, 5, 7]
        h[np.ix_(odd, odd)] = random_hermitian_unitary(np.random.default_rng(8), 4)
        entries = {(0, 2): tiny, (0, 4): above, (0, 6): 1j * tiny, (2, 6): -1j * above}
        for (p, q), value in entries.items():
            h[p, q], h[q, p] = value, np.conj(value)
        assert [row.tolist() for idx in _blocks(h) for row in idx] == [[0, 2, 4, 6], odd]
        res = diagonalize(h)
        first = [(s.p, s.q) for s in res.steps[: res.sweep_rotations[0]]]
        assert [(p, q) for p, q in first if p % 2 == 0] == [(0, 4), (2, 6)]
        assert res == diagonalize_row_major(h)

    def test_rotation_fills_block_mate(self):
        # H (x) X on indices 1, 4, 6 and 7 beside Y on 0 and 5 and two fixed
        # points: entry (1, 6) is zero in the input until the rotation at
        # (1, 4) mixes in row 4, whose entry (4, 6) is not; the walk then
        # rotates (1, 6) in the same sweep
        h = np.diag([0, 0, 1.0, -1.0, 0, 0, 0, 0]).astype(complex)
        h[np.ix_([0, 5], [0, 5])] = PAULI_Y
        block = [1, 4, 6, 7]
        h[np.ix_(block, block)] = np.kron(HADAMARD, PAULI_X)
        assert h[1, 6] == 0 and h[1, 4] != 0 and h[4, 6] != 0
        res = diagonalize(h)
        assert [(s.p, s.q) for s in res.steps[:3]] == [(0, 5), (1, 4), (1, 6)]
        assert res == diagonalize_row_major(h)


def reflection(n: int, signs=()) -> np.ndarray:
    """I - 2 v v^T with v uniform, the listed entries of v negated."""
    v = np.full(1 << n, 1.0 / math.sqrt(1 << n))
    v[list(signs)] *= -1.0
    return (np.eye(1 << n) - 2.0 * np.outer(v, v)).astype(complex)


def unbalanced(rng: np.random.Generator, n: int) -> np.ndarray:
    """U diag(+/-1) U^dag with a Haar U and the -1 count uniform in 1..N-1."""
    dim = 1 << n
    signs = np.ones(dim)
    signs[: rng.integers(1, dim)] = -1.0
    rng.shuffle(signs)
    u = random_unitary(rng, dim)
    h = (u * signs) @ u.conj().T
    return (h + h.conj().T) / 2.0


def real_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """O diag(+/-1) O^T for a random orthogonal O."""
    o, _ = np.linalg.qr(rng.normal(size=(1 << n, 1 << n)))
    h = (o * rng.choice([-1.0, 1.0], size=1 << n)) @ o.T
    return ((h + h.T) / 2.0).astype(complex)


class TestReferenceWalk:
    """``diagonalize`` against ``diagonalize_row_major``, the scalar walk
    over ``rotate_reference``, field for field, on the benchmark's input
    generators and on structured inputs."""

    workloads = load_bench_workloads()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_dense(self, n):
        rng = np.random.default_rng(6000 + n)
        for index in range(3 if n < 6 else 1):
            h = self.workloads.dense_balanced(rng, index, n)
            assert diagonalize(h) == diagonalize_row_major(h)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_sparse(self, n):
        rng = np.random.default_rng(6100 + n)
        for index in range(2):  # a phased involution, then a block sum
            h = self.workloads.sparse_alternating(rng, index, n)
            assert diagonalize(h) == diagonalize_row_major(h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_real_symmetric(self, n):
        # O diag(+/-1) O^T for a random orthogonal O: real pivots, alpha 0.0
        h = real_symmetric(np.random.default_rng(6200 + n), n)
        res = diagonalize(h)
        assert all(step.alpha == 0.0 for step in res.steps)
        assert res == diagonalize_row_major(h)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_controlled_u(self, k):
        # C^k U with U in {H, X, Y} and one complex 2x2 Hermitian unitary,
        # on the last wire and on the first with a negative control: one
        # 2x2 block among fixed points
        v = np.array([[0.6, 0.8j], [-0.8j, -0.6]])
        for u in (HADAMARD, PAULI_X, PAULI_Y, v):
            for h in (controlled_u(u, k), controlled_u(u, k, target=0, negative=(k,))):
                assert sum(map(len, _blocks(h))) > 1
                assert diagonalize(h) == diagonalize_row_major(h)


class TestSameSignCut:
    """The pivot rule: a same-sign pair, in a block of any size, is
    rotated only above ``jacobi._SAME_SIGN_CUT``, until a sweep leaves
    more than 90% of the off-diagonal norm it started with."""

    workloads = load_bench_workloads()

    def test_zero_cut_is_every_pivot_rule(self, monkeypatch):
        # with the cut at 0.0, every pivot above zero_tol is rotated: the
        # scalar walk with its same-sign cut at 0, step for step
        rng = np.random.default_rng(7100)
        inputs = [self.workloads.dense_balanced(rng, 0, n) for n in range(1, 7)]
        inputs += [unbalanced(rng, 5), real_symmetric(rng, 5), reflection(5)]
        inputs += [block_direct_sum(rng, 6, 8), self.workloads.sparse_alternating(rng, 1, 6)]
        monkeypatch.setattr(jacobi, "_SAME_SIGN_CUT", 0.0)
        for h in inputs:
            assert diagonalize(h) == diagonalize_row_major(h, same_sign_cut=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_reflection(self, n, monkeypatch):
        # every pair is same-sign, with entries 2/N: above the cut at n <= 4,
        # where one sweep rotates all N - 1 pivots of row 0; from n = 5 on
        # the first sweep rotates nothing and the walk falls back. Either
        # way the steps are those of the every-pivot rule
        h = reflection(n)
        res = diagonalize(h)
        dim = 1 << n
        assert res.sweep_rotations == ((dim - 1,) if n <= 4 else (0, dim - 1))
        assert res == diagonalize_row_major(h)
        circuit, report = synthesize(h)
        assert report.verify_error <= 1e-11
        if n == 5:
            assert len(circuit.gates) == 166
        monkeypatch.setattr(jacobi, "_SAME_SIGN_CUT", 0.0)
        assert diagonalize(h).steps == res.steps
        assert serialize(synthesize(h)[0]) == serialize(circuit)

    @pytest.mark.parametrize(
        "make, cut, every",
        [
            (lambda rng: random_hermitian_unitary(rng, 4), (5, 3), (5, 1)),
            (lambda rng: block_direct_sum(rng, 3), (8, 3), (8, 1)),
        ],
        ids=["dense-4", "blocks-4x4"],
    )
    def test_small_blocks_take_the_cut(self, make, cut, every, monkeypatch):
        # blocks of 4 rows: the first sweep skips the same-sign entry (0, 3),
        # at or below the cut, which the every-pivot rule rotates
        h = make(np.random.default_rng(6))
        res = diagonalize(h)
        assert res.sweep_rotations == cut
        assert (0, 3) not in [(s.p, s.q) for s in res.steps[: cut[0]]]
        assert res == diagonalize_row_major(h)
        assert synthesize(h)[1].verify_error <= 1e-11
        monkeypatch.setattr(jacobi, "_SAME_SIGN_CUT", 0.0)
        plain = diagonalize(h)
        assert plain.sweep_rotations == every
        assert (0, 3) in [(s.p, s.q) for s in plain.steps[: every[0]]]

    def test_degenerate_same_sign_pair(self):
        # an 8-row reflection with a_00 == a_11 == 0.75 and a_01 = 0.25 above
        # the cut: the first rotation has theta = -pi/2 exactly, within the
        # step's bound, and it zeroes the pivot
        h = reflection(3, signs=[1])
        assert h[0, 0] == h[1, 1] and h[0, 1].real > jacobi._SAME_SIGN_CUT
        res = diagonalize(h)
        assert res.steps[0] == RotationStep(0, 1, -HALF_PI, 0.0)
        assert res == diagonalize_row_major(h)
        assert synthesize(h)[1].verify_error <= 1e-11

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("family", ["balanced", "unbalanced", "real_symmetric"])
    def test_fewer_sweeps_and_rotations(self, family, n, monkeypatch):
        # held-out seeds: at most 6 sweeps, and at least 3x fewer rotations
        # than the every-pivot rule (3.2-5.0x on these inputs), except at
        # n = 5 off the balanced family, where that rule already converges
        # fast on some inputs (2.0x and 3.2x here; 1.8-3.8x on seeds 100-103)
        rng = np.random.default_rng(7200 + n)
        make = {"balanced": lambda: self.workloads.dense_balanced(rng, 0, n),
                "unbalanced": lambda: unbalanced(rng, n),
                "real_symmetric": lambda: real_symmetric(rng, n)}[family]
        h = make()
        _, report = synthesize(h)
        assert report.sweeps <= 6
        assert report.verify_error <= 1e-11
        monkeypatch.setattr(jacobi, "_SAME_SIGN_CUT", 0.0)
        every = len(diagonalize(h).steps)
        gain = 3.0 if n > 5 or family == "balanced" else 1.5
        assert every >= gain * report.rotations_executed
