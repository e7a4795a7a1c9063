import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    block_direct_sum,
    components_reference,
    controlled_u,
    phased_involution,
    random_hermitian_unitary,
    random_unitary,
)
from hermsynth.errors import DimensionMismatch, ParseError
from hermsynth.matrices import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _blocks,
    format_matrix,
    is_hermitian,
    is_unitary,
    load_matrix,
    max_abs_diff,
    off_norm,
    parse_matrix,
    save_matrix,
)

RNG = np.random.default_rng(1234)


class TestPredicates:
    @pytest.mark.parametrize("m", [PAULI_X, PAULI_Y, PAULI_Z])
    def test_paulis_hermitian(self, m):
        assert is_hermitian(m)

    def test_s_not_hermitian(self):
        assert not is_hermitian(np.diag([1.0, 1j]))

    def test_ch_embedding_hermitian(self):
        ch = np.eye(4, dtype=complex)
        ch[2:, 2:] = HADAMARD
        assert is_hermitian(ch)

    def test_rotation_unitary(self):
        c, s = math.cos(0.15), math.sin(0.15)
        assert is_unitary(np.array([[c, s], [-s, c]]))

    def test_scaled_diag_not_unitary(self):
        assert not is_unitary(np.diag([1.0, 2.0]))

    def test_cy_embedding_unitary(self):
        cy = np.eye(4, dtype=complex)
        cy[2:, 2:] = PAULI_Y
        assert is_unitary(cy)


def dense_verdict(m) -> bool:
    """is_unitary's verdict from the whole product m m^H."""
    m = np.asarray(m, dtype=complex)
    deviation = np.abs(m @ m.conj().T - np.eye(len(m)))
    return float(np.max(deviation)) <= DEFAULT_TOLERANCES.unitary_tol


def dense_hermitian_verdict(m) -> bool:
    """is_hermitian's verdict from the whole difference m - m^H."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T))) <= DEFAULT_TOLERANCES.hermitian_tol


def permuted(m, rng):
    p = rng.permutation(len(m))
    return m[np.ix_(p, p)]


def unitary_cases():
    rng = np.random.default_rng(77)
    cases = [("identity", np.eye(16)), ("identity1", np.eye(1))]
    for n in (2, 4, 6):
        cases += [(f"blocks{n}", permuted(block_direct_sum(rng, n), rng)),
                  (f"blocks{n}x2", permuted(block_direct_sum(rng, n, 2), rng)),
                  (f"involution{n}", phased_involution(rng, n)),
                  (f"dense{n}", random_hermitian_unitary(rng, 1 << n))]
    for name, u in (("X", PAULI_X), ("Y", PAULI_Y), ("H", HADAMARD)):
        cases += [(f"C{k}{name}", controlled_u(u, k)) for k in range(1, 9)]
    # not Hermitian: a cyclic shift, whose pattern has an entry (i, j)
    # without (j, i), permuted, and a unitary with two blocks of 8
    shift = np.roll(np.eye(32), 1, axis=1)
    two = np.zeros((16, 16), dtype=complex)
    two[:8, :8], two[8:, 8:] = random_unitary(rng, 8), random_unitary(rng, 8)
    cases += [("shift", permuted(shift, rng)), ("two_unitaries", permuted(two, rng))]
    zero_row = np.eye(8)
    zero_row[3] = 0.0
    cases += [("zero_row", zero_row), ("zero_column", zero_row.T.copy())]
    return cases


UNITARY_CASES = unitary_cases()


class TestBlockUnitary:
    """is_unitary forms m m^H one block of m's nonzero pattern at a time;
    its verdict must be that of the whole product."""

    @pytest.mark.parametrize("name, m", UNITARY_CASES, ids=[name for name, _ in UNITARY_CASES])
    def test_matches_dense_verdict(self, name, m):
        expected = not name.startswith("zero")
        assert dense_verdict(m) == expected
        assert is_unitary(m) == expected

    @pytest.mark.parametrize("block", [2, 4])
    def test_perturbations_rejected(self, block):
        # 2e-10 inside a block, and at an entry between two blocks (which
        # joins them in the pattern): both break unitarity beyond 1e-10
        rng = np.random.default_rng(block)
        h = block_direct_sum(rng, 5, block)
        p = rng.permutation(32)
        inside, between = h.copy(), h.copy()
        inside[1, 0] += 2e-10
        between[0, block] = 2e-10
        for m in (inside, between, inside[np.ix_(p, p)], between[np.ix_(p, p)]):
            assert not dense_verdict(m)
            assert not is_unitary(m)
        assert is_unitary(h) and is_unitary(h[np.ix_(p, p)])


class TestBlockHermitian:
    """is_hermitian forms m - m^H one block of m's nonzero pattern at a
    time; its verdict must be that of the whole difference."""

    @pytest.mark.parametrize("name, m", UNITARY_CASES, ids=[name for name, _ in UNITARY_CASES])
    def test_matches_dense_verdict(self, name, m):
        expected = name not in ("shift", "two_unitaries")
        assert dense_hermitian_verdict(m) == expected
        assert is_hermitian(m) == expected

    def test_deviation_in_each_block_size(self):
        # blocks of sizes 1, 2, 4, 8 and 16, permuted: a deviation of 2e-10
        # inside any one of them is rejected, 5e-11 accepted (on a 1 x 1
        # block, an imaginary diagonal entry)
        rng = np.random.default_rng(40)
        h = np.zeros((32, 32), dtype=complex)
        starts = {1: 0, 2: 2, 4: 4, 8: 8, 16: 16}
        h[1, 1] = -1.0
        for size, start in starts.items():
            h[start : start + size, start : start + size] = random_hermitian_unitary(rng, size)
        p = rng.permutation(32)
        for size, start in starts.items():
            for value, expected in ((2e-10, False), (5e-11, True)):
                m = h.copy()
                m[start + size - 1, start] += value * (1j if size == 1 else 1.0)
                m = m[np.ix_(p, p)]
                assert [idx.shape[1] for idx in _blocks(m)] == [1, 2, 4, 8, 16]
                assert dense_hermitian_verdict(m) == expected
                assert is_hermitian(m) == expected

    @pytest.mark.parametrize("block", [2, 4])
    def test_unmirrored_entry_between_blocks(self, block):
        # an entry whose mirror is zero joins two blocks in the pattern:
        # 2e-10 there is beyond hermitian_tol, 5e-11 within it
        rng = np.random.default_rng(20 + block)
        h = block_direct_sum(rng, 5, block)
        p = rng.permutation(32)
        for value, expected in ((2e-10, False), (5e-11, True)):
            m = h.copy()
            m[0, block] = value
            assert m[block, 0] == 0
            assert len(_blocks(m)[0]) == 32 // block - 2
            for case in (m, m[np.ix_(p, p)]):
                assert dense_hermitian_verdict(case) == expected
                assert is_hermitian(case) == expected


def check_blocks(m: np.ndarray) -> None:
    """_blocks against the reference, and in its documented layout."""
    expected = components_reference(m != 0)
    blocks = _blocks(m)
    if blocks is None:
        assert expected == {frozenset(range(len(m)))}
        return
    sizes = [idx.shape[1] for idx in blocks]
    assert sizes == sorted(set(sizes))
    assert all(np.all(np.diff(idx, axis=1) > 0) for idx in blocks)
    assert {frozenset(row.tolist()) for idx in blocks for row in idx} == expected
    assert len(expected) > 1


def scrambled_path(rng, dim: int) -> np.ndarray:
    p = rng.permutation(dim)
    m = np.zeros((dim, dim), dtype=complex)
    m[p[:-1], p[1:]] = 1.0
    return m


def lollipop(rng, dim: int) -> np.ndarray:
    """A clique on half the indices with a path hanging off it, permuted."""
    m = np.zeros((dim, dim), dtype=complex)
    half = dim // 2
    m[:half, :half] = 1.0
    m[np.arange(half - 1, dim - 1), np.arange(half, dim)] = 1j
    return permuted(m, rng)


class TestBlockLabels:
    @pytest.mark.parametrize("n", [1, 3, 8, 10])
    def test_scrambled_path(self, n):
        rng = np.random.default_rng(n)
        m = scrambled_path(rng, 1 << n)
        check_blocks(m)
        cut = m.copy()
        cut[np.nonzero(cut)[0][0]] = 0.0  # one row emptied: two or three blocks
        check_blocks(cut)

    @pytest.mark.parametrize("n", [2, 8, 10])
    def test_lollipop(self, n):
        check_blocks(lollipop(np.random.default_rng(n), 1 << n))

    @pytest.mark.parametrize("n, block", [(2, 2), (6, 4), (8, 4), (8, 16), (10, 4)])
    def test_permuted_blocks(self, n, block):
        rng = np.random.default_rng(n + block)
        check_blocks(permuted(block_direct_sum(rng, n, block), rng))

    def test_one_block_shortcut(self):
        # row 0 without zeros, and a pattern joined only through column 0
        assert _blocks(np.ones((8, 8))) is None
        star = np.eye(8)
        star[1:, 0] = 1e-300
        assert _blocks(star) is None
        check_blocks(np.eye(8))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 48), st.data())
    def test_random_patterns(self, dim, data):
        entries = data.draw(st.lists(
            st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=2 * dim
        ))
        m = np.zeros((dim, dim), dtype=complex)
        for i, j in entries:
            m[i, j] = data.draw(st.sampled_from([1.0, -1e-300, 1e-300j, -2.5j]))
        check_blocks(m)


def off_norm_reference(a) -> float:
    """off_norm as first written: a complex copy with its diagonal zeroed,
    then moduli squared and summed."""
    off = np.asarray(a, dtype=complex).copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def off_norm_cases():
    rng = np.random.default_rng(99)
    ginibre = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    special = np.full((16, 16), -0.0 - 0.0j)
    special[0, 3] = 5e-324
    special[1, 2] = 1e-310 - 2e-320j
    special[2, 1] = -0.0 + 1e-300j
    special[3, 0] = 1e200
    special[4, 4] = 1e200j  # on the diagonal: not counted
    special[5, 6] = 3.0 - 4.0j
    huge = ginibre[:16, :16].copy()
    huge[7, 8] = -1e200 + 1e200j  # squares to inf
    # a matrix whose squared moduli sum to other bits in column order
    rng9 = np.random.default_rng(9)
    gin9 = rng9.normal(size=(64, 64)) + 1j * rng9.normal(size=(64, 64))
    return [
        ("dense", random_hermitian_unitary(rng, 32)),
        ("ginibre", ginibre),
        ("column_major", np.asfortranarray(gin9)),
        ("transposed", gin9.T),
        ("strided", ginibre[::2, ::3][:20, :20]),
        ("blocks", permuted(block_direct_sum(rng, 7), rng)),
        ("involution", phased_involution(rng, 8)),
        ("diagonal", np.diag(rng.normal(size=64) + 1j * rng.normal(size=64))),
        ("special", special),
        ("huge", huge),
        ("one", np.array([[-0.0]])),
    ]


def same_off_norm_bits(m) -> bool:
    # 1e200 squares to inf, with numpy's overflow warning on both sides
    with np.errstate(over="ignore"):
        new, old = off_norm(m), off_norm_reference(m)
    return np.array([new]).view(np.uint64)[0] == np.array([old]).view(np.uint64)[0]


class TestNorms:
    @pytest.mark.parametrize("name, m", off_norm_cases(), ids=[name for name, _ in off_norm_cases()])
    def test_off_norm_bits(self, name, m):
        assert same_off_norm_bits(m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
    def test_off_norm_bits_random(self, dim, seed, column_major):
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-12, 0.7, -3.0, 1e200])
        m = rng.choice(values, size=(dim, dim)) + 1j * rng.choice(values, size=(dim, dim))
        m[rng.random((dim, dim)) < 0.5] *= rng.normal()
        assert same_off_norm_bits(np.asfortranarray(m) if column_major else m)

    def test_off_norm_diagonal(self):
        assert off_norm(np.diag([3.0, -2.0, 5.0])) == 0.0

    def test_off_norm_x(self):
        assert off_norm(PAULI_X) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_off_norm_hadamard(self):
        assert off_norm(HADAMARD) == pytest.approx(1.0, abs=1e-15)

    def test_frobenius_split(self):
        a = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
        total = np.sum(np.abs(a) ** 2)
        diag = np.sum(np.abs(np.diagonal(a)) ** 2)
        assert off_norm(a) ** 2 + diag == pytest.approx(total, rel=1e-12)

    def test_max_abs_diff_self(self):
        a = RNG.normal(size=(3, 3))
        assert max_abs_diff(a, a) == 0.0

    def test_max_abs_diff_i_z(self):
        assert max_abs_diff(np.eye(2), PAULI_Z) == 2.0

    def test_max_abs_diff_x_y(self):
        assert max_abs_diff(PAULI_X, PAULI_Y) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_max_abs_diff_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_abs_diff(np.eye(2), np.eye(4))


class TestTolerances:
    def test_defaults_positive(self):
        t = Tolerances()
        assert t.zero_tol == 1e-12 and t.verify_tol == 1e-9

    def test_fixed(self):
        # no argument to set, and no attribute to assign
        with pytest.raises(TypeError):
            Tolerances(zero_tol=0.0)
        t = Tolerances()
        with pytest.raises(AttributeError):
            t.zero_tol = 0.0
        assert t.zero_tol == DEFAULT_TOLERANCES.zero_tol == 1e-12


class TestTextFormat:
    def test_round_trip_exact(self, tmp_path):
        m = random_unitary(RNG, 4)
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    def test_comments_and_blanks(self):
        text = "# a matrix\n\ndim 2\n1,0 0,0\n# middle\n0,0 -1,0\n"
        assert np.array_equal(parse_matrix(text), np.diag([1.0, -1.0]).astype(complex))

    def test_header_first(self):
        assert format_matrix(np.eye(2)).splitlines()[0] == "dim 2"

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_matrix("1,0 0,0\n0,0 1,0\n")

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError):
            parse_matrix("dim 2\n1,0\n0,0 1,0\n")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_matrix("dim 1\nnope\n")

    def test_too_few_rows(self):
        with pytest.raises(ParseError):
            parse_matrix("dim 2\n1,0 0,0\n")

    @pytest.mark.parametrize(
        "text, line",
        [("# c\ndim 2\n1,0 0,0\n", 3), ("dim 2\n1,0 0,0\n\n# end\n", 4)],
    )
    def test_too_few_rows_names_last_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: expected 2 rows, got 1"

    @pytest.mark.parametrize("text, line", [("", 1), ("# a\n# b\n", 2), ("\n# a\n\n", 3)])
    def test_empty_file_names_last_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert str(exc.value) == f"line {line}: empty matrix file"

    @pytest.mark.parametrize("token", ["nan,0", "0,inf", "-inf,0"])
    def test_non_finite_entry(self, token):
        with pytest.raises(ParseError) as exc:
            parse_matrix(f"dim 2\n1,0 0,0\n0,0 {token}\n")
        assert exc.value.line == 3
