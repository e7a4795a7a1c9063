import math

import numpy as np
import pytest

from helpers import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, random_unitary
from hermsynth.errors import DimensionMismatch, ParseError
from hermsynth.matrices import (
    Tolerances,
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


class TestNorms:
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

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(zero_tol=0.0)


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
