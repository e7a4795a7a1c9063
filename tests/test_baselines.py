import math

import numpy as np
import pytest

from helpers import HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, controlled_4x4
from hermsynth.baselines import (
    TABULATED_MCU_COUNTS,
    H2Params,
    barenco_cu,
    formula_mcu_counts,
    h2_matrix,
    h2_params,
    jacobi_cu,
    qsd_cu,
)
from hermsynth.circuit import Circuit, Gate, GateKind, counts, simulate
from hermsynth.errors import IsPlusMinusIdentity, NotHermitianUnitary
from hermsynth.matrices import max_abs_diff

PI = math.pi


def grid_params():
    for theta in np.linspace(0.05, PI - 0.05, 7):
        for alpha in np.linspace(-PI + 0.1, PI, 8):
            yield H2Params(float(theta), float(alpha))


class TestH2Params:
    def test_hadamard(self):
        p = h2_params(HADAMARD)
        assert p.theta == pytest.approx(PI / 4, abs=1e-12)
        assert p.alpha == 0.0

    def test_pauli_y(self):
        p = h2_params(PAULI_Y)
        assert p.theta == pytest.approx(PI / 2, abs=1e-12)
        assert p.alpha == pytest.approx(PI / 2, abs=1e-12)

    def test_pauli_x(self):
        p = h2_params(PAULI_X)
        assert p.theta == pytest.approx(PI / 2, abs=1e-12)
        assert p.alpha == 0.0

    def test_pauli_z(self):
        p = h2_params(PAULI_Z)
        assert p.theta == 0.0 and p.alpha == 0.0

    def test_identity_rejected(self):
        with pytest.raises(IsPlusMinusIdentity) as err:
            h2_params(np.eye(2))
        assert err.value.sign == 1

    def test_minus_identity_rejected(self):
        with pytest.raises(IsPlusMinusIdentity) as err:
            h2_params(-np.eye(2))
        assert err.value.sign == -1

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianUnitary):
            h2_params(np.diag([1.0, 1j]))

    def test_round_trip_on_grid(self):
        for p in grid_params():
            back = h2_params(h2_matrix(p.theta, p.alpha))
            assert back.theta == pytest.approx(p.theta, abs=1e-10)
            # alpha wraps at pi
            diff = (back.alpha - p.alpha) % (2 * PI)
            assert min(diff, 2 * PI - diff) < 1e-10


def gate_signature(c: Circuit):
    return [(g.kind, g.param) for g in c.gates]


class TestJacobiCu:
    def test_ch_sequence(self):
        c = jacobi_cu(h2_params(HADAMARD), 1)
        sig = gate_signature(c)
        assert sig[0][0] is GateKind.RY and sig[0][1] == pytest.approx(PI / 4, abs=1e-12)
        assert sig[1][0] is GateKind.Z
        assert sig[2][0] is GateKind.RY and sig[2][1] == pytest.approx(-PI / 4, abs=1e-12)

    def test_cy_sequence(self):
        c = jacobi_cu(h2_params(PAULI_Y), 1)
        kinds = [g.kind for g in c.gates]
        assert kinds == [GateKind.SDG, GateKind.RY, GateKind.Z, GateKind.RY, GateKind.S]
        assert c.gates[1].param == pytest.approx(PI / 2, abs=1e-12)
        assert c.gates[3].param == pytest.approx(-PI / 2, abs=1e-12)

    def test_cnot_sequence(self):
        c = jacobi_cu(h2_params(PAULI_X), 1)
        sig = gate_signature(c)
        assert [k for k, _ in sig] == [GateKind.RY, GateKind.Z, GateKind.RY]
        assert sig[0][1] == pytest.approx(PI / 2, abs=1e-12)

    def test_cz_sequence(self):
        c = jacobi_cu(h2_params(PAULI_Z), 1)
        assert gate_signature(c) == [(GateKind.Z, None)]
        assert c.gates[0].controls == ((0, True),)

    def test_outer_gates_uncontrolled(self):
        c = jacobi_cu(h2_params(HADAMARD), 1)
        assert not c.gates[0].controls and not c.gates[2].controls

    def test_exact_on_grid(self):
        for p in grid_params():
            cu = controlled_4x4(h2_matrix(p.theta, p.alpha))
            assert max_abs_diff(simulate(jacobi_cu(p, 1)), cu) < 1e-12

    def test_toffoli_as_double_controlled_x(self):
        c = jacobi_cu(h2_params(PAULI_X), 2)
        ccx = simulate(Circuit(3, (Gate(GateKind.X, 2, ((0, True), (1, True))),)))
        assert max_abs_diff(simulate(c), ccx) < 1e-12
        assert counts(c) == {"MCZ": 1, "single": 2}

    def test_count_rule(self):
        # one controlled Z plus two rotations, four when a phase is present
        real = jacobi_cu(H2Params(0.4, 0.0), 3)
        assert counts(real) == {"MCZ": 1, "single": 2}
        complex_ = jacobi_cu(H2Params(0.4, 1.2), 3)
        assert counts(complex_) == {"MCZ": 1, "single": 4}


class TestBarencoCu:
    def test_x_is_bare_cnot(self):
        c = barenco_cu(h2_params(PAULI_X))
        assert gate_signature(c) == [(GateKind.X, None)]
        assert c.gates[0].controls == ((0, True),)

    def test_hadamard_pattern(self):
        c = barenco_cu(h2_params(HADAMARD))
        sig = gate_signature(c)
        assert [k for k, _ in sig] == [GateKind.RY, GateKind.X, GateKind.RY]
        assert sig[0][1] == pytest.approx(-PI / 4, abs=1e-12)
        assert sig[2][1] == pytest.approx(PI / 4, abs=1e-12)

    def test_y_pattern(self):
        c = barenco_cu(h2_params(PAULI_Y))
        sig = gate_signature(c)
        assert [k for k, _ in sig] == [GateKind.RZ, GateKind.X, GateKind.RZ]
        assert sig[0][1] == pytest.approx(-PI / 2, abs=1e-12)

    def test_exact_up_to_phase_on_grid(self):
        for p in grid_params():
            cu = controlled_4x4(h2_matrix(p.theta, p.alpha))
            c = barenco_cu(p)
            assert max_abs_diff(simulate(c), c.global_phase * cu) < 1e-10


class TestQsdCu:
    @pytest.mark.parametrize(
        "u,expected_single",
        [(HADAMARD, 6), (PAULI_Y, 7), (PAULI_X, 6), (PAULI_Z, 4)],
    )
    def test_reference_counts(self, u, expected_single):
        c = qsd_cu(h2_params(u))
        hist = counts(c)
        assert hist["CNOT"] == 2
        assert hist.get("single", 0) == expected_single

    def test_cnots_point_up(self):
        c = qsd_cu(h2_params(HADAMARD))
        cnots = [g for g in c.gates if g.kind is GateKind.X and g.controls]
        assert all(g.target == 0 and g.controls == ((1, True),) for g in cnots)

    def test_exact_up_to_phase_on_grid(self):
        for p in grid_params():
            cu = controlled_4x4(h2_matrix(p.theta, p.alpha))
            c = qsd_cu(p)
            assert max_abs_diff(simulate(c), c.global_phase * cu) < 1e-10

    @pytest.mark.parametrize("u", [HADAMARD, PAULI_Y, PAULI_X, PAULI_Z])
    def test_named_gates_exact(self, u):
        c = qsd_cu(h2_params(u))
        assert max_abs_diff(simulate(c), controlled_4x4(u)) < 1e-12


class TestFormulas:
    def test_barenco_reference_points(self):
        assert formula_mcu_counts(7, "barenco") == (122, 124)
        assert formula_mcu_counts(8, "barenco") == (170, 172)
        assert formula_mcu_counts(9, "barenco") == (218, 220)

    def test_jacobi_reference_points(self):
        assert formula_mcu_counts(9, "jacobi") == (168, 146)
        assert formula_mcu_counts(7, "jacobi") == (120, 98)

    def test_jacobi_two_qubit_discrepancy(self):
        # tabulated CZ counts at n = 7 and 8 differ from the closed form;
        # single-qubit counts agree everywhere
        for n in (7, 8):
            formula = formula_mcu_counts(n, "jacobi")
            table = TABULATED_MCU_COUNTS[("jacobi", n)]
            assert formula[0] != table[0]
            assert formula[1] == table[1]
        assert formula_mcu_counts(9, "jacobi") == TABULATED_MCU_COUNTS[("jacobi", 9)]

    def test_barenco_table_consistent(self):
        for n in (7, 8, 9):
            assert formula_mcu_counts(n, "barenco") == TABULATED_MCU_COUNTS[("barenco", n)]

    def test_range_check(self):
        with pytest.raises(ValueError):
            formula_mcu_counts(4, "jacobi")
        with pytest.raises(ValueError):
            formula_mcu_counts(7, "qsd")
