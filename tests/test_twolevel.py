import math

import numpy as np
import pytest

from helpers import CH_EMBED, CZ_EMBED, random_hermitian_unitary, two_level_matrix
from hermsynth.circuit import Circuit, Gate, GateKind, counts, invert_gates, serialize, simulate
from hermsynth.diagonal import synthesize_sign_diagonal
from hermsynth.errors import VerificationFailed
from hermsynth.jacobi import RotationStep, diagonalize
from hermsynth.matrices import max_abs_diff
from hermsynth.optimize import OptLevel
from hermsynth.twolevel import (
    emit_two_level,
    gray_path,
    synthesize,
    verify_circuit,
)

RNG = np.random.default_rng(31415)


class TestGrayPath:
    def test_distance_two(self):
        assert gray_path(0, 3, 2) == (0, 2, 3)

    def test_adjacent(self):
        assert gray_path(0, 2, 2) == (0, 2)

    def test_full_distance(self):
        for n in (2, 3, 4):
            assert len(gray_path(0, (1 << n) - 1, n)) == n + 1

    def test_consecutive_states_adjacent(self):
        for n in (3, 4):
            for p in range(1 << n):
                for q in range(p + 1, 1 << n):
                    states = gray_path(p, q, n)
                    assert states[0] == p and states[-1] == q
                    for a, b in zip(states, states[1:]):
                        d = a ^ b
                        assert d and not (d & (d - 1))


class TestEmitTwoLevel:
    def test_single_controlled_ry(self):
        step = RotationStep(2, 3, -math.pi / 4, 0.0, False)
        gates = emit_two_level(step, 2)
        assert len(gates) == 1
        g = gates[0]
        assert g.kind is GateKind.RY and g.target == 1
        assert g.controls == ((0, True),)
        assert g.param == pytest.approx(-math.pi / 4)

    def test_phase_pair(self):
        step = RotationStep(2, 3, -math.pi / 2, -math.pi / 2, True)
        gates = emit_two_level(step, 2)
        kinds = [g.kind for g in gates]
        assert kinds == [GateKind.RY, GateKind.PHASE]
        assert gates[0].param == pytest.approx(-math.pi / 2)
        assert gates[1].param == pytest.approx(math.pi / 2)
        got = simulate(Circuit(2, gates))
        assert max_abs_diff(got, two_level_matrix(step, 4)) < 1e-12

    def test_ladder_case(self):
        step = RotationStep(0, 3, 0.7, 0.0, False)
        gates = emit_two_level(step, 2)
        kinds = [g.kind for g in gates]
        assert kinds == [GateKind.X, GateKind.RY, GateKind.X]
        got = simulate(Circuit(2, gates))
        assert max_abs_diff(got, two_level_matrix(step, 4)) < 1e-12

    def test_swapped_orientation_pair(self):
        # (1, 2): the path ends on the pivot-0 state, exercising the
        # orientation fix for complex pivots
        step = RotationStep(1, 2, -0.8, 1.1, True)
        got = simulate(Circuit(2, emit_two_level(step, 2)))
        assert max_abs_diff(got, two_level_matrix(step, 4)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_pair_exact(self, n):
        dim = 1 << n
        for p in range(dim):
            for q in range(p + 1, dim):
                for has_phase in (False, True):
                    step = RotationStep(p, q, 0.9, -2.3 if has_phase else 0.0, has_phase)
                    got = simulate(Circuit(n, emit_two_level(step, n)))
                    assert max_abs_diff(got, two_level_matrix(step, dim)) < 1e-12

    def test_identity_outside_pair(self):
        step = RotationStep(1, 6, 0.4, 0.9, True)
        m = simulate(Circuit(3, emit_two_level(step, 3)))
        for k in range(8):
            if k in (1, 6):
                continue
            assert m[k, k] == pytest.approx(1.0, abs=1e-12)
            row = np.delete(m[k, :], k)
            assert np.max(np.abs(row)) < 1e-12

    def test_ladder_length(self):
        # l - 1 transpositions on each side for Hamming distance l
        for n in (3, 4):
            for p in range(1 << n):
                for q in range(p + 1, 1 << n):
                    l = bin(p ^ q).count("1")
                    gates = emit_two_level(RotationStep(p, q, 0.3, 0.0, False), n)
                    lead = 0
                    while gates[lead].kind is GateKind.X:
                        lead += 1
                    assert lead == l - 1

    def test_adjacent_pairs_need_no_ladder(self):
        n = 3
        adjacent = 0
        for p in range(8):
            for q in range(p + 1, 8):
                step = RotationStep(p, q, 0.3, 0.0, False)
                gates = emit_two_level(step, n)
                if (p ^ q).bit_count() == 1:
                    adjacent += 1
                    assert all(g.kind is not GateKind.X for g in gates)
        assert adjacent == n * (1 << (n - 1))


class TestEmitExactGates:
    """Literal gate tuples at n = 3, pinned so that emission stays byte-identical."""

    def test_adjacent_pair(self):
        ctl = ((0, True), (2, True))
        assert emit_two_level(RotationStep(5, 7, 0.5, -0.25, True), 3) == (
            Gate(GateKind.RY, 1, ctl, 0.5),
            Gate(GateKind.PHASE, 1, ctl, 0.25),
        )

    def test_hamming_three_ladder(self):
        assert emit_two_level(RotationStep(0, 7, -0.75, 0.0, False), 3) == (
            Gate(GateKind.X, 0, ((1, False), (2, False))),
            Gate(GateKind.X, 1, ((0, True), (2, False))),
            Gate(GateKind.RY, 2, ((0, True), (1, True)), -0.75),
            Gate(GateKind.X, 1, ((0, True), (2, False))),
            Gate(GateKind.X, 0, ((1, False), (2, False))),
        )

    def test_swapped_orientation_with_phase(self):
        # the path 1 -> 3 -> 2 ends on the pivot-0 state
        ladder = Gate(GateKind.X, 1, ((0, False), (2, True)))
        ctl = ((0, False), (1, True))
        flip = Gate(GateKind.X, 2, ctl)
        assert emit_two_level(RotationStep(1, 2, 0.5, 1.25, True), 3) == (
            ladder,
            Gate(GateKind.RY, 2, ctl, -0.5),
            flip,
            Gate(GateKind.PHASE, 2, ctl, -1.25),
            flip,
            ladder,
        )


class TestSynthesize:
    def test_cz_is_one_gate(self):
        circuit, report = synthesize(CZ_EMBED)
        assert len(circuit.gates) == 1
        assert counts(circuit) == {"CZ": 1}
        assert report.verify_error <= 1e-12

    def test_ch_unoptimized_shape(self):
        circuit, _ = synthesize(CH_EMBED, opt_level=OptLevel.NONE)
        kinds = [(g.kind, g.param) for g in circuit.gates]
        assert kinds[0][0] is GateKind.RY and kinds[0][1] == pytest.approx(math.pi / 4)
        assert circuit.gates[0].controls == ((0, True),)
        assert kinds[1][0] is GateKind.Z
        assert kinds[2][0] is GateKind.RY and kinds[2][1] == pytest.approx(-math.pi / 4)

    def test_ch_optimized_matches_reference_row(self):
        circuit, report = synthesize(CH_EMBED)
        assert [g.kind for g in circuit.gates] == [GateKind.RY, GateKind.Z, GateKind.RY]
        assert not circuit.gates[0].controls and not circuit.gates[2].controls
        assert report.gate_counts == {"CZ": 1, "single": 2}

    def test_random_by_dimension(self):
        for dim in (2, 4, 8, 16):
            h = random_hermitian_unitary(RNG, dim)
            circuit, report = synthesize(h)
            assert report.verify_error <= 1e-9
            assert max_abs_diff(simulate(circuit), h) <= 1e-9

    def test_report_sweep_rotations(self):
        h = random_hermitian_unitary(RNG, 16)
        _, report = synthesize(h)
        assert report.sweep_rotations == diagonalize(h).sweep_rotations
        assert len(report.sweep_rotations) == report.sweeps
        assert sum(report.sweep_rotations) == report.rotations_executed

    def test_deterministic_text(self):
        # the same matrix always gives byte-identical circuit text
        for n in (1, 2, 3, 4):
            h = random_hermitian_unitary(RNG, 1 << n)
            first, _ = synthesize(h)
            second, _ = synthesize(h.copy())
            assert serialize(first) == serialize(second)

    def test_controlled_ry_budget(self):
        # two controlled RY gates per executed rotation before optimization
        h = random_hermitian_unitary(RNG, 8)
        circuit, report = synthesize(h, opt_level=OptLevel.NONE)
        n_ry = sum(1 for g in circuit.gates if g.kind is GateKind.RY)
        assert n_ry == 2 * report.rotations_executed

    def test_unoptimized_is_mirrored_rotations_around_diagonal(self):
        # W^dagger D W, with W the forward factors of the steps in reverse order
        h = random_hermitian_unitary(RNG, 8)
        result = diagonalize(h)
        forward = tuple(g for step in reversed(result.steps) for g in emit_two_level(step, 3))
        diag_gates, phase = synthesize_sign_diagonal(result.signs)
        circuit, _ = synthesize(h, opt_level=OptLevel.NONE)
        assert circuit.gates == invert_gates(forward) + diag_gates + forward
        assert circuit.global_phase == phase

    def test_minus_identity_global_phase(self):
        circuit, report = synthesize(-np.eye(4))
        assert circuit.global_phase == -1
        assert len(circuit.gates) == 0
        assert report.verify_error <= 1e-12

    def test_report_fields(self):
        h = random_hermitian_unitary(RNG, 4)
        circuit, report = synthesize(h)
        assert report.sweeps >= 1
        assert report.residual_offnorm <= 1e-12 * 4
        assert sum(report.gate_counts.values()) == len(circuit.gates)
        assert report.opt_level is OptLevel.FULL


class TestVerifyCircuit:
    def test_raises_above_tolerance(self):
        with pytest.raises(VerificationFailed) as exc:
            verify_circuit(Circuit(2), CH_EMBED)
        assert exc.value.error > 0.5
