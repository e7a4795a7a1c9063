import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CH_EMBED,
    CZ_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    assemble_whole,
    block_direct_sum,
    phased_involution,
    random_hermitian_unitary,
    two_level_matrix,
)
from hermsynth import twolevel
from hermsynth.circuit import Circuit, Gate, GateKind, counts, invert_gates, serialize, simulate
from hermsynth.diagonal import synthesize_sign_diagonal
from hermsynth.errors import IndexOutOfRange, VerificationFailed
from hermsynth.jacobi import RotationStep, diagonalize
from hermsynth.matrices import max_abs_diff
from hermsynth.optimize import OptLevel, optimize
from hermsynth.twolevel import (
    build_circuit,
    circuit_error,
    emit_two_level,
    gray_path,
    mirror_depth,
    mirror_matrix,
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
        step = RotationStep(2, 3, -math.pi / 4, 0.0)
        gates = emit_two_level(step, 2)
        assert len(gates) == 1
        g = gates[0]
        assert g.kind is GateKind.RY and g.target == 1
        assert g.controls == ((0, True),)
        assert g.param == pytest.approx(-math.pi / 4)

    def test_phase_pair(self):
        step = RotationStep(2, 3, -math.pi / 2, -math.pi / 2)
        gates = emit_two_level(step, 2)
        kinds = [g.kind for g in gates]
        assert kinds == [GateKind.RY, GateKind.PHASE]
        assert gates[0].param == pytest.approx(-math.pi / 2)
        assert gates[1].param == pytest.approx(math.pi / 2)
        got = simulate(Circuit(2, gates))
        assert max_abs_diff(got, two_level_matrix(step, 4)) < 1e-12

    def test_ladder_case(self):
        step = RotationStep(0, 3, 0.7, 0.0)
        gates = emit_two_level(step, 2)
        kinds = [g.kind for g in gates]
        assert kinds == [GateKind.X, GateKind.RY, GateKind.X]
        got = simulate(Circuit(2, gates))
        assert max_abs_diff(got, two_level_matrix(step, 4)) < 1e-12

    def test_swapped_orientation_pair(self):
        # (1, 2): the path ends on the pivot-0 state, exercising the
        # orientation fix for complex pivots
        step = RotationStep(1, 2, -0.8, 1.1)
        got = simulate(Circuit(2, emit_two_level(step, 2)))
        assert max_abs_diff(got, two_level_matrix(step, 4)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_pair_exact(self, n):
        dim = 1 << n
        for p in range(dim):
            for q in range(p + 1, dim):
                for alpha in (0.0, -2.3):
                    step = RotationStep(p, q, 0.9, alpha)
                    got = simulate(Circuit(n, emit_two_level(step, n)))
                    assert max_abs_diff(got, two_level_matrix(step, dim)) < 1e-12

    def test_identity_outside_pair(self):
        step = RotationStep(1, 6, 0.4, 0.9)
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
                    gates = emit_two_level(RotationStep(p, q, 0.3, 0.0), n)
                    lead = 0
                    while gates[lead].kind is GateKind.X:
                        lead += 1
                    assert lead == l - 1

    def test_adjacent_pairs_need_no_ladder(self):
        n = 3
        adjacent = 0
        for p in range(8):
            for q in range(p + 1, 8):
                step = RotationStep(p, q, 0.3, 0.0)
                gates = emit_two_level(step, n)
                if (p ^ q).bit_count() == 1:
                    adjacent += 1
                    assert all(g.kind is not GateKind.X for g in gates)
        assert adjacent == n * (1 << (n - 1))

    @pytest.mark.parametrize("p, q, n", [(0, 4, 2), (3, 8, 3), (7, 8, 3), (0, 1 << 6, 5)])
    def test_step_outside_register_raises(self, p, q, n):
        with pytest.raises(IndexOutOfRange, match=rf"^need 0 <= p < q < 2\^{n}, got \({p}, {q}\)$"):
            emit_two_level(RotationStep(p, q, 0.3, 0.7), n)


class TestEmitExactGates:
    """Literal gate tuples at n = 3, pinned so that emission stays byte-identical."""

    def test_adjacent_pair(self):
        ctl = ((0, True), (2, True))
        assert emit_two_level(RotationStep(5, 7, 0.5, -0.25), 3) == (
            Gate(GateKind.RY, 1, ctl, 0.5),
            Gate(GateKind.PHASE, 1, ctl, 0.25),
        )

    def test_hamming_three_ladder(self):
        assert emit_two_level(RotationStep(0, 7, -0.75, 0.0), 3) == (
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
        assert emit_two_level(RotationStep(1, 2, 0.5, 1.25), 3) == (
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

    def test_report_sweep_residuals(self):
        h = random_hermitian_unitary(RNG, 16)
        _, report = synthesize(h)
        assert report.sweep_residuals == diagonalize(h).sweep_residuals
        assert len(report.sweep_residuals) == report.sweeps
        assert report.sweep_residuals[-1] == report.residual_offnorm

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


def near_identity(sign: float, n: int) -> np.ndarray:
    """sign * I + E with E Hermitian at the 1e-12 scale: two sweeps of
    rotations at or just above ``zero_tol`` and an empty sign diagonal."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    return sign * np.eye(1 << n) + 2e-12 * (a + a.conj().T)


def controlled_u(u: np.ndarray, k: int) -> np.ndarray:
    h = np.eye(2 << k, dtype=complex)
    h[-2:, -2:] = u
    return h


def kron_input(rng, n: int) -> np.ndarray:
    h = HADAMARD
    for _ in range(n - 1):
        h = np.kron(h, random_hermitian_unitary(rng, 2))
    return h


def build_inputs():
    rng = np.random.default_rng(2718)
    cases = [(f"dense{n}", random_hermitian_unitary(rng, 1 << n)) for n in range(1, 6)]
    for n in (2, 4, 6):
        cases += [(f"involution{n}", phased_involution(rng, n)),
                  (f"blocks{n}", block_direct_sum(rng, n))]
    for name, u in (("H", HADAMARD), ("X", PAULI_X), ("Y", PAULI_Y)):
        cases += [(f"C{k}{name}", controlled_u(u, k)) for k in (1, 2, 4)]
    cases += [(f"kron{n}", kron_input(rng, n)) for n in (2, 3, 4)]
    cases += [(f"near{s:+d}I{n}", near_identity(s, n)) for s in (1, -1) for n in (2, 3)]
    return cases


BUILD_INPUTS = build_inputs()


class TestBuildCircuit:
    """``build_circuit`` optimizes the forward half and the window around
    the centre; its circuit must equal ``optimize`` of the whole assembled
    W^dagger D W gate for gate (tests/helpers.assemble_whole)."""

    @pytest.mark.parametrize("level", list(OptLevel), ids=lambda lv: lv.value)
    @pytest.mark.parametrize("name, h", BUILD_INPUTS, ids=[name for name, _ in BUILD_INPUTS])
    def test_equals_whole_circuit_optimized(self, name, h, level):
        circuit, result = build_circuit(h, level)
        n = circuit.n_qubits
        expected = optimize(assemble_whole(result, n), level)
        assert circuit.gates == expected.gates
        assert circuit.global_phase == expected.global_phase
        assert serialize(circuit) == serialize(expected)

    @pytest.mark.parametrize(
        "sign, n, rotations, sweeps, gates_none",
        [(1, 2, 9, 2, 46), (-1, 2, 9, 2, 46), (1, 3, 47, 2, 318), (-1, 3, 47, 2, 318)],
    )
    def test_centre_cancels_away(self, sign, n, rotations, sweeps, gates_none):
        # rotations run, the sign diagonal is empty, and at BASIC and FULL
        # the two halves cancel to the empty circuit
        h = near_identity(sign, n)
        for level in OptLevel:
            circuit, report = synthesize(h, level)
            assert report.rotations_executed == rotations
            assert report.sweeps == sweeps
            assert circuit.global_phase == sign
            expected = gates_none if level is OptLevel.NONE else 0
            assert len(circuit.gates) == expected
            assert report.verify_error <= 1e-11
        assert synthesize_sign_diagonal(diagonalize(h).signs) == ((), sign)


def site(n, kind, target, mask, polarity, angle):
    controls = tuple(
        (q, bool(polarity >> q & 1)) for q in range(n) if q != target and mask >> q & 1
    )
    return Gate(kind, target, controls, angle if kind.parametric else None)


@st.composite
def gate_lists(draw, n, kinds, max_size):
    everyone = (1 << n) - 1
    gates = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(kinds))
        target = draw(st.integers(0, n - 1))
        mask = draw(st.integers(0, everyone))
        polarity = draw(st.integers(0, everyone))
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi))
        gates.append(site(n, kind, target, mask, polarity, angle))
    return tuple(gates)


@st.composite
def mirrored_circuits(draw):
    """invert_gates(W) + C + W with W over every kind, mixed control
    counts, C diagonal or not, and a global phase."""
    n = draw(st.integers(1, 5))
    forward = draw(gate_lists(n, list(GateKind), 25))
    centre_kinds = draw(st.sampled_from(
        [[k for k in GateKind if k.diagonal], list(GateKind)]
    ))
    centre = draw(gate_lists(n, centre_kinds, 6))
    phase = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return Circuit(n, invert_gates(forward) + centre + forward, phase), len(forward)


class TestMirrorRoute:
    """W^dagger C W as phase M C M^H: M is the simulated half, C the centre."""

    def test_mirror_depth(self):
        ry = Gate(GateKind.RY, 1, ((0, True),), 0.3)
        s, sdg = Gate(GateKind.S, 0), Gate(GateKind.SDG, 0)
        x, z = Gate(GateKind.X, 1, ((0, False),)), Gate(GateKind.Z, 1)
        ry_inv = Gate(GateKind.RY, 1, ((0, True),), -0.3)
        assert mirror_depth(()) == 0
        assert mirror_depth((ry,)) == 0
        assert mirror_depth((ry_inv, ry)) == 1
        assert mirror_depth((ry, ry)) == 0
        assert mirror_depth((s, sdg)) == mirror_depth((sdg, s)) == 1
        assert mirror_depth((s, s)) == 0
        assert mirror_depth((x, ry_inv, z, ry, x)) == 2  # the middle gate is the centre
        assert mirror_depth((x, ry_inv, ry, x)) == 2
        assert mirror_depth((Gate(GateKind.RY, 1, ((0, False),), -0.3), ry)) == 0
        assert mirror_depth((Gate(GateKind.RY, 0, (), -0.3), Gate(GateKind.RY, 1, (), 0.3))) == 0

    @settings(max_examples=80, deadline=None)
    @given(mirrored_circuits())
    def test_matches_simulate(self, case):
        circuit, half = case
        k = mirror_depth(circuit.gates)
        assert k >= half
        reference = simulate(circuit)
        for depth in {half, k}:
            assert max_abs_diff(mirror_matrix(circuit, depth), reference) <= 1e-12

    def test_route_by_size(self, monkeypatch):
        # len(gates) << 12 >= N^3 takes the route: at n = 2 from one gate
        # on, at n = 8 from 4096 gates
        simulated = []
        real_simulate = twolevel.simulate
        monkeypatch.setattr(
            twolevel, "simulate", lambda c: simulated.append(len(c.gates)) or real_simulate(c)
        )
        ry = Gate(GateKind.RY, 1, ((0, True),), 0.3)
        z = Gate(GateKind.Z, 0)
        small = Circuit(2, invert_gates((ry,)) + (z,) + (ry,))
        assert circuit_error(small, simulate(small)) <= 1e-15
        assert simulated == [1, 1]
        simulated.clear()
        ry8 = Gate(GateKind.RY, 7, tuple((q, True) for q in range(7)), 0.3)
        large = Circuit(8, invert_gates((ry8,)) + (Gate(GateKind.Z, 0),) + (ry8,))
        assert circuit_error(large, np.eye(256)) > 0.1
        assert simulated == [3]

    def test_synthesized_circuits_take_the_route(self, monkeypatch):
        simulated = []
        real_simulate = twolevel.simulate
        monkeypatch.setattr(
            twolevel, "simulate", lambda c: simulated.append(len(c.gates)) or real_simulate(c)
        )
        for h in (random_hermitian_unitary(RNG, 32), controlled_u(PAULI_Y, 3)):
            simulated.clear()
            circuit, report = synthesize(h)
            k = mirror_depth(circuit.gates)
            assert k and simulated == [k, len(circuit.gates) - 2 * k]
            assert report.verify_error == max_abs_diff(mirror_matrix(circuit, k), h)
            assert abs(report.verify_error - max_abs_diff(simulate(circuit), h)) <= 1e-12

    def test_mutated_first_half_fails(self):
        # one first-half angle off by 1e-7: the literal match stops there,
        # and the gates from there on are simulated as the centre
        h = random_hermitian_unitary(RNG, 8)
        circuit, _ = synthesize(h)
        gates = list(circuit.gates)
        i = next(j for j, g in enumerate(gates) if g.kind is GateKind.RY and j > 2)
        assert i < mirror_depth(circuit.gates)
        gates[i] = Gate(GateKind.RY, gates[i].target, gates[i].controls, gates[i].param + 1e-7)
        mutated = Circuit(3, tuple(gates), circuit.global_phase)
        assert mirror_depth(mutated.gates) == i
        error = max_abs_diff(simulate(mutated), h)
        assert error > 1e-9
        assert abs(circuit_error(mutated, h) - error) <= 1e-12
        with pytest.raises(VerificationFailed):
            verify_circuit(mutated, h)
