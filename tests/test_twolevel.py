import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CH_EMBED,
    CZ_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    assemble_whole,
    block_direct_sum,
    controlled_u,
    counts_reference,
    emit_two_level_gray,
    full_rounds_reference,
    mirror_depth_reference,
    phased_involution,
    random_hermitian_unitary,
    random_unitary,
    rotate_inplace,
    two_level_matrix,
)
from hermsynth import circuit as circuit_module, twolevel
from hermsynth.circuit import (
    Circuit,
    Gate,
    GateKind,
    counts,
    invert_gates,
    mirror_depth,
    serialize,
    simulate,
)
from hermsynth.diagonal import synthesize_sign_diagonal
from hermsynth.errors import IndexOutOfRange, VerificationFailed
from hermsynth.jacobi import RotationStep, diagonalize, rotation_params
from hermsynth.matrices import DEFAULT_TOLERANCES, max_abs_diff
from hermsynth.optimize import cancel_adjacent_inverses, rewrite_cz_cnot
from hermsynth.twolevel import (
    assemble,
    build_circuit,
    circuit_error,
    emit_two_level,
    gray_path,
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
        # (1, 2): the path ends on the pivot-0 state, so the core sees the
        # pair swapped and the phase sits on p
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


class TestPhaseOnPivotState:
    """Jacobi puts each complex step's phase on the pivot-1 state of its
    pair, the state a PHASE gate scales: every complex core is one RY and
    one PHASE on one site in either orientation, and the emitted gates are
    the kernel's Q', off the pair's 2x2 block too."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_core_is_one_ry_and_one_phase(self, n):
        for p in range(1 << n):
            for q in range(p + 1, 1 << n):
                gates = emit_two_level(RotationStep(p, q, 0.7, -1.9), n)
                rungs = (p ^ q).bit_count() - 1
                ladder, core = gates[:rungs], gates[rungs : len(gates) - rungs]
                assert all(g.kind is GateKind.X for g in ladder)
                assert gates[len(gates) - rungs :] == ladder[::-1]
                assert [g.kind for g in core] == [GateKind.RY, GateKind.PHASE]
                ry, phase = core
                assert (phase.target, phase.controls) == (ry.target, ry.controls)
                assert len(ry.controls) == n - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_emission_is_the_kernel_rotation(self, n):
        # Q^H h Q with Q the simulated gates, against the kernel jacobi._rotate
        # on the same h: a phase on the other state of the pair would scale
        # rows and columns p and q outside the block differently
        h = random_hermitian_unitary(np.random.default_rng(70 + n), 1 << n)
        for p in range(1 << n):
            for q in range(p + 1, 1 << n):
                step = RotationStep(p, q, *rotation_params(h[p, p].real, h[q, q].real, h[p, q]))
                assert step.alpha
                m = simulate(Circuit(n, emit_two_level(step, n)))
                rotated = h.copy()
                rotate_inplace(rotated, step, DEFAULT_TOLERANCES.zero_tol)
                assert max_abs_diff(m.conj().T @ h @ m, rotated) <= 1e-12


class TestRouteMemo:
    """``emit_two_level`` reads each (p, q, n) route from a memo; the
    per-step gray-path emitter of ``tests/helpers.py`` is its oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_gray_path_oracle(self, n):
        dim = 1 << n
        for p in range(dim):
            for q in range(p + 1, dim):
                for theta, alpha in ((0.9, 0.0), (-0.4, 0.0), (0.9, -2.3), (-1.2, 0.6)):
                    step = RotationStep(p, q, theta, alpha)
                    # twice: the second call reads the route from the memo
                    for _ in range(2):
                        assert emit_two_level(step, n) == emit_two_level_gray(step, n)

    def test_size_within_bound_after_dense_synthesis(self):
        n = 5
        twolevel._route.cache_clear()
        synthesize(random_hermitian_unitary(np.random.default_rng(8), 1 << n))
        size = twolevel._route.cache_info().currsize
        # one route per pair p < q: 2^(n-1) (2^n - 1), as emit_two_level states
        assert 0 < size <= (1 << (n - 1)) * ((1 << n) - 1)


class TestSiteDerivedGates:
    """Inverses, merged angles and the emitted cores are built by
    ``Gate._on_site`` without the site checks; each must equal the gate
    the validating constructor builds from the same fields."""

    @staticmethod
    def assert_validated_twins(circuit):
        for g in circuit.gates:
            twin = Gate(g.kind, g.target, g.controls, g.param)
            assert g == twin and g.highest == twin.highest

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dense_inputs(self, n):
        h = random_hermitian_unitary(np.random.default_rng(60 + n), 1 << n)
        circuit, _ = synthesize(h)
        self.assert_validated_twins(circuit)
        self.assert_validated_twins(assemble_whole(diagonalize(h), n))

    @pytest.mark.parametrize("u", [HADAMARD, PAULI_X, PAULI_Y], ids=["H", "X", "Y"])
    def test_native_controlled_u(self, u):
        for k in (1, 2, 3, 4):
            h = np.eye(2 << k, dtype=complex)
            h[-2:, -2:] = u
            self.assert_validated_twins(synthesize(h)[0])


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
        # the path 1 -> 3 -> 2 ends on the pivot-0 state: the core sees the
        # pair swapped, and Jacobi's phase already sits on p, its pivot-1 state
        ladder = Gate(GateKind.X, 1, ((0, False), (2, True)))
        ctl = ((0, False), (1, True))
        assert emit_two_level(RotationStep(1, 2, 0.5, 1.25), 3) == (
            ladder,
            Gate(GateKind.RY, 2, ctl, -0.5),
            Gate(GateKind.PHASE, 2, ctl, 1.25),
            ladder,
        )


class TestSynthesize:
    def test_cz_is_one_gate(self):
        circuit, report = synthesize(CZ_EMBED)
        assert len(circuit.gates) == 1
        assert counts(circuit) == {"CZ": 1}
        assert report.verify_error <= 1e-12

    def test_entry_points_take_only_h(self):
        for fn in (synthesize, build_circuit, diagonalize):
            assert tuple(inspect.signature(fn).parameters) == ("h",)

    def test_ch_unoptimized_shape(self):
        circuit = assemble_whole(diagonalize(CH_EMBED), 2)
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
        result = diagonalize(h)
        circuit = assemble_whole(result, 3)
        n_ry = sum(1 for g in circuit.gates if g.kind is GateKind.RY)
        assert n_ry == 2 * len(result.steps)

    def test_unoptimized_is_mirrored_rotations_around_diagonal(self, monkeypatch):
        # W^dagger D W, with W the forward factors of the steps in reverse
        # order: build_circuit with its passes knocked out, and assemble_whole
        h = random_hermitian_unitary(RNG, 8)
        result = diagonalize(h)
        forward = tuple(g for step in reversed(result.steps) for g in emit_two_level(step, 3))
        diag_gates, phase = synthesize_sign_diagonal(result.signs)
        knock_out_passes(monkeypatch, "none")
        circuit, _ = build_circuit(h)
        assert circuit.gates == invert_gates(forward) + diag_gates + forward
        assert circuit.global_phase == phase
        assert assemble_whole(result, 3) == circuit

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


class TestVerifyCircuit:
    def test_raises_above_tolerance(self):
        with pytest.raises(VerificationFailed) as exc:
            verify_circuit(Circuit(2), CH_EMBED)
        assert exc.value.error > 0.5


def near_identity(sign: float, n: int) -> np.ndarray:
    """sign * I + E with E Hermitian at the 1e-12 scale: two sweeps of
    rotations at or just above ``zero_tol`` and an empty sign diagonal.
    Every pair is same-sign and below the same-sign cut, so a first sweep
    rotates nothing and the walk falls back to rotating every pivot above
    zero_tol."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
    return sign * np.eye(1 << n) + 2e-12 * (a + a.conj().T)


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
    # C^k U with the target off the last wire or a negative control. The
    # full_rounds_reference strips wherever the rule matches, build_circuit only
    # in the centre window, so the two agree only if it matches nowhere else.
    v = random_unitary(np.random.default_rng(11), 2)
    for name, u in (("H", HADAMARD), ("R", v @ PAULI_Z @ v.conj().T)):
        for k in (2, 3):
            cases += [(f"C{k}{name}top", controlled_u(u, k, target=0)),
                      (f"C{k}{name}neg", controlled_u(u, k, negative=(0,)))]
    return cases


BUILD_INPUTS = build_inputs()

# The passes build_circuit runs, and the whole-circuit reference its
# half-plus-centre build must equal with only those passes in place.
PASSES = {
    "none": lambda c: c,
    "basic": cancel_adjacent_inverses,
    "full": full_rounds_reference,
}


def knock_out_passes(monkeypatch, passes: str) -> None:
    """Replace by the identity the passes that ``passes`` leaves out:
    "none" keeps neither, "basic" keeps only the cancel pass, "full" both."""
    identity = PASSES["none"]
    if passes == "none":
        monkeypatch.setattr(twolevel, "optimize", identity)
    if passes != "full":
        monkeypatch.setattr(twolevel, "strip_conjugate_controls", identity)


class TestBuildCircuit:
    """``build_circuit`` optimizes the forward half and the window around
    the centre, and strips controls in that window only; its circuit must
    equal the whole assembled W^dagger D W (tests/helpers.assemble_whole)
    gate for gate, put through the strip-and-cancel fixpoint. With the
    strip pass or both passes knocked out, it must equal the whole circuit
    after one cancel pass or as assembled: the half-plus-centre build is
    held to the whole circuit apart from what the passes do."""

    @pytest.mark.parametrize("passes", list(PASSES))
    @pytest.mark.parametrize("name, h", BUILD_INPUTS, ids=[name for name, _ in BUILD_INPUTS])
    def test_equals_whole_circuit_optimized(self, name, h, passes, monkeypatch):
        knock_out_passes(monkeypatch, passes)
        circuit, result = build_circuit(h)
        whole = assemble_whole(result, circuit.n_qubits)
        expected = PASSES[passes](whole)
        assert circuit.gates == expected.gates
        assert circuit.global_phase == expected.global_phase
        assert serialize(circuit) == serialize(expected)

    @pytest.mark.parametrize(
        "sign, n, rotations, sweeps, gates_none",
        [(1, 2, 9, 3, 38), (-1, 2, 9, 3, 38), (1, 3, 47, 3, 294), (-1, 3, 47, 3, 294)],
    )
    def test_centre_cancels_away(self, sign, n, rotations, sweeps, gates_none):
        # rotations run, the sign diagonal is empty, and the two halves
        # of the assembled circuit cancel to the empty circuit
        h = near_identity(sign, n)
        circuit, report = synthesize(h)
        assert report.rotations_executed == rotations
        assert report.sweeps == sweeps
        assert report.sweep_rotations[0] == 0
        assert circuit.global_phase == sign
        assert circuit.gates == ()
        assert report.verify_error <= 1e-11
        result = diagonalize(h)
        assert len(assemble_whole(result, n).gates) == gates_none
        assert synthesize_sign_diagonal(result.signs) == ((), sign)


class TestAssemble:
    """``assemble(steps, signs, n)`` is build_circuit after diagonalize."""

    def test_calls_through_module_names(self, monkeypatch):
        # the names bench/tracing.py and the knock-out tests rebind
        calls = {name: 0 for name in
                 ("emit_two_level", "optimize", "invert_gates", "synthesize_sign_diagonal")}
        for name in calls:
            real = getattr(twolevel, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(twolevel, name, counted)
        h = random_hermitian_unitary(np.random.default_rng(4), 8)
        circuit, result = build_circuit(h)
        assert calls == {"emit_two_level": len(result.steps), "optimize": 2,
                         "invert_gates": 2, "synthesize_sign_diagonal": 1}
        monkeypatch.undo()
        again = assemble(list(result.steps), result.signs, 3)
        assert serialize(again) == serialize(circuit)

    def test_steps_from_elsewhere(self):
        # no steps: the sign diagonal alone; one hand-made step with
        # Q' = two_level_matrix(step): Q' diag(signs) Q'^H
        signs = np.array([1, -1, 1, 1, -1, 1, 1, 1])
        circuit = assemble((), signs, 3)
        assert max_abs_diff(simulate(circuit), np.diag(signs)) <= 1e-15
        step = RotationStep(1, 6, 0.7, 0.4)
        q = two_level_matrix(step, 8)
        circuit = assemble((step,), signs, 3)
        assert max_abs_diff(simulate(circuit), q @ np.diag(signs) @ q.conj().T) <= 1e-14


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


@st.composite
def mutated_circuits(draw):
    """A mirrored circuit with one first-half gate replaced by another
    drawn gate, of any kind and controls."""
    circuit, half = draw(mirrored_circuits().filter(lambda case: case[1]))
    i = draw(st.integers(0, half - 1), label="mutated gate")
    new = draw(gate_lists(circuit.n_qubits, list(GateKind), 1).filter(len))[0]
    gates = circuit.gates[:i] + (new,) + circuit.gates[i + 1 :]
    return Circuit(circuit.n_qubits, gates, circuit.global_phase)


unmirrored_circuits = st.integers(1, 5).flatmap(
    lambda n: gate_lists(n, list(GateKind), 30).map(lambda gates: Circuit(n, gates))
)


# k = 2 mirrored gates around a centre where MCZ and single first appear
_HALF = (Gate(GateKind.X, 0, ((1, True), (2, False))), Gate(GateKind.RY, 2, ((0, True),), 0.3))
CENTRE_FIRST = Circuit(3, invert_gates(_HALF) + (
    Gate(GateKind.Z, 0, ((1, True), (2, True))), Gate(GateKind.PHASE, 1, (), 0.5), _HALF[0],
) + _HALF)


class TestMirrorRoute:
    """W^dagger C W as phase M C M^H: M is the simulated half, C the centre."""

    def test_mirror_depth(self):
        ry = Gate(GateKind.RY, 1, ((0, True),), 0.3)
        p, p_inv = Gate(GateKind.PHASE, 0, (), 0.5), Gate(GateKind.PHASE, 0, (), -0.5)
        h, z0 = Gate(GateKind.H, 0), Gate(GateKind.Z, 0)
        x, z = Gate(GateKind.X, 1, ((0, False),)), Gate(GateKind.Z, 1)
        ry_inv = Gate(GateKind.RY, 1, ((0, True),), -0.3)
        assert mirror_depth(()) == 0
        assert mirror_depth((ry,)) == 0
        assert mirror_depth((ry_inv, ry)) == 1
        assert mirror_depth((ry, ry)) == 0
        assert mirror_depth((p, p_inv)) == mirror_depth((p_inv, p)) == 1
        assert mirror_depth((p, p)) == 0
        assert mirror_depth((h, h)) == mirror_depth((z0, z0)) == 1
        assert mirror_depth((h, z0)) == mirror_depth((z0, h)) == 0
        assert mirror_depth((x, ry_inv, z, ry, x)) == 2  # the middle gate is the centre
        assert mirror_depth((x, ry_inv, ry, x)) == 2
        assert mirror_depth((Gate(GateKind.RY, 1, ((0, False),), -0.3), ry)) == 0
        assert mirror_depth((Gate(GateKind.RY, 0, (), -0.3), Gate(GateKind.RY, 1, (), 0.3))) == 0

    @settings(max_examples=150, deadline=None)
    @given(mirrored_circuits(), st.data())
    def test_depth_matches_reference(self, case, data):
        # on the mirrored circuit, then with one first-half gate changed:
        # its angle nudged, or another gate drawn in its place
        circuit, half = case
        gates = circuit.gates
        assert mirror_depth(gates) == mirror_depth_reference(gates) >= half
        if not gates:
            return
        i = data.draw(st.integers(0, max(half, 1) - 1), label="mutated gate")
        old = gates[i]
        if old.kind.parametric and data.draw(st.booleans(), label="nudge the angle"):
            new = old._on_site(old.kind, old.param + 1e-9)
        else:
            new = data.draw(gate_lists(circuit.n_qubits, list(GateKind), 1).filter(len))[0]
        mutated = gates[:i] + (new,) + gates[i + 1 :]
        assert mirror_depth(mutated) == mirror_depth_reference(mutated)
        assert mirror_depth(list(mutated)) == mirror_depth(mutated)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        mirrored_circuits().map(lambda case: case[0]), mutated_circuits(), unmirrored_circuits
    ))
    @example(CENTRE_FIRST)
    def test_counts_match_reference(self, circuit):
        # counts() reads the first k gates twice and the centre once; the
        # reference walks every gate, so class order is checked too
        assert list(counts(circuit).items()) == list(counts_reference(circuit).items())

    @settings(max_examples=80, deadline=None)
    @given(mirrored_circuits())
    def test_matches_simulate(self, case):
        circuit, half = case
        k = mirror_depth(circuit.gates)
        assert k >= half
        reference = simulate(circuit)
        for depth in {half, k}:
            assert max_abs_diff(mirror_matrix(circuit, depth), reference) <= 1e-12

    def test_mirror_matrix_rejects_k_out_of_range(self):
        # k = len(gates) would read every gate as M and M^H around an empty
        # centre, the identity for any circuit, and a negative k a suffix
        ry = Gate(GateKind.RY, 1, ((0, True),), 0.3)
        circuit = Circuit(2, (ry, Gate(GateKind.X, 1, ((0, True),)), Gate(GateKind.H, 0)))
        for k in (3, 2, -1):
            with pytest.raises(ValueError, match=rf"^need 0 <= k <= 1, got {k}$"):
                mirror_matrix(circuit, k)
        assert np.array_equal(mirror_matrix(circuit, 0), simulate(circuit))
        assert mirror_matrix(circuit, 1).shape == (4, 4)

    def test_every_mirrored_circuit_takes_the_route(self, monkeypatch):
        # the route depends on the circuit alone: any k = mirror_depth > 0
        # simulates the last k gates, whatever the size and pattern of h. A
        # diagonal centre is a vector, not a simulate call.
        simulated = []
        real_simulate = twolevel.simulate
        monkeypatch.setattr(
            twolevel, "simulate", lambda c: simulated.append(len(c.gates)) or real_simulate(c)
        )
        ry = Gate(GateKind.RY, 1, ((0, True),), 0.3)
        z = Gate(GateKind.Z, 0)
        small = Circuit(2, invert_gates((ry,)) + (z,) + (ry,))
        assert circuit_error(small, simulate(small)) <= 1e-15
        assert simulated == [1]
        ry8 = Gate(GateKind.RY, 7, tuple((q, True) for q in range(7)), 0.3)
        large = Circuit(8, invert_gates((ry8,)) + (Gate(GateKind.Z, 0),) + (ry8,))
        # a dense h, a block of 23, a block of 22 and the identity: h's size
        # and pattern no longer change the route
        block23, block22 = np.eye(256), np.eye(256)
        block23[:23, :23] = block22[:22, :22] = 1.0
        for h in (np.full((256, 256), 1 / 16), block23, block22, np.eye(256)):
            simulated.clear()
            assert circuit_error(large, h) > 0.1
            assert simulated == [1]
            assert abs(circuit_error(large, h) - max_abs_diff(real_simulate(large), h)) <= 1e-15

    def test_synthesized_circuits_take_the_route(self, monkeypatch):
        # the dense, C^3 Y, two n = 8 sparse and an n = 8 reflection
        # I - 2vv^T (one block of 256) circuits. Their centres are
        # diagonal, so only M is simulated; in the CNOT library the centre
        # of C^3 Y is an X and is simulated too.
        simulated = []
        real_simulate = twolevel.simulate
        monkeypatch.setattr(
            twolevel, "simulate", lambda c: simulated.append(len(c.gates)) or real_simulate(c)
        )
        rng = np.random.default_rng(8)
        inputs = (random_hermitian_unitary(RNG, 32), controlled_u(PAULI_Y, 3),
                  phased_involution(rng, 8), block_direct_sum(rng, 8))
        v = rng.uniform(size=256)
        v /= np.linalg.norm(v)
        inputs += (np.eye(256) - 2 * np.outer(v, v),)
        for h in inputs:
            simulated.clear()
            circuit, report = synthesize(h)
            k = mirror_depth(circuit.gates)
            assert all(g.kind.diagonal for g in circuit.gates[k : len(circuit.gates) - k])
            assert k and simulated == [k]
            assert report.verify_error == max_abs_diff(mirror_matrix(circuit, k), h)
            assert abs(report.verify_error - max_abs_diff(simulate(circuit), h)) <= 1e-12
        h = controlled_u(PAULI_Y, 3)
        circuit = rewrite_cz_cnot(build_circuit(h)[0], "cnot")
        k = mirror_depth(circuit.gates)
        simulated.clear()
        assert circuit_error(circuit, h) <= 1e-15
        assert simulated == [k, len(circuit.gates) - 2 * k] and k

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        gate_lists(n, [GateKind.Z, GateKind.PHASE], 12),
        st.floats(0.01, math.pi - 0.01) | st.floats(-math.pi + 0.01, -0.01),
    )))
    def test_diagonal_centre_bits(self, case):
        # the centre's diagonal vector against simulate, bit for bit, with
        # every control count and polarity and a global phase off +-1
        n, gates, angle = case
        phase = cmath.exp(1j * angle)
        expected = np.ascontiguousarray(simulate(Circuit(n, gates, phase)).diagonal())
        got = twolevel._diagonal(gates, n, phase)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_block_route_on_wrong_circuits(self, monkeypatch):
        # a sparse n = 8 circuit with one ladder X removed, from the second
        # half only and from both halves (a mirrored circuit whose M
        # reaches across h's blocks, through the block route): the error
        # is that of the whole simulation, and the verify fails
        simulated = []
        real_simulate = twolevel.simulate
        monkeypatch.setattr(
            twolevel, "simulate", lambda c: simulated.append(len(c.gates)) or real_simulate(c)
        )
        rng = np.random.default_rng(88)
        for h in (phased_involution(rng, 8), block_direct_sum(rng, 8)):
            circuit, _ = synthesize(h)
            gates, n = circuit.gates, circuit.n_qubits
            last = len(gates) - 1
            i = next(i for i in range(len(gates) // 2) if gates[i].kind is GateKind.X
                     and len(gates[i].controls) == n - 1)
            for cut in ((last - i,), (i, last - i)):
                kept = tuple(g for j, g in enumerate(gates) if j not in cut)
                wrong = Circuit(n, kept, circuit.global_phase)
                whole = max_abs_diff(simulate(wrong), h)
                simulated.clear()
                assert abs(circuit_error(wrong, h) - whole) <= 1e-12
                with pytest.raises(VerificationFailed):
                    verify_circuit(wrong, h)
            assert mirror_depth(kept) == mirror_depth(gates) - 1
            assert simulated[0] == mirror_depth(kept)

    @pytest.mark.parametrize("lib", ["cz", "cnot"])
    @pytest.mark.parametrize("name, h", BUILD_INPUTS, ids=[name for name, _ in BUILD_INPUTS])
    def test_report_counts_equal_counts(self, name, h, lib):
        # the report counts the first k gates twice and the centre once; the
        # classes must come in the order of a walk over every gate.
        # In the CNOT library the centre of C^k U is an X, not diagonal.
        circuit, result = build_circuit(h)
        if lib == "cnot":
            circuit = rewrite_cz_cnot(circuit, lib)
        report = twolevel.verified_report(circuit, h, result)
        assert list(report.gate_counts.items()) == list(counts_reference(circuit).items())

    def test_report_counts_of_mutated_first_half(self, monkeypatch):
        # one first-half gate replaced on its site or stripped of its
        # controls, in a dense circuit and in C^3 Y in the CNOT library; the
        # verify is knocked out, since the mutated circuit is no longer right
        monkeypatch.setattr(twolevel, "circuit_error", lambda c, h: 0.0)
        cases = ((random_hermitian_unitary(RNG, 8), None), (controlled_u(PAULI_Y, 3), "cnot"))
        for h, lib in cases:
            circuit, result = build_circuit(h)
            if lib:
                circuit = rewrite_cz_cnot(circuit, lib)
            gates, n = circuit.gates, circuit.n_qubits
            k = mirror_depth(gates)
            assert k
            for i in sorted({0, k // 2, k - 1}):
                old = gates[i]
                changed = [Gate(kind, old.target, old.controls)
                           for kind in (GateKind.H, GateKind.Z) if kind is not old.kind]
                if old.controls:
                    changed.append(Gate(old.kind, old.target, (), old.param))
                for new in changed:
                    mutated = Circuit(n, gates[:i] + (new,) + gates[i + 1 :], circuit.global_phase)
                    assert mirror_depth(mutated.gates) == i
                    report = twolevel.verified_report(mutated, h, result)
                    assert list(report.gate_counts.items()) == list(
                        counts_reference(mutated).items()
                    )

    def test_one_mirror_walk_per_synthesis(self, monkeypatch):
        # the report's counts and the verify route read one walk of the
        # finished circuit; the build walks none
        walks = []
        real_depth = circuit_module.mirror_depth

        def counting_depth(gates):
            walks.append(len(gates))
            return real_depth(gates)

        monkeypatch.setattr(circuit_module, "mirror_depth", counting_depth)
        monkeypatch.setattr(twolevel, "mirror_depth", counting_depth, raising=False)
        rng = np.random.default_rng(77)
        inputs = (random_hermitian_unitary(rng, 16), phased_involution(rng, 5), CZ_EMBED)
        for h in inputs:
            walks.clear()
            circuit, report = synthesize(h)
            assert walks == [len(circuit.gates)]
            assert report.gate_counts == counts(circuit) and walks == [len(circuit.gates)]

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
