import cmath
import math
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CH_EMBED,
    CNOT_EMBED,
    CZ_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    apply_gate_full,
    random_circuit,
)
from hermsynth.circuit import (
    Circuit,
    Gate,
    GateKind,
    _apply_gate,
    counts,
    gate_matrix,
    invert_gates,
    parse,
    serialize,
    simulate,
)
from hermsynth.errors import IndexOutOfRange, ParseError
from hermsynth.matrices import is_hermitian, is_unitary, max_abs_diff

RNG = np.random.default_rng(99)


class TestGateMatrix:
    def test_ry_half_angle(self):
        m = gate_matrix(GateKind.RY, math.pi / 2)
        c = math.cos(math.pi / 4)
        assert np.allclose(m, [[c, c], [-c, c]])

    def test_phase_pi_is_z(self):
        assert np.allclose(gate_matrix(GateKind.PHASE, math.pi), PAULI_Z)

    def test_rz_zero_identity(self):
        assert np.array_equal(gate_matrix(GateKind.RZ, 0.0), np.eye(2))

    def test_s_sdg(self):
        assert np.array_equal(gate_matrix(GateKind.S), np.diag([1, 1j]))
        assert np.array_equal(gate_matrix(GateKind.SDG), np.diag([1, -1j]))

    def test_hadamard(self):
        assert np.allclose(gate_matrix(GateKind.H), HADAMARD)

    def test_parametric_requires_angle(self):
        with pytest.raises(ValueError):
            gate_matrix(GateKind.RY)
        with pytest.raises(ValueError):
            gate_matrix(GateKind.X, 0.3)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_kind_table_consistent(self, kind):
        if kind.parametric:
            with pytest.raises(ValueError):
                gate_matrix(kind)
            angle = float(np.random.default_rng(3).uniform(-math.pi, math.pi))
            u, u_inv = gate_matrix(kind, angle), gate_matrix(kind, -angle)
        else:
            u, u_inv = gate_matrix(kind), gate_matrix(kind.inverse)
        assert kind.inverse.inverse is kind
        assert np.allclose(u_inv @ u, np.eye(2), rtol=0.0, atol=1e-15)
        assert kind.diagonal == (u[0, 1] == 0 and u[1, 0] == 0)


@cache
def valid_gates_n5() -> tuple[Gate, ...]:
    return random_circuit(np.random.default_rng(7), 5, 10_000).gates


class TestGateValidation:
    def test_target_in_controls(self):
        with pytest.raises(ValueError):
            Gate(GateKind.X, 0, ((0, True),))

    def test_duplicate_controls(self):
        with pytest.raises(ValueError):
            Gate(GateKind.X, 2, ((0, True), (0, False)))

    def test_controls_sorted(self):
        g = Gate(GateKind.X, 0, ((2, False), (1, True)))
        assert g.controls == ((1, True), (2, False))

    def test_angle_on_fixed_kind(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, 0, (), 0.5)

    def test_circuit_index_range(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(1, (Gate(GateKind.X, 1),))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Gate(GateKind.X, 5, ((0, True), (2, False))), "target 5 outside 5-qubit register"),
            (Gate(GateKind.RY, 1, ((0, False), (5, True)), 0.3), "control 5 outside 5-qubit register"),
            (Gate(GateKind.Z, 6, ((7, True),)), "target 6 outside 5-qubit register"),
        ],
    )
    def test_index_range_in_long_circuit(self, bad, message):
        valid = valid_gates_n5()
        with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
            Circuit(5, valid[:5000] + (bad,) + valid[5000:])

    def test_nonunit_phase(self):
        with pytest.raises(ValueError):
            Circuit(1, (), global_phase=2.0)

    @pytest.mark.parametrize(
        "phase", [complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 0.0)]
    )
    def test_non_finite_phase(self, phase):
        with pytest.raises(ValueError):
            Circuit(1, (), global_phase=phase)


class TestEmbed:
    """A gate's embedding is the simulated circuit that holds only that gate."""

    def test_negative_control_targets_top_wire(self):
        # nontrivial action on states 00 and 10 only
        g = Gate(GateKind.RY, 0, ((1, False),), 0.7)
        m = simulate(Circuit(2, (g,)))
        u = gate_matrix(GateKind.RY, 0.7)
        assert m[0, 0] == u[0, 0] and m[0, 2] == u[0, 1]
        assert m[2, 0] == u[1, 0] and m[2, 2] == u[1, 1]
        assert m[1, 1] == 1 and m[3, 3] == 1

    def test_positive_control_bottom_block(self):
        g = Gate(GateKind.RY, 1, ((0, True),), 0.7)
        m = simulate(Circuit(2, (g,)))
        u = gate_matrix(GateKind.RY, 0.7)
        assert np.array_equal(m[2:, 2:], u)
        assert np.array_equal(m[:2, :2], np.eye(2))

    def test_cz(self):
        m = simulate(Circuit(2, (Gate(GateKind.Z, 1, ((0, True),)),)))
        assert np.array_equal(m, CZ_EMBED)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            Circuit(2, (Gate(GateKind.X, 3),))

    @pytest.mark.parametrize("kind", [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H])
    def test_controlled_hermitian_stays_hermitian_unitary(self, kind):
        g = Gate(kind, 1, ((0, True), (2, False)))
        m = simulate(Circuit(3, (g,)))
        assert is_hermitian(m) and is_unitary(m)


def kron_embedding(gate: Gate, n: int) -> np.ndarray:
    """I + (x)_q A_q: a projector on each control, U - I on the target and
    I on every other qubit, qubit 0 the leftmost Kronecker factor."""
    factors = [np.eye(2)] * n
    for q, positive in gate.controls:
        factors[q] = np.diag([0.0, 1.0]) if positive else np.diag([1.0, 0.0])
    factors[gate.target] = gate_matrix(gate.kind, gate.param) - np.eye(2)
    return np.eye(1 << n) + reduce(np.kron, factors)


class TestSimulate:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_kronecker_reference(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(4):
            c = random_circuit(rng, n, 25)
            expected = np.eye(1 << n)
            for gate in c.gates:
                expected = kron_embedding(gate, n) @ expected
            assert max_abs_diff(simulate(c), expected) < 1e-12

    def test_empty_circuit(self):
        assert np.array_equal(simulate(Circuit(2)), np.eye(4))

    def test_cz_conjugated_by_ry_is_cnot(self):
        c = Circuit(
            2,
            (
                Gate(GateKind.RY, 1, (), math.pi / 2),
                Gate(GateKind.Z, 1, ((0, True),)),
                Gate(GateKind.RY, 1, (), -math.pi / 2),
            ),
        )
        assert max_abs_diff(simulate(c), CNOT_EMBED) < 1e-12

    def test_ch_circuit(self):
        c = Circuit(
            2,
            (
                Gate(GateKind.RY, 1, (), math.pi / 4),
                Gate(GateKind.Z, 1, ((0, True),)),
                Gate(GateKind.RY, 1, (), -math.pi / 4),
            ),
        )
        assert max_abs_diff(simulate(c), CH_EMBED) < 1e-12

    def test_last_gate_leftmost(self):
        c = Circuit(1, (Gate(GateKind.X, 0), Gate(GateKind.S, 0)))
        assert np.array_equal(simulate(c), gate_matrix(GateKind.S) @ PAULI_X)

    def test_global_phase_applied(self):
        c = Circuit(1, (), global_phase=-1.0)
        assert np.array_equal(simulate(c), -np.eye(2))

    def test_inverse_gives_identity(self):
        for _ in range(20):
            c = random_circuit(RNG, 3, 12)
            both = Circuit(3, c.gates + invert_gates(c.gates))
            assert max_abs_diff(simulate(both), np.eye(8)) < 1e-10

    def test_inverse_conjugates_phase(self):
        c = Circuit(1, (Gate(GateKind.S, 0),), global_phase=1j)
        inv = Circuit(1, invert_gates(c.gates), c.global_phase.conjugate())
        assert np.array_equal(simulate(inv) @ simulate(c), np.eye(2))


def tensor_reference(circuit: Circuit) -> np.ndarray:
    """``_apply_gate`` for every gate on the (2,)*n + (2^n,) tensor view,
    with no two-row path and no row permutation."""
    n = circuit.n_qubits
    m = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        _apply_gate(m.reshape((2,) * n + (1 << n,)), gate)
    return circuit.global_phase * m


def gate_on(n, kind, target, mask, polarity, angle):
    """The gate controlled by every qubit other than the target whose bit is
    set in ``mask``, firing on |1> where its bit in ``polarity`` is set."""
    controls = tuple(
        (q, bool(polarity >> q & 1)) for q in range(n) if q != target and mask >> q & 1
    )
    return Gate(kind, target, controls, angle if kind.parametric else None)


def full_control_circuit(rng, n, n_gates, partial_share, end_on_x=False):
    """Every kind once with n-1 controls of random polarity, plus ``n_gates``
    random gates of which about ``partial_share`` have fewer controls, in
    random order; optionally closed by a fully-controlled X."""
    everyone = (1 << n) - 1
    kinds = list(GateKind)
    specs = [(kind, everyone) for kind in kinds]
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        partial = n > 1 and rng.random() < partial_share
        specs.append((kind, int(rng.integers(everyone)) if partial else everyone))
    order = rng.permutation(len(specs))
    gates = []
    for k in order:
        kind, mask = specs[k]
        target = int(rng.integers(n))
        if mask != everyone:
            # clear one control bit, so the gate has fewer than n-1 controls
            mask &= ~(1 << int(rng.choice([q for q in range(n) if q != target])))
        polarity = int(rng.integers(everyone + 1))
        gates.append(gate_on(n, kind, target, mask, polarity, rng.uniform(-math.pi, math.pi)))
    if end_on_x:
        gates.append(gate_on(n, GateKind.X, int(rng.integers(n)), everyone,
                             int(rng.integers(everyone + 1)), None))
    phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return Circuit(n, tuple(gates), global_phase=phase)


@st.composite
def two_row_circuits(draw):
    n = draw(st.integers(1, 6))
    everyone = (1 << n) - 1
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(list(GateKind)))
        target = draw(st.integers(0, n - 1))
        full = draw(st.booleans()) or draw(st.booleans())  # three in four fully controlled
        mask = everyone if full else draw(st.integers(0, everyone))
        polarity = draw(st.integers(0, everyone))
        angle = draw(st.floats(-math.pi, math.pi))
        gates.append(gate_on(n, kind, target, mask, polarity, angle))
    return Circuit(n, tuple(gates))


class TestTwoRowSimulate:
    """Gates with n-1 controls act on two rows of the running product and X
    only moves a pending row permutation; the result must equal the per-gate
    tensor slicing entry for entry."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("partial_share", [0.0, 0.3])
    def test_matches_per_gate_reference(self, n, partial_share):
        rng = np.random.default_rng(2000 + 10 * n + int(10 * partial_share))
        for end_on_x in (False, True):
            c = full_control_circuit(rng, n, 40, partial_share, end_on_x)
            assert np.array_equal(simulate(c), tensor_reference(c))
            expected = np.eye(1 << n)
            for gate in c.gates:
                expected = kron_embedding(gate, n) @ expected
            assert max_abs_diff(simulate(c), c.global_phase * expected) < 1e-12

    def test_every_kind_fully_controlled(self):
        c = full_control_circuit(np.random.default_rng(5), 4, 0, 0.0)
        assert {g.kind for g in c.gates} == set(GateKind)
        assert all(len(g.controls) == 3 for g in c.gates)

    def test_permutation_applied_before_fewer_controls(self):
        # the swap of rows 110 and 111 is pending when the H arrives
        swap = Gate(GateKind.X, 2, ((0, True), (1, True)))
        h = Gate(GateKind.H, 0)
        c = Circuit(3, (swap, h, swap))
        assert np.array_equal(simulate(c), tensor_reference(c))
        swap_m, h_m = (simulate(Circuit(3, (g,))) for g in (swap, h))
        assert np.array_equal(simulate(c), swap_m @ h_m @ swap_m)

    def test_ends_on_x(self):
        # rows 01 and 11 of the diagonal product trade places at the end
        c = Circuit(2, (Gate(GateKind.S, 1, ((0, True),)), Gate(GateKind.X, 0, ((1, True),))))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0], expected[1, 3], expected[2, 2], expected[3, 1] = 1, 1j, 1, 1
        assert np.array_equal(simulate(c), expected)

    @settings(max_examples=60, deadline=None)
    @given(two_row_circuits())
    def test_property_matches_per_gate_reference(self, c):
        assert np.array_equal(simulate(c), tensor_reference(c))


def full_update_reference(circuit: Circuit) -> np.ndarray:
    """Every gate applied by the full 2x2 update on the tensor view."""
    n = circuit.n_qubits
    m = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        apply_gate_full(m.reshape((2,) * n + (1 << n,)), gate)
    return circuit.global_phase * m


class TestDiagonalHalfSlice:
    """Z, S, SDG and PHASE with fewer than n-1 controls scale the target's 1
    slice alone, and RZ (u00 != 1) keeps the full update; every entry must
    equal the full 2x2 update's."""

    KINDS = (GateKind.Z, GateKind.S, GateKind.SDG, GateKind.PHASE, GateKind.RZ)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_full_update(self, n):
        rng = np.random.default_rng(3000 + n)
        gates = []
        for _ in range(6):
            # an H first in each round, so that no slice stays zero
            for kind in (GateKind.H, *self.KINDS):
                target = int(rng.integers(n))
                others = [q for q in range(n) if q != target]
                rng.shuffle(others)
                k = int(rng.integers(max(n - 1, 1)))  # 0..n-2 controls (0 at n = 1)
                controls = tuple((q, bool(rng.integers(2))) for q in others[:k])
                angle = rng.uniform(-math.pi, math.pi) if kind.parametric else None
                gates.append(Gate(kind, target, controls, angle))
        c = Circuit(n, tuple(gates), global_phase=cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        assert np.array_equal(simulate(c), full_update_reference(c))
        expected = np.eye(1 << n)
        for gate in c.gates:
            expected = kron_embedding(gate, n) @ expected
            single = Circuit(n, (gate,))
            assert np.array_equal(simulate(single), full_update_reference(single))
        assert max_abs_diff(simulate(c), c.global_phase * expected) < 1e-12


class TestCounts:
    def test_cz_form(self):
        c = Circuit(
            2,
            (
                Gate(GateKind.RY, 1, (), math.pi / 4),
                Gate(GateKind.Z, 1, ((0, True),)),
                Gate(GateKind.RY, 1, (), -math.pi / 4),
            ),
        )
        assert counts(c) == {"CZ": 1, "single": 2}

    def test_multiplexer_form(self):
        gates = (
            Gate(GateKind.H, 1),
            Gate(GateKind.RY, 1, (), math.pi / 4),
            Gate(GateKind.S, 1),
            Gate(GateKind.X, 0, ((1, True),)),
            Gate(GateKind.RZ, 0, (), -1.5 * math.pi),
            Gate(GateKind.X, 0, ((1, True),)),
            Gate(GateKind.RY, 1, (), -math.pi / 4),
            Gate(GateKind.RZ, 0, (), 1.5 * math.pi),
        )
        assert counts(Circuit(2, gates)) == {"CNOT": 2, "single": 6}

    def test_empty(self):
        assert counts(Circuit(3)) == {}

    def test_buckets(self):
        gates = (
            Gate(GateKind.X, 0, ((1, True), (2, True))),
            Gate(GateKind.Z, 0, ((1, False), (2, True))),
            Gate(GateKind.RY, 0, ((1, True),), 0.3),
            Gate(GateKind.PHASE, 0, ((1, True),), 0.3),
            Gate(GateKind.SDG, 1, ((0, True),)),
        )
        assert counts(Circuit(3, gates)) == {
            "MCX": 1,
            "MCZ": 1,
            "MCRY": 1,
            "MCPHASE": 2,
        }

    def test_controlled_h_and_y_keep_their_kind(self):
        gates = (
            Gate(GateKind.H, 0, ((1, True),)),
            Gate(GateKind.H, 0, ((1, True), (2, False))),
            Gate(GateKind.Y, 2, ((0, False),)),
            Gate(GateKind.RZ, 2, ((0, True),), 0.3),
        )
        assert counts(Circuit(3, gates)) == {"MCH": 2, "MCY": 1, "MCPHASE": 1}

    def test_total_matches_length(self):
        c = random_circuit(RNG, 4, 25)
        assert sum(counts(c).values()) == len(c.gates)


class TestSerialization:
    def test_cz_line(self):
        text = serialize(Circuit(2, (Gate(GateKind.Z, 1, ((0, True),)),)))
        assert "gate Z target=1 controls=+0 params=" in text

    def test_round_trip_fixed_circuit(self):
        c = Circuit(
            3,
            (
                Gate(GateKind.RY, 2, ((0, True), (1, False)), 0.78539816339744828),
                Gate(GateKind.SDG, 0),
            ),
            global_phase=-1j,
        )
        assert parse(serialize(c)) == c

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3141592653), st.integers(1, 4), st.integers(0, 12))
    def test_round_trip_random(self, seed, n_qubits, n_gates):
        c = random_circuit(np.random.default_rng(seed), n_qubits, n_gates)
        assert parse(serialize(c)) == c

    def test_malformed_polarity(self):
        with pytest.raises(ParseError):
            parse("qubits 2\nphase 1,0\ngate Z target=1 controls=*0 params=\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("gate Z target=0 params=\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse("qubits 1\nphase 1,0\ngate Q target=0 params=\n")

    def test_comments_allowed(self):
        c = parse("# hello\nqubits 1\nphase 1,0\n# body\ngate X target=0 params=\n")
        assert c.gates == (Gate(GateKind.X, 0),)

    def test_target_equals_control_rejected(self):
        with pytest.raises(ParseError):
            parse("qubits 2\nphase 1,0\ngate Z target=0 controls=+0 params=\n")

    def test_negative_control_rejected(self):
        with pytest.raises(ParseError):
            parse("qubits 2\nphase 1,0\ngate X target=1 controls=+-1 params=\n")

    @pytest.mark.parametrize("token", ["nan,0", "1,nan", "inf,0"])
    def test_non_finite_phase_rejected(self, token):
        with pytest.raises(ParseError):
            parse(f"qubits 1\nphase {token}\ngate X target=0 params=\n")

    def test_angle_bit_exact(self):
        angle = math.pi / 7 + 1e-13
        c = Circuit(1, (Gate(GateKind.RZ, 0, (), angle),))
        assert parse(serialize(c)).gates[0].param == angle
