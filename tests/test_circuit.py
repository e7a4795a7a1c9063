import cmath
import math
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CH_EMBED,
    CNOT_EMBED,
    CZ_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    apply_gate_full,
    block_direct_sum,
    parse_reference,
    phased_involution,
    random_circuit,
    random_hermitian_unitary,
    serialize_reference,
)
from hermsynth import circuit as circuit_module
from hermsynth.baselines import barenco_cu, h2_params, jacobi_cu, qsd_cu
from hermsynth.circuit import (
    Circuit,
    Gate,
    GateKind,
    counts,
    gate_entries,
    gate_matrix,
    invert_gate,
    invert_gates,
    parse,
    serialize,
    simulate,
)
from hermsynth.errors import IndexOutOfRange, ParseError
from hermsynth.matrices import is_hermitian, is_unitary, max_abs_diff
from hermsynth.optimize import rewrite_cz_cnot
from hermsynth.twolevel import synthesize

RNG = np.random.default_rng(99)


class TestGateMatrix:
    def test_ry_half_angle(self):
        m = gate_matrix(GateKind.RY, math.pi / 2)
        c = math.cos(math.pi / 4)
        assert np.allclose(m, [[c, c], [-c, c]])

    def test_phase_pi_is_z(self):
        assert np.allclose(gate_matrix(GateKind.PHASE, math.pi), PAULI_Z)

    def test_phase_zero_identity(self):
        assert np.array_equal(gate_matrix(GateKind.PHASE, 0.0), np.eye(2))

    def test_s_sdg(self):
        # S and S^dagger are PHASE(+/-pi/2): exact zeros and 1, roundoff in u11
        for sign in (1, -1):
            u = gate_matrix(GateKind.PHASE, sign * math.pi / 2)
            assert u[0, 0] == 1 and u[0, 1] == 0 and u[1, 0] == 0
            assert abs(u[1, 1] - sign * 1j) < 1e-16

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
            # every fixed kind is its own inverse (H.H is not bit-exact)
            u = u_inv = gate_matrix(kind)
            angle = None
        assert np.allclose(u_inv @ u, np.eye(2), rtol=0.0, atol=1e-15)
        assert kind.diagonal == (u[0, 1] == 0 and u[1, 0] == 0)
        # simulate scales rows j alone for every diagonal kind
        if kind.diagonal:
            assert gate_entries(kind, angle)[0] == 1


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


class TestOnSite:
    """``Gate._on_site`` copies the site of a validated gate and checks
    only the angle, with the messages of ``Gate(...)``."""

    SITE = Gate(GateKind.X, 2, ((4, True), (0, False)))

    @pytest.mark.parametrize(
        "kind, param",
        [(GateKind.RY, 0.3), (GateKind.PHASE, -1.0), (GateKind.PHASE, 2.0), (GateKind.Z, None),
         (GateKind.H, None)],
    )
    def test_equals_validated_twin(self, kind, param):
        g = self.SITE._on_site(kind, param)
        twin = Gate(kind, self.SITE.target, self.SITE.controls, param)
        assert g == twin and g.highest == twin.highest == 4
        assert hash(g) == hash(twin)

    @pytest.mark.parametrize(
        "kind, param, message",
        [
            (GateKind.RY, None, "RY requires a finite angle"),
            (GateKind.PHASE, math.inf, "PHASE requires a finite angle"),
            (GateKind.RY, math.nan, "RY requires a finite angle"),
            (GateKind.X, 0.5, "X takes no angle"),
        ],
    )
    def test_checks_the_angle(self, kind, param, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.SITE._on_site(kind, param)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Gate(kind, self.SITE.target, self.SITE.controls, param)

    def test_inverses_equal_validated_twins(self):
        for g in random_circuit(RNG, 4, 60).gates:
            inv = invert_gate(g)
            twin = Gate(g.kind, g.target, g.controls, None if g.param is None else -g.param)
            assert inv == twin and inv.highest == twin.highest


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

    @pytest.mark.parametrize("kind", [GateKind.X, GateKind.Z, GateKind.H])
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
        c = Circuit(1, (Gate(GateKind.X, 0), Gate(GateKind.PHASE, 0, (), math.pi / 2)))
        assert np.array_equal(simulate(c), gate_matrix(GateKind.PHASE, math.pi / 2) @ PAULI_X)

    def test_global_phase_applied(self):
        c = Circuit(1, (), global_phase=-1.0)
        assert np.array_equal(simulate(c), -np.eye(2))

    def test_inverse_gives_identity(self):
        for _ in range(20):
            c = random_circuit(RNG, 3, 12)
            both = Circuit(3, c.gates + invert_gates(c.gates))
            assert max_abs_diff(simulate(both), np.eye(8)) < 1e-10

    def test_inverse_conjugates_phase(self):
        c = Circuit(1, (Gate(GateKind.PHASE, 0, (), math.pi / 2),), global_phase=1j)
        inv = Circuit(1, invert_gates(c.gates), c.global_phase.conjugate())
        assert np.array_equal(simulate(inv) @ simulate(c), np.eye(2))

    @pytest.mark.parametrize("n", [7, 8])
    def test_global_phase_times_matrix(self, n):
        # phase times the phase-free matrix, in that operand order, also
        # where the matrix is 256 KiB or more: numpy computes an unnamed
        # temporary that large in place, with the operands swapped
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            c = random_circuit(rng, n, 12)
            phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            phased = Circuit(n, c.gates, global_phase=phase)
            assert np.array_equal(simulate(phased), np.multiply(phase, simulate(c)))


def full_update_reference(circuit: Circuit) -> np.ndarray:
    """Every gate, X and the diagonal kinds included, applied by the full
    2x2 update on the (2,)*n + (2^n,) tensor view, with no row permutation."""
    n = circuit.n_qubits
    m = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        apply_gate_full(m.reshape((2,) * n + (1 << n,)), gate)
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
    n = draw(st.integers(1, 8))
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
    """Every gate acts on its row pairs through one pending row permutation,
    one pair with n-1 controls and 2^(n-1-k) with k, and every X only moves
    the permutation; the result must equal the full 2x2 update of every gate
    entry for entry."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("partial_share", [0.0, 0.3])
    def test_matches_per_gate_reference(self, n, partial_share):
        rng = np.random.default_rng(2000 + 10 * n + int(10 * partial_share))
        for end_on_x in (False, True):
            c = full_control_circuit(rng, n, 40, partial_share, end_on_x)
            assert np.array_equal(simulate(c), full_update_reference(c))
            expected = np.eye(1 << n)
            for gate in c.gates:
                expected = kron_embedding(gate, n) @ expected
            assert max_abs_diff(simulate(c), c.global_phase * expected) < 1e-12

    def test_every_kind_fully_controlled(self):
        c = full_control_circuit(np.random.default_rng(5), 4, 0, 0.0)
        assert {g.kind for g in c.gates} == set(GateKind)
        assert all(len(g.controls) == 3 for g in c.gates)

    def test_permutation_applied_before_fewer_controls(self):
        # the swap of rows 110 and 111 is pending when the H reads its pairs
        swap = Gate(GateKind.X, 2, ((0, True), (1, True)))
        h = Gate(GateKind.H, 0)
        c = Circuit(3, (swap, h, swap))
        assert np.array_equal(simulate(c), full_update_reference(c))
        swap_m, h_m = (simulate(Circuit(3, (g,))) for g in (swap, h))
        assert np.array_equal(simulate(c), swap_m @ h_m @ swap_m)

    def test_ends_on_x(self):
        # rows 01 and 11 of the diagonal product trade places at the end
        s = Gate(GateKind.PHASE, 1, ((0, True),), math.pi / 2)
        c = Circuit(2, (s, Gate(GateKind.X, 0, ((1, True),))))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0], expected[2, 2], expected[3, 1] = 1, 1, 1
        expected[1, 3] = cmath.exp(0.5j * math.pi)
        assert np.array_equal(simulate(c), expected)

    @settings(max_examples=60, deadline=None)
    @given(two_row_circuits())
    # an uncontrolled PHASE at n = 8 scales a 512 KiB block of rows
    @example(Circuit(8, (Gate(GateKind.PHASE, 0, (), 1.0), Gate(GateKind.PHASE, 0, (), 2.0))))
    def test_property_matches_per_gate_reference(self, c):
        assert np.array_equal(simulate(c), full_update_reference(c))

    @pytest.mark.parametrize("n", [8, 9])
    def test_large_diagonal_blocks(self, n):
        # blocks of 2^(n-1) or 2^(n-2) rows, 256 KiB and more: numpy may reuse
        # an unnamed temporary of that size and multiply it in place, by
        # another loop than the one a view gets
        rng = np.random.default_rng(3100 + n)
        gates = [Gate(GateKind.H, q) for q in range(n)]
        for _ in range(8):
            target = int(rng.integers(n))
            other = int(rng.choice([q for q in range(n) if q != target]))
            controls = ((other, bool(rng.integers(2))),) if rng.integers(2) else ()
            gates.append(Gate(GateKind.PHASE, target, controls, rng.uniform(-math.pi, math.pi)))
            gates.append(Gate(GateKind.Z, target, controls))
        c = Circuit(n, tuple(gates))
        assert np.array_equal(simulate(c), full_update_reference(c))


@st.composite
def few_site_circuits(draw):
    """Gates of every kind on two or three sites with n-1 controls, plus
    now and then an H with fewer, so that gates on one site often come
    back to back."""
    n = draw(st.integers(1, 6))
    everyone = (1 << n) - 1
    sites = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, everyone)))
        for _ in range(draw(st.integers(2, 3)))
    ]
    gates = [Gate(GateKind.H, q) for q in range(n)]
    for _ in range(draw(st.integers(0, 24))):
        if n > 1 and draw(st.integers(0, 7)) == 0:
            gates.append(gate_on(n, GateKind.H, draw(st.integers(0, n - 1)), 0, 0, None))
            continue
        kind = draw(st.sampled_from(list(GateKind)))
        target, polarity = draw(st.sampled_from(sites))
        gates.append(gate_on(n, kind, target, everyone, polarity, draw(st.floats(-4.0, 4.0))))
    phase = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return Circuit(n, tuple(gates), global_phase=phase)


class TestRowViews:
    """A gate with n-1 controls reads and writes its two rows as views, and
    a PHASE right after a 2x2 update on the same site scales that update's
    row j as it is stored. Every case must equal the full 2x2 update of
    every gate bit for bit."""

    @staticmethod
    def circuit(n, core):
        # an H on every qubit first, so that no row is a unit row
        gates = tuple(Gate(GateKind.H, q) for q in range(n)) + core
        return Circuit(n, gates, global_phase=cmath.exp(0.3j))

    @staticmethod
    def full_site(n, target, polarity):
        return tuple((q, bool(polarity >> q & 1)) for q in range(n) if q != target)

    def check(self, c):
        assert np.array_equal(simulate(c), full_update_reference(c))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_upright_ry_phase(self, n):
        ry = Gate(GateKind.RY, n - 1, self.full_site(n, n - 1, 5), 0.7)
        phase = ry._on_site(GateKind.PHASE, -1.1)
        self.check(self.circuit(n, (ry, phase)))
        # a second PHASE is applied on its own, and an H update folds too
        self.check(self.circuit(n, (ry, phase, phase, ry, phase._on_site(GateKind.H, None), phase)))
        # a PHASE first, and an update last, with nothing to fold
        self.check(self.circuit(n, (phase, ry)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_swapped_ry_x_phase_x(self, n):
        ry = Gate(GateKind.RY, 0, self.full_site(n, 0, 2), -0.4)
        flip = ry._on_site(GateKind.X, None)
        self.check(self.circuit(n, (ry, flip, ry._on_site(GateKind.PHASE, 2.2), flip)))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_phase_on_other_controls(self, n):
        # the same target, one control of the other polarity: no fold
        ry = Gate(GateKind.RY, 1, self.full_site(n, 1, 0b01), 0.9)
        phase = Gate(GateKind.PHASE, 1, self.full_site(n, 1, 0b00), 0.5)
        assert phase.target == ry.target and phase.controls != ry.controls
        self.check(self.circuit(n, (ry, phase, ry, phase)))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equal_controls_in_distinct_tuples(self, n):
        controls = self.full_site(n, 0, 0b10)
        ry = Gate(GateKind.RY, 0, controls, 1.3)
        phase = Gate(GateKind.PHASE, 0, tuple(list(controls)), -0.6)
        assert phase.controls == ry.controls and phase.controls is not ry.controls
        self.check(self.circuit(n, (ry, phase, phase._on_site(GateKind.X, None), ry, phase)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parsed_circuit(self, n):
        # parse gives a site's RY and PHASE lines distinct control tuples
        h = random_hermitian_unitary(np.random.default_rng(4100 + n), 1 << n)
        circuit, _ = synthesize(h)
        parsed = parse(serialize(circuit))
        assert any(
            a.kind is GateKind.RY and b.kind is GateKind.PHASE
            and a.controls == b.controls and a.controls is not b.controls
            for a, b in zip(parsed.gates, parsed.gates[1:])
        )
        self.check(parsed)
        assert simulate(parsed).tobytes() == simulate(circuit).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(few_site_circuits())
    def test_property_few_sites(self, c):
        self.check(c)


class TestDiagonalHalfSlice:
    """Z and PHASE with fewer than n-1 controls scale their rows j alone;
    every entry must equal the full 2x2 update's."""

    KINDS = (GateKind.Z, GateKind.PHASE)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_full_update(self, n):
        rng = np.random.default_rng(3000 + n)
        gates = []
        for _ in range(12):
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


class TestRowPairMemo:
    """The row pairs are memoized per (target, controls, n); a memo warmed by
    circuits at other qubit counts must not change a byte of the result."""

    SITES = (
        (GateKind.H, 0, ()),
        (GateKind.X, 0, ((1, True),)),
        (GateKind.RY, 1, ((0, False),)),
        (GateKind.PHASE, 1, ((0, True),)),
        (GateKind.X, 1, ()),
        (GateKind.Z, 0, ((1, False),)),
    )

    def circuit_on(self, n):
        gates = [Gate(kind, t, c, 0.7 if kind.parametric else None) for kind, t, c in self.SITES]
        return Circuit(n, tuple(gates) * 2, global_phase=1j)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cold_and_warm_memo(self, n):
        circuit_module._row_pairs.cache_clear()
        cold = simulate(self.circuit_on(n))
        circuit_module._row_pairs.cache_clear()
        for other in (2, 3, 4, 5):
            if other != n:
                simulate(self.circuit_on(other))
        assert simulate(self.circuit_on(n)).tobytes() == cold.tobytes()
        assert np.array_equal(cold, full_update_reference(self.circuit_on(n)))


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
            Gate(GateKind.PHASE, 1, (), math.pi / 2),
            Gate(GateKind.X, 0, ((1, True),)),
            Gate(GateKind.PHASE, 0, (), -1.5 * math.pi),
            Gate(GateKind.X, 0, ((1, True),)),
            Gate(GateKind.RY, 1, (), -math.pi / 4),
            Gate(GateKind.PHASE, 0, (), 1.5 * math.pi),
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
            Gate(GateKind.PHASE, 1, ((0, True),), -math.pi / 2),
        )
        assert counts(Circuit(3, gates)) == {
            "MCX": 1,
            "MCZ": 1,
            "MCRY": 1,
            "MCPHASE": 2,
        }

    def test_controlled_h_keeps_its_kind(self):
        gates = (
            Gate(GateKind.H, 0, ((1, True),)),
            Gate(GateKind.H, 0, ((1, True), (2, False))),
            Gate(GateKind.PHASE, 2, ((0, True),), 0.3),
        )
        assert counts(Circuit(3, gates)) == {"MCH": 2, "MCPHASE": 1}

    def test_total_matches_length(self):
        c = random_circuit(RNG, 4, 25)
        assert sum(counts(c).values()) == len(c.gates)

    def test_order_of_first_gates(self):
        # the classes keep the order of their first gates, as a per-gate walk gives
        for seed in range(20):
            c = random_circuit(np.random.default_rng(seed), 3, 12)
            walk: dict[str, int] = {}
            for g in c.gates:
                key = counts(Circuit(3, (g,))).popitem()[0]
                walk[key] = walk.get(key, 0) + 1
            assert list(counts(c).items()) == list(walk.items())


class TestSerialization:
    def test_cz_line(self):
        text = serialize(Circuit(2, (Gate(GateKind.Z, 1, ((0, True),)),)))
        assert "gate Z target=1 controls=+0 params=" in text

    def test_round_trip_fixed_circuit(self):
        c = Circuit(
            3,
            (
                Gate(GateKind.RY, 2, ((0, True), (1, False)), 0.78539816339744828),
                Gate(GateKind.PHASE, 0, (), -math.pi / 2),
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
        # S, SDG, RZ and Y are written as PHASE, or as a matrix, not as kinds
        for body in ("Q", "S", "SDG", "RZ target=0 params=0.3", "Y"):
            if " " not in body:
                body += " target=0 params="
            with pytest.raises(ParseError, match="unknown gate kind"):
                parse(f"qubits 1\nphase 1,0\ngate {body}\n")

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
        c = Circuit(1, (Gate(GateKind.PHASE, 0, (), angle),))
        assert parse(serialize(c)).gates[0].param == angle


class TestParseErrorLine:
    """A malformed circuit file names the line at fault, with the message
    of the check that rejects it."""

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            (
                "qubits 2\nphase 1,0\ngate X target=5 params=\n"
                "gate X target=0 params=\ngate X target=0 params=\n",
                3,
                "target 5 outside 2-qubit register",
            ),
            (
                "qubits 2\nphase 1,0\ngate X target=0 params=\n"
                "gate RY target=1 controls=+0,-3 params=0.5\ngate X target=0 params=\n",
                4,
                "control 3 outside 2-qubit register",
            ),
            ("qubits 0\nphase 1,0\n", 1, "need at least one qubit"),
            ("# header\nqubits -2\nphase 1,0\ngate X target=0 params=\n", 2,
             "need at least one qubit"),
            (
                "qubits 1\nphase 2,0\ngate X target=0 params=\ngate X target=0 params=\n",
                2,
                "global phase (2+0j) is not unit modulus",
            ),
            ("qubits 1\n\n# no phase\n", 3, "missing qubits/phase header"),
            ("qubits 1\n", 1, "missing qubits/phase header"),
            ("", 1, "missing qubits/phase header"),
        ],
    )
    def test_names_the_line(self, text, line, reason):
        for reader in (parse, parse_reference):
            with pytest.raises(ParseError) as exc:
                reader(text)
            assert (exc.value.line, exc.value.reason) == (line, reason)


# --- parse and serialize against their line-by-line references ----------------


@cache
def source_texts() -> tuple[str, ...]:
    """Synthesized circuits at n = 1..3 in both libraries, and every
    baseline form."""
    rng = np.random.default_rng(2024)
    inputs = [random_hermitian_unitary(rng, 1 << n) for n in (1, 2, 3)]
    inputs += [phased_involution(rng, 3), block_direct_sum(rng, 3)]
    circuits = []
    for h in inputs:
        c = synthesize(h)[0]
        circuits += [c, rewrite_cz_cnot(c, "cnot")]
    for u in (HADAMARD, PAULI_X, PAULI_Y, PAULI_Z):
        p = h2_params(u)
        circuits += [jacobi_cu(p, 1), jacobi_cu(p, 3), barenco_cu(p), qsd_cu(p)]
    return tuple(serialize(c) for c in circuits)


# angles a later line on a site may carry: some parse, some do not
PARAM_VALUES = [
    "nan", "inf", "-inf", "", " 0.5", "0.5;", "0.5;0.1", "0.5=1", "0.5", ";", "1_0", "-0",
    "\u20030.5", "0.5 target=0",
]
SEPARATORS = ["\t", "  ", "\x0b", "\xa0", "\u2003", " \t "]


def mutate_gate_line(draw, line: str) -> str:
    tokens = line.split(" ")
    mutation = draw(st.sampled_from(["params", "separator", "controls", "order", "none"]))
    if mutation == "params":  # also an angle on a fixed kind
        head, _, _ = line.rpartition(" params=")
        return f"{head} params={draw(st.sampled_from(PARAM_VALUES))}"
    if mutation == "separator":
        k = draw(st.integers(1, len(tokens) - 1))
        sep = draw(st.sampled_from(SEPARATORS))
        return " ".join(tokens[:k]) + sep + " ".join(tokens[k:])
    if mutation == "controls":
        k = next((k for k, t in enumerate(tokens) if t.startswith("controls=")), None)
        if k is None:
            return line
        pieces = tokens[k].removeprefix("controls=").split(",")
        if draw(st.booleans()):
            pieces.reverse()  # unsorted when there are two or more
        else:  # a duplicate, with either polarity
            q = draw(st.sampled_from(pieces))
            pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from("+-")) + q[1:])
        tokens[k] = "controls=" + ",".join(pieces)
        return " ".join(tokens)
    if mutation == "order":
        return " ".join(tokens[:2] + draw(st.permutations(tokens[2:])))
    return line


def mutated_text(draw, text: str) -> str:
    """``text`` with one to three gate lines mutated in place, or copied,
    mutated, to a later line on the same site."""
    lines = text.splitlines()
    if len(lines) < 3:
        return text
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(2, len(lines) - 1))
        line = mutate_gate_line(draw, lines[j])
        if draw(st.booleans()):
            lines.insert(draw(st.integers(j + 1, len(lines))), line)
        else:
            lines[j] = line
    return "\n".join(lines) + "\n"


def assert_parses_like_reference(text: str) -> Circuit | None:
    """Either both readers give equal circuits, gate for gate with equal
    ``highest`` and equal text, or both raise a ParseError with the same
    line and reason."""
    try:
        expected = parse_reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (got.value.line, got.value.reason) == (exc.line, exc.reason)
        return None
    c = parse(text)
    assert c == expected
    assert [g.highest for g in c.gates] == [g.highest for g in expected.gates]
    assert serialize_reference(c) == serialize_reference(expected)  # tells -0.0 from 0.0
    return c


ANGLES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, math.pi, -math.pi]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def site_circuits(draw):
    """Circuits of every kind on a few sites, so most gates repeat a site:
    negative and positive controls, uncontrolled gates, and edge angles."""
    n = draw(st.integers(1, 5))
    sites = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(list(GateKind)))
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        qubits = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        sites.append((kind, target, tuple((q, draw(st.booleans())) for q in qubits)))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind, target, controls = draw(st.sampled_from(sites))
        gates.append(Gate(kind, target, controls, draw(ANGLES) if kind.parametric else None))
    phase = draw(st.sampled_from([1.0, -1.0, 1j, -1j, cmath.exp(0.3j)]))
    return Circuit(n, tuple(gates), global_phase=phase)


class TestParseReference:
    """``parse`` reads each site once; ``parse_reference`` reads every line
    in full. They must agree on every text."""

    def test_source_texts_round_trip(self):
        for text in source_texts():
            c = assert_parses_like_reference(text)
            assert serialize(c) == text

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_texts(self, data):
        text = data.draw(st.sampled_from(source_texts()), label="source")
        assert_parses_like_reference(mutated_text(data.draw, text))

    @pytest.mark.parametrize("value", PARAM_VALUES)
    @pytest.mark.parametrize(
        "site", ["gate RY target=1 controls=-0 params=0.25", "gate X target=1 controls=-0 params="]
    )
    def test_repeated_site_value(self, site, value):
        head = site.rpartition(" params=")[0]
        text = f"qubits 2\nphase 1,0\n{site}\n{head} params={value}\n"
        assert_parses_like_reference(text)

    @pytest.mark.parametrize(
        "first, later",
        [
            ("gate RY target=1 params=0.5 controls=+0", "gate RY target=1 params=0.25"),
            ("gate X target=1 params= controls=-0", "gate X target=1 params="),
            ("gate PHASE target=1 params=\t0.5 controls=+0", "gate PHASE target=1 params=0.5"),
        ],
    )
    def test_fields_after_params(self, first, later):
        # the first line's head is not its whole site, so the later line,
        # on another site, must not take it
        c = assert_parses_like_reference(f"qubits 2\nphase 1,0\n{first}\n{later}\n")
        assert c is None or c.gates[1].controls == ()

    def test_fixed_site_shares_its_gate(self):
        c = parse("qubits 2\nphase 1,0\n" + "gate X target=1 controls=+0 params=\n" * 3)
        assert c.gates[0] is c.gates[1] is c.gates[2]

    @settings(max_examples=100, deadline=None)
    @given(site_circuits())
    def test_generated_circuits(self, c):
        assert assert_parses_like_reference(serialize(c)) == c


class TestSerializeReference:
    """``serialize`` formats each site once; it must write the bytes of
    ``serialize_reference``, which formats every gate in full."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_synthesized(self, n):
        rng = np.random.default_rng(300 + n)
        inputs = [random_hermitian_unitary(rng, 1 << n), phased_involution(rng, n)]
        if n >= 2:
            inputs.append(block_direct_sum(rng, n))
        for h in inputs:
            c = synthesize(h)[0]
            for form in (c, rewrite_cz_cnot(c, "cnot")):
                assert serialize(form) == serialize_reference(form)

    @pytest.mark.parametrize("u", [HADAMARD, PAULI_X, PAULI_Y, PAULI_Z])
    def test_baseline_forms(self, u):
        p = h2_params(u)
        forms = [jacobi_cu(p, k) for k in (1, 2, 3, 4)] + [barenco_cu(p), qsd_cu(p)]
        for c in forms:
            assert serialize(c) == serialize_reference(c)

    @settings(max_examples=150, deadline=None)
    @given(site_circuits())
    def test_generated_circuits(self, c):
        assert serialize(c) == serialize_reference(c)
