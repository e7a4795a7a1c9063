import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CNOT_EMBED,
    CZ_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    assemble_whole,
    block_direct_sum,
    full_rounds_reference,
    phased_involution,
    random_circuit,
    random_hermitian_unitary,
    strip_conjugate_controls_numeric,
)
from hermsynth.circuit import Circuit, Gate, GateKind, counts, invert_gate, invert_gates, simulate
from hermsynth.jacobi import diagonalize
from hermsynth.matrices import HALF_PI, max_abs_diff
from hermsynth.optimize import (
    cancel_adjacent_inverses,
    rewrite_cz_cnot,
    strip_conjugate_controls,
)

RNG = np.random.default_rng(4242)

CZ = Gate(GateKind.Z, 1, ((0, True),))


def cry(theta):
    return Gate(GateKind.RY, 1, ((0, True),), theta)


def cphase(alpha):
    return Gate(GateKind.PHASE, 1, ((0, True),), alpha)


class TestCancelAdjacentInverses:
    def test_double_cz(self):
        c = cancel_adjacent_inverses(Circuit(2, (CZ, CZ)))
        assert c.gates == ()

    def test_ry_inverse_pair(self):
        c = cancel_adjacent_inverses(
            Circuit(1, (Gate(GateKind.RY, 0, (), 0.3), Gate(GateKind.RY, 0, (), -0.3)))
        )
        assert c.gates == ()

    def test_no_cancellation_across_other_qubit(self):
        gates = (
            Gate(GateKind.RY, 0, (), 0.3),
            Gate(GateKind.X, 1),
            Gate(GateKind.RY, 0, (), -0.3),
        )
        c = cancel_adjacent_inverses(Circuit(2, gates))
        assert c.gates == gates

    def test_s_sdg_pair(self):
        # S and S^dagger are written as PHASE(pi/2) and PHASE(-pi/2)
        s, sdg = Gate(GateKind.PHASE, 0, (), HALF_PI), Gate(GateKind.PHASE, 0, (), -HALF_PI)
        assert cancel_adjacent_inverses(Circuit(1, (s, sdg))).gates == ()
        assert cancel_adjacent_inverses(Circuit(1, (sdg, s))).gates == ()

    def test_fixed_kinds_self_cancel(self):
        # every fixed kind is its own inverse; two different kinds never cancel
        fixed = [kind for kind in GateKind if not kind.parametric]
        for a in fixed:
            for b in fixed:
                gates = (Gate(a, 0), Gate(b, 0))
                out = cancel_adjacent_inverses(Circuit(1, gates)).gates
                assert out == (() if a is b else gates)

    def test_merge_same_axis(self):
        c = cancel_adjacent_inverses(
            Circuit(1, (Gate(GateKind.RY, 0, (), 0.25), Gate(GateKind.RY, 0, (), 0.5)))
        )
        assert len(c.gates) == 1 and c.gates[0].param == pytest.approx(0.75)

    def test_merge_cascades(self):
        gates = (
            Gate(GateKind.RY, 0, (), 0.5),
            Gate(GateKind.RY, 0, (), 0.25),
            Gate(GateKind.RY, 0, (), -0.75),
        )
        c = cancel_adjacent_inverses(Circuit(1, gates))
        assert c.gates == ()

    def test_nested_inverse_palindrome(self):
        # A B C C^dagger B^dagger A^dagger: each pair meets only once the inner one is gone
        head = (Gate(GateKind.RY, 0, (), 0.3), Gate(GateKind.X, 1, ((0, True),)), cphase(0.7))
        c = cancel_adjacent_inverses(Circuit(2, head + invert_gates(head)))
        assert c.gates == ()

    def test_matrix_preserved(self):
        for _ in range(100):
            c = random_circuit(RNG, 3, 20)
            out = cancel_adjacent_inverses(c)
            assert max_abs_diff(simulate(out), simulate(c)) < 1e-12
            assert len(out.gates) <= len(c.gates)

    def test_controls_must_match(self):
        gates = (cry(0.3), Gate(GateKind.RY, 1, (), -0.3))
        c = cancel_adjacent_inverses(Circuit(2, gates))
        assert c.gates == gates

    def test_merged_angle_overflow_raises(self):
        # 1e308 + 1e308 overflows to infinity; the merged gate checks its angle
        gates = (cry(1e308), cry(1e308))
        with pytest.raises(ValueError, match="^RY requires a finite angle$"):
            cancel_adjacent_inverses(Circuit(2, gates))

    def test_merged_gate_keeps_the_site(self):
        merged = cancel_adjacent_inverses(Circuit(2, (cry(0.25), cry(0.5)))).gates
        assert merged == (cry(0.75),) and merged[0].highest == 1


class TestStripConjugateControls:
    def test_ch_pattern(self):
        c = Circuit(2, (cry(math.pi / 4), CZ, cry(-math.pi / 4)))
        out = strip_conjugate_controls(c)
        assert [g.controls for g in out.gates] == [(), ((0, True),), ()]
        assert max_abs_diff(simulate(out), simulate(c)) < 1e-12

    def test_phase_rotation_pattern(self):
        gates = (
            cphase(math.pi / 2),
            cry(math.pi / 2),
            CZ,
            cry(-math.pi / 2),
            cphase(-math.pi / 2),
        )
        c = Circuit(2, gates)
        out = strip_conjugate_controls(c)
        stripped = [g for g in out.gates if not g.controls]
        assert len(stripped) == 4
        assert max_abs_diff(simulate(out), simulate(c)) < 1e-12

    def test_guard_rejects_non_inverse_sides(self):
        gates = (cry(0.4), CZ, cry(0.4))
        out = strip_conjugate_controls(Circuit(2, gates))
        assert out.gates == gates

    def test_requires_shared_controls(self):
        gates = (
            Gate(GateKind.RY, 2, ((0, True),), 0.4),
            Gate(GateKind.Z, 2, ((1, True),)),
            Gate(GateKind.RY, 2, ((0, True),), -0.4),
        )
        out = strip_conjugate_controls(Circuit(3, gates))
        assert out.gates == gates

    def test_matrix_preserved_random(self):
        for _ in range(100):
            c = random_circuit(RNG, 3, 15)
            out = strip_conjugate_controls(c)
            assert max_abs_diff(simulate(out), simulate(c)) < 1e-12


class TestRewriteCzCnot:
    def test_cz_to_cnot_counts(self):
        out = rewrite_cz_cnot(Circuit(2, (CZ,)), "cnot")
        assert counts(out) == {"CNOT": 1, "single": 2}
        assert max_abs_diff(simulate(out), CZ_EMBED) < 1e-12

    def test_cnot_to_cz_counts(self):
        cnot = Gate(GateKind.X, 1, ((0, True),))
        out = rewrite_cz_cnot(Circuit(2, (cnot,)), "cz")
        assert counts(out) == {"CZ": 1, "single": 2}
        assert max_abs_diff(simulate(out), CNOT_EMBED) < 1e-12

    def test_native_cnot_circuit_collapses(self):
        # conjugated-CZ form of a controlled NOT cancels to the bare CNOT
        gates = (
            Gate(GateKind.RY, 1, (), math.pi / 2),
            CZ,
            Gate(GateKind.RY, 1, (), -math.pi / 2),
        )
        out = rewrite_cz_cnot(Circuit(2, gates), "cnot")
        assert counts(out) == {"CNOT": 1}

    def test_double_rewrite_restores_matrix(self):
        for _ in range(50):
            c = random_circuit(RNG, 3, 10)
            there = rewrite_cz_cnot(c, "cnot")
            back = rewrite_cz_cnot(there, "cz")
            assert max_abs_diff(simulate(back), simulate(c)) < 1e-12

    def test_multi_controlled(self):
        mcz = Gate(GateKind.Z, 2, ((0, True), (1, False)))
        out = rewrite_cz_cnot(Circuit(3, (mcz,)), "cnot")
        assert counts(out) == {"MCX": 1, "single": 2}
        assert max_abs_diff(simulate(out), simulate(Circuit(3, (mcz,)))) < 1e-12

    def test_bad_library_name(self):
        with pytest.raises(ValueError):
            rewrite_cz_cnot(Circuit(1), "clifford")


class TestOptimize:
    """The cancel pass as ``build_circuit`` runs it, under the name
    ``optimize``, on whole circuits."""

    def test_already_minimal_unchanged(self):
        gates = (
            Gate(GateKind.RY, 1, (), math.pi / 4),
            CZ,
            Gate(GateKind.RY, 1, (), -math.pi / 4),
        )
        out = cancel_adjacent_inverses(Circuit(2, gates))
        assert out.gates == gates

    def test_sound_and_idempotent(self):
        for _ in range(150):
            c = random_circuit(RNG, 4, 30)
            out = cancel_adjacent_inverses(c)
            assert max_abs_diff(simulate(out), simulate(c)) < 1e-12
            again = cancel_adjacent_inverses(out)
            assert again.gates == out.gates

    def test_global_phase_untouched(self):
        c = Circuit(2, (CZ, CZ), global_phase=-1j)
        out = cancel_adjacent_inverses(c)
        assert out.global_phase == -1j


@cache
def assembled(n: int, seed: int) -> Circuit:
    h = random_hermitian_unitary(np.random.default_rng(seed), 1 << n)
    return assemble_whole(diagonalize(h), n)


class TestFullLoop:
    """On dense circuits the strip-and-cancel fixpoint over the whole
    circuit strips nothing, so one cancel pass gives its gates."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_same_gates_as_full_rounds(self, n):
        for seed in range(3 if n < 5 else 1):
            c = assembled(n, 100 * n + seed)
            expected = full_rounds_reference(c)
            out = cancel_adjacent_inverses(c)
            assert out.gates == expected.gates
            assert out.global_phase == expected.global_phase


# RY angles at which the off-diagonal entries sin(t/2) or cos(t/2) sit at
# or near 0, and time-ordered monomial gates whose product equals RY(t)
# there up to roundoff.
X, Z, PHASE = GateKind.X, GateKind.Z, GateKind.PHASE
RY_AS_MONOMIALS = {
    0.0: (),
    1e-14: (),
    -1e-14: (),
    4 * math.pi: (),
    -4 * math.pi: (),
    2 * math.pi: (Z, X, Z, X),
    -2 * math.pi: (Z, X, Z, X),
    math.pi: (X, Z),
    -math.pi: (Z, X),
    3 * math.pi: (Z, X),
    -3 * math.pi: (X, Z),
}
SPECIAL_RY = tuple(RY_AS_MONOMIALS)
SITE = (1, ((0, True), (2, False)))


def site_gate(kind, param=None):
    return Gate(kind, SITE[0], SITE[1], param)


def random_site_gate(rng, kinds):
    kind = kinds[rng.integers(len(kinds))]
    if kind is GateKind.RY:
        return site_gate(kind, SPECIAL_RY[rng.integers(len(SPECIAL_RY))])
    if kind.parametric:
        return site_gate(kind, float(rng.choice([0.0, math.pi, -math.pi, rng.uniform(-4, 4)])))
    return site_gate(kind)


def random_site_run(rng) -> tuple[tuple[Gate, ...], bool]:
    """A same-site run B D A: random gates B over every kind, a diagonal
    block D, and A undoing B, with some RY inverses written as monomials so
    that the run holds a single RY whose product with them is near I. Also
    whether A is literally ``invert_gates(B)``, with no unrelated tail, and
    B holds a gate that is not diagonal (else the whole run is one diagonal
    block, with no payload to strip)."""
    kinds = list(GateKind)
    diagonal = [k for k in kinds if k.diagonal]
    before = [random_site_gate(rng, kinds) for _ in range(rng.integers(1, 4))]
    block = [random_site_gate(rng, diagonal) for _ in range(rng.integers(1, 3))]
    after = []
    mirror = not all(g.kind.diagonal for g in before)
    for g in reversed(before):
        if g.kind is GateKind.RY and rng.integers(2):
            after += [site_gate(k) for k in RY_AS_MONOMIALS[-g.param]]
            mirror = False
        else:
            after.append(invert_gate(g))
    if rng.integers(4) == 0:  # an unrelated tail
        after.append(random_site_gate(rng, kinds))
        mirror = False
    return tuple(before + block + after), mirror


def strip_rounds_agree(circuit: Circuit) -> int:
    """Run strip and cancel to the fixpoint, asserting at every round that
    the strip pass returns the numeric reference's gates; the number of
    rounds in which the reference stripped something."""
    changed = 0
    current = circuit
    while True:
        stripped = strip_conjugate_controls(current)
        assert stripped.gates == strip_conjugate_controls_numeric(current).gates
        if stripped.gates == current.gates:
            return changed
        changed += 1
        current = cancel_adjacent_inverses(stripped)


class TestStripFilter:
    """strip_conjugate_controls strips a pair only when one side is the
    literal ``invert_gates`` mirror of the other. On the synthesizer's
    output it returns the same gates as the numeric test of the payload
    product (tests/helpers.strip_conjugate_controls_numeric); on runs that
    are an inverse only numerically it strips less, and stays sound."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_assembled_dense(self, n):
        strip_rounds_agree(assembled(n, 300 + n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_assembled_sparse(self, n):
        rng = np.random.default_rng(400 + n)
        for h in (phased_involution(rng, n), block_direct_sum(rng, n)):
            strip_rounds_agree(assemble_whole(diagonalize(h), n))

    def test_controlled_u_family(self):
        for u in (HADAMARD, PAULI_X, PAULI_Y):
            for k in (1, 2, 3, 4):
                h = np.eye(2 << k, dtype=complex)
                h[-2:, -2:] = u
                assert strip_rounds_agree(assemble_whole(diagonalize(h), k + 1)) > 0

    def test_single_ry_with_odd_xy_count(self):
        # around the centre PHASE(pi/2), RY(pi) and X X Z X or X X PHASE(pi) X
        # multiply to I up to roundoff, but neither side is the other's
        # mirror: kept as they are
        head = (site_gate(GateKind.RY, math.pi), site_gate(PHASE, math.pi / 2))
        for tail in (
            (site_gate(X), site_gate(X), site_gate(Z), site_gate(X)),
            (site_gate(X), site_gate(X), site_gate(PHASE, math.pi), site_gate(X)),
        ):
            run = head + tail
            c = Circuit(3, run)
            assert strip_conjugate_controls(c).gates == run
            assert strip_conjugate_controls_numeric(c).gates != run

    def test_random_runs(self):
        rng = np.random.default_rng(77)
        stripped = 0
        for _ in range(3000):
            run, mirror = random_site_run(rng)
            c = Circuit(3, run)
            out = strip_conjugate_controls(c)
            assert max_abs_diff(simulate(out), simulate(c)) < 1e-12
            if mirror:
                assert out.gates != run
            stripped += out.gates != run
        assert stripped > 1200  # 1271 measured, every one a mirror


HERMITIAN_BUILDERS = {
    "dense": lambda rng, n: random_hermitian_unitary(rng, 1 << n),
    "involution": phased_involution,
    "blocks": block_direct_sum,
}


class TestEmittedCircuits:
    """The passes on what the synthesizer emits, not on random gate lists."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 5),
        st.sampled_from(sorted(HERMITIAN_BUILDERS)),
        st.integers(0, 2**32 - 1),
    )
    def test_sound_idempotent_and_numeric_strip(self, n, builder, seed):
        h = HERMITIAN_BUILDERS[builder](np.random.default_rng(seed), n)
        c = assemble_whole(diagonalize(h), n)
        strip_rounds_agree(c)
        out = cancel_adjacent_inverses(c)
        assert max_abs_diff(simulate(out), simulate(c)) < 1e-12
        assert cancel_adjacent_inverses(out).gates == out.gates
