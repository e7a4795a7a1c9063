import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermsynth.circuit import Circuit, Gate, GateKind, serialize, simulate
from hermsynth.diagonal import synthesize_sign_diagonal
from hermsynth.errors import BadDimension


def rebuild_signs(gates, phase, n):
    """Integer oracle: each positively controlled Z flips the sign of basis
    states whose participating bits are all 1."""
    signs = []
    for k in range(1 << n):
        flips = 1 if phase == -1 else 0
        for g in gates:
            qubits = [g.target] + [q for q, _ in g.controls]
            if all((k >> (n - 1 - q)) & 1 for q in qubits):
                flips ^= 1
        signs.append(-1 if flips else 1)
    return tuple(signs)


def cz(target, *controls):
    return Gate(GateKind.Z, target, tuple((q, True) for q in controls))


def signs_of(value, size):
    """Sign vector whose entry k is -1 iff bit k of ``value`` is set."""
    return tuple(-1 if (value >> k) & 1 else 1 for k in range(size))


def diagonal_text(signs) -> str:
    gates, phase = synthesize_sign_diagonal(signs)
    return serialize(Circuit(len(signs).bit_length() - 1, gates, global_phase=phase))


def terms(gates) -> set[frozenset[int]]:
    """The ANF monomials the gates realize, as qubit subsets."""
    return {frozenset([g.target, *(q for q, _ in g.controls)]) for g in gates}


class TestSignToBits:
    """Validation, and the encoding of -1 entries as the function's 1s."""

    def test_cz_pattern(self):
        gates, phase = synthesize_sign_diagonal([1, 1, 1, -1])
        assert rebuild_signs(gates, phase, 2) == (1, 1, 1, -1)

    def test_parity_pattern(self):
        gates, phase = synthesize_sign_diagonal([1, -1, -1, 1])
        assert rebuild_signs(gates, phase, 2) == (1, -1, -1, 1)

    def test_all_plus(self):
        assert synthesize_sign_diagonal([1, 1, 1, 1]) == ((), 1)

    def test_rejects_non_sign(self):
        with pytest.raises(ValueError, match=r"sign entries must be \+1 or -1, got 0\.5"):
            synthesize_sign_diagonal([1, 0.5])
        # entries are checked before the length
        with pytest.raises(ValueError, match="sign entries"):
            synthesize_sign_diagonal([1, 0, -1])

    def test_rejects_non_power_of_two(self):
        for length in (0, 1, 3, 6):
            with pytest.raises(BadDimension, match=f"power of two >= 2, got {length}$"):
                synthesize_sign_diagonal([1] * length)


class TestAnfDecompose:
    """The Moebius transform over GF(2): which monomials get a gate."""

    def test_and_function(self):
        gates, phase = synthesize_sign_diagonal([1, 1, 1, -1])
        assert terms(gates) == {frozenset({0, 1})} and phase == 1

    def test_parity_function(self):
        gates, phase = synthesize_sign_diagonal([1, -1, -1, 1])
        assert terms(gates) == {frozenset({0}), frozenset({1})} and phase == 1

    def test_constant_one(self):
        assert synthesize_sign_diagonal([-1, -1, -1, -1]) == ((), -1)

    @staticmethod
    def check_linear(s1, s2):
        # the product of two sign vectors gives the symmetric difference of
        # their gate sets and the product of their phases
        g1, p1 = synthesize_sign_diagonal(s1)
        g2, p2 = synthesize_sign_diagonal(s2)
        gx, px = synthesize_sign_diagonal(tuple(a * b for a, b in zip(s1, s2)))
        assert set(gx) == set(g1) ^ set(g2)
        assert px == p1 * p2

    def test_gf2_linearity_exhaustive_n2(self):
        for v1, v2 in itertools.product(range(16), repeat=2):
            self.check_linear(signs_of(v1, 4), signs_of(v2, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_gf2_linearity_n3(self, v1, v2):
        self.check_linear(signs_of(v1, 8), signs_of(v2, 8))


class TestEmitDiagCircuit:
    """Each monomial becomes a Z on its highest qubit with positive controls
    on the rest, ordered by size and then by ascending qubits."""

    def test_single_cz(self):
        gates, phase = synthesize_sign_diagonal([1, 1, 1, -1])
        assert gates == (cz(1, 0),) and phase == 1
        m = simulate(Circuit(2, gates))
        assert np.array_equal(m, np.diag([1, 1, 1, -1]).astype(complex))

    def test_two_plain_z(self):
        gates, phase = synthesize_sign_diagonal([1, -1, -1, 1])
        assert gates == (cz(0), cz(1)) and phase == 1
        m = simulate(Circuit(2, gates, global_phase=phase))
        assert np.array_equal(m, np.diag([1, -1, -1, 1]).astype(complex))

    def test_global_minus_only(self):
        gates, phase = synthesize_sign_diagonal([-1, -1])
        assert gates == () and phase == -1 and isinstance(phase, complex)

    def test_single_qubit(self):
        assert synthesize_sign_diagonal([1, -1]) == ((cz(0),), 1)
        assert synthesize_sign_diagonal([-1, 1]) == ((cz(0),), -1)

    def test_order_by_term_size_then_qubits(self):
        # -1 on 011, 101, 110 and 111: the ANF is x0x1 + x0x2 + x1x2
        signs = (1, 1, 1, -1, 1, -1, -1, -1)
        gates, phase = synthesize_sign_diagonal(signs)
        assert gates == (cz(1, 0), cz(2, 0), cz(2, 1)) and phase == 1
        assert rebuild_signs(gates, phase, 3) == signs


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        size = 1 << n
        for combo in itertools.product((1, -1), repeat=size):
            gates, phase = synthesize_sign_diagonal(combo)
            assert rebuild_signs(gates, phase, n) == combo
            assert len(gates) <= size - 1

    def test_simulate_matches_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=8))
            gates, phase = synthesize_sign_diagonal(signs)
            m = simulate(Circuit(3, gates, global_phase=phase))
            assert np.array_equal(m, np.diag(np.array(signs, dtype=complex)))


# sha256 of the serialized circuits (gates, their order and the phase), which
# no change to synthesize_sign_diagonal may alter, since they reach every
# synthesized circuit: every sign vector at n = 1..3 in itertools.product
# order, and 200 vectors per n at n = 4..8 drawn from
# random.Random(7000 + n).getrandbits(2^n).
EXHAUSTIVE_SHA256 = {
    1: "c55ccaae6eefee5fe92572bcbee23af3b011ce2bceaef311a2a36bc9a68aeabf",
    2: "ff3553451c65ce958e06be506c32e7696df5f7cec2230385df884775ce286481",
    3: "0fc76bdea5df09d53fb4d77db3d96b696faf8cf44e18013572062e613d8c9652",
}
RANDOM_SHA256 = {
    4: "bfe2815642cd8cbf4f662420e7e1ef5a6e9f4e86800f96be386864fa1a3b35a7",
    5: "af6a3806532a729abfae2bc0154bee50cd80d1b2a10b6e9b4e1bdcf45faf4cc0",
    6: "d35fa495e1139f62ad6ed8e04f1b8791efbbe74d2de8d03269b37e7334d10b87",
    7: "775a464960024f8d636134efab5bab0dff00f756c93fbe620fe1e5e16c448f4d",
    8: "eba0f2ffbedaed090e2d641e76b2834b95b9b7db15e0f1a55277fc6e7b1faf47",
}


def digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


class TestPinned:

    def test_literal_text(self):
        # -1 on 011, 101 and 110: x0x1 + x0x2 + x1x2 + x0x1x2
        assert diagonal_text((1, 1, 1, -1, 1, -1, -1, 1)) == (
            "qubits 3\nphase 1,0\n"
            "gate Z target=1 controls=+0 params=\n"
            "gate Z target=2 controls=+0 params=\n"
            "gate Z target=2 controls=+1 params=\n"
            "gate Z target=2 controls=+0,+1 params=\n"
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        texts = (diagonal_text(c) for c in itertools.product((1, -1), repeat=1 << n))
        assert digest(texts) == EXHAUSTIVE_SHA256[n]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_random(self, n):
        rng = random.Random(7000 + n)
        size = 1 << n
        texts = (diagonal_text(signs_of(rng.getrandbits(size), size)) for _ in range(200))
        assert digest(texts) == RANDOM_SHA256[n]
