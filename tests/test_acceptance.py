"""Acceptance suite: one test per top-level criterion, each printing a
PASS line when its assertions hold. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time

import numpy as np
import pytest

from helpers import (
    CH_EMBED,
    CY_EMBED,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    controlled_4x4,
    random_circuit,
    random_hermitian_unitary,
    step_factors,
)
from hermsynth.baselines import (
    TABULATED_MCU_COUNTS,
    barenco_cu,
    formula_mcu_counts,
    h2_matrix,
    h2_params,
    jacobi_cu,
    qsd_cu,
)
from hermsynth.circuit import GateKind, counts, simulate
from hermsynth.diagonal import synthesize_sign_diagonal
from hermsynth.jacobi import diagonalize
from hermsynth.matrices import max_abs_diff
from hermsynth.optimize import (
    OptLevel,
    cancel_adjacent_inverses,
    optimize,
    rewrite_cz_cnot,
    strip_conjugate_controls,
)
from hermsynth.twolevel import synthesize

PI = math.pi


def test_round_trip_synthesis():
    """50 random Hermitian unitaries per n in {1..4} resynthesize to 1e-9
    inside the 10 second budget."""
    rng = np.random.default_rng(20250810)
    start = time.perf_counter()
    cases = 0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            h = random_hermitian_unitary(rng, 1 << n)
            _, report = synthesize(h)
            assert report.verify_error <= 1e-9
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"\nPASS round-trip synthesis: {cases} cases, max error within 1e-9, {elapsed:.2f}s")


def test_table1_closed_form_sequences():
    """The four reference controlled gates come out as the exact listed
    sequences; the CNOT and multiplexer forms simulate exactly."""
    ch = jacobi_cu(h2_params(HADAMARD), 1)
    assert [g.kind for g in ch.gates] == [GateKind.RY, GateKind.Z, GateKind.RY]
    assert ch.gates[0].param == pytest.approx(PI / 4, abs=1e-12)
    assert ch.gates[2].param == pytest.approx(-PI / 4, abs=1e-12)

    cy = jacobi_cu(h2_params(PAULI_Y), 1)
    assert [g.kind for g in cy.gates] == [
        GateKind.SDG,
        GateKind.RY,
        GateKind.Z,
        GateKind.RY,
        GateKind.S,
    ]
    assert cy.gates[1].param == pytest.approx(PI / 2, abs=1e-12)
    assert cy.gates[3].param == pytest.approx(-PI / 2, abs=1e-12)

    cx = jacobi_cu(h2_params(PAULI_X), 1)
    assert [g.kind for g in cx.gates] == [GateKind.RY, GateKind.Z, GateKind.RY]
    assert cx.gates[0].param == pytest.approx(PI / 2, abs=1e-12)

    cz = jacobi_cu(h2_params(PAULI_Z), 1)
    assert [g.kind for g in cz.gates] == [GateKind.Z]
    assert cz.gates[0].controls == ((0, True),)

    for u in (HADAMARD, PAULI_Y, PAULI_X, PAULI_Z):
        cu = controlled_4x4(u)
        p = h2_params(u)
        for circuit in (barenco_cu(p), qsd_cu(p)):
            assert max_abs_diff(simulate(circuit), circuit.global_phase * cu) <= 1e-10
    print("\nPASS closed-form sequences: CH, CY, CNOT, CZ exact; CNOT/multiplexer forms verified")


def test_table2_gate_counts():
    """All twelve count cells in both gate libraries."""
    gates = [HADAMARD, PAULI_Y, PAULI_X, PAULI_Z]
    expected_native_cz = [2, 4, 2, 0]
    expected_converted_cnot = [2, 2, 0, 2]
    expected_qsd_single = [6, 7, 6, 4]

    for u, native, converted in zip(gates, expected_native_cz, expected_converted_cnot):
        p = h2_params(u)
        jc = jacobi_cu(p, 1)
        hist = counts(jc)
        assert hist.get("CZ", 0) == 1
        assert hist.get("single", 0) == native
        hist = counts(rewrite_cz_cnot(jc, "cnot"))
        assert hist.get("CNOT", 0) == 1
        assert hist.get("single", 0) == converted

        bc = barenco_cu(p)
        hist = counts(bc)
        assert hist.get("CNOT", 0) == 1
        assert hist.get("single", 0) == converted
        hist = counts(rewrite_cz_cnot(bc, "cz"))
        assert hist.get("CZ", 0) == 1
        assert hist.get("single", 0) == native

        hist = counts(qsd_cu(p))
        assert hist.get("CNOT", 0) == 2

    for u, single in zip(gates, expected_qsd_single):
        assert counts(qsd_cu(h2_params(u))).get("single", 0) == single
    print("\nPASS gate-count table: 12 cells reproduced in both libraries")


def test_worked_example_factors():
    """Diagonalizing the CY and CH embeddings reproduces the printed factor
    matrices to 1e-4."""
    res = diagonalize(CY_EMBED)
    assert len(res.steps) == 1
    r, g = step_factors(res.steps[0], 4)
    d = np.diag(np.array(res.signs, dtype=complex))
    expected = [
        np.diag([1, 1, 1, 1j]),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.7071, -0.7071], [0, 0, 0.7071, 0.7071]]),
        np.diag([1, 1, 1, -1]),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.7071, 0.7071], [0, 0, -0.7071, 0.7071]]),
        np.diag([1, 1, 1, -1j]),
    ]
    for got, want in zip([r, g, d, g.conj().T, r.conj().T], expected):
        assert max_abs_diff(got, np.asarray(want, dtype=complex)) <= 1e-4
    assert max_abs_diff(r @ g @ d @ g.conj().T @ r.conj().T, CY_EMBED) <= 1e-12

    res = diagonalize(CH_EMBED)
    assert len(res.steps) == 1
    r, g = step_factors(res.steps[0], 4)
    assert max_abs_diff(r, np.eye(4)) <= 1e-12  # real pivot: no phase factor
    d = np.diag(np.array(res.signs, dtype=complex))
    expected = [
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.9239, -0.3827], [0, 0, 0.3827, 0.9239]]),
        np.diag([1, 1, 1, -1]),
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.9239, 0.3827], [0, 0, -0.3827, 0.9239]]),
    ]
    for got, want in zip([g, d, g.conj().T], expected):
        assert max_abs_diff(got, np.asarray(want, dtype=complex)) <= 1e-4
    assert max_abs_diff(g @ d @ g.conj().T, CH_EMBED) <= 1e-12
    print("\nPASS worked examples: CY and CH factor matrices match to 1e-4")


def test_diagonal_synthesis_exhaustive():
    """All sign diagonals for n in {1,2,3} plus 1000 random n=4 cases
    reconstruct exactly, within the basis-size bound."""

    def rebuild(gates, phase, n):
        signs = []
        for k in range(1 << n):
            flips = 1 if phase == -1 else 0
            for g in gates:
                qubits = [g.target] + [q for q, _ in g.controls]
                if all((k >> (n - 1 - q)) & 1 for q in qubits):
                    flips ^= 1
            signs.append(-1 if flips else 1)
        return tuple(signs)

    total = 0
    for n in (1, 2, 3):
        for combo in itertools.product((1, -1), repeat=1 << n):
            gates, phase = synthesize_sign_diagonal(combo)
            assert rebuild(gates, phase, n) == combo
            assert len(gates) <= (1 << n) - 1
            total += 1
    assert total == 4 + 16 + 256  # 2^(2^n) diagonals per n

    rng = np.random.default_rng(99)
    for _ in range(1000):
        combo = tuple(int(s) for s in rng.choice([-1, 1], size=16))
        gates, phase = synthesize_sign_diagonal(combo)
        assert rebuild(gates, phase, 4) == combo
        assert len(gates) <= 15
    print(f"\nPASS diagonal synthesis: {total} exhaustive + 1000 random cases exact")


def test_rotation_count_bounds():
    """Per-sweep rotations and emitted controlled-RY gates stay within the
    worst-case bounds; controlled-gate embeddings need one sweep and at
    most one rotation."""
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        h = random_hermitian_unitary(rng, 1 << n)
        res = diagonalize(h)
        bound = (1 << (2 * n - 1)) - (1 << (n - 1))
        assert all(r <= bound for r in res.sweep_rotations)
        assert sum(res.sweep_rotations) == len(res.steps)
        circuit, report = synthesize(h, opt_level=OptLevel.NONE)
        n_cry = sum(1 for g in circuit.gates if g.kind is GateKind.RY)
        assert n_cry <= ((1 << (2 * n)) - (1 << n)) * res.sweeps
        assert n_cry == 2 * report.rotations_executed

    for u in (HADAMARD, PAULI_Y, PAULI_X, PAULI_Z):
        res = diagonalize(controlled_4x4(u))
        assert res.sweeps == 1
        assert len(res.steps) <= 1
    cu8 = np.eye(8, dtype=complex)
    cu8[-2:, -2:] = h2_matrix(0.83, -1.9)
    res = diagonalize(cu8)
    assert res.sweeps == 1 and len(res.steps) <= 1
    print("\nPASS rotation-count bounds: per-sweep and per-gate budgets hold")


def test_formula_counts():
    """Closed-form counts for the multi-controlled comparison, including the
    asserted discrepancy of the tabulated CZ counts at n = 7, 8."""
    assert formula_mcu_counts(7, "barenco") == (122, 124)
    assert formula_mcu_counts(8, "barenco") == (170, 172)
    assert formula_mcu_counts(9, "barenco") == (218, 220)
    for n, single in ((7, 98), (8, 122), (9, 146)):
        assert formula_mcu_counts(n, "jacobi")[1] == single
        assert 24 * n - 70 == single
    for n in (7, 8):
        formula_cz = formula_mcu_counts(n, "jacobi")[0]
        table_cz = TABULATED_MCU_COUNTS[("jacobi", n)][0]
        assert formula_cz != table_cz, "discrepancy expected, not reconciled"
    assert formula_mcu_counts(9, "jacobi")[0] == TABULATED_MCU_COUNTS[("jacobi", 9)][0]
    print("\nPASS count formulas: reference points match; n = 7, 8 discrepancy asserted as such")


def test_optimizer_soundness():
    """1000 random circuits: every pass preserves the simulated matrix to
    1e-12 and optimize is idempotent."""
    rng = np.random.default_rng(13)
    passes = [
        cancel_adjacent_inverses,
        strip_conjugate_controls,
        lambda c: rewrite_cz_cnot(c, "cnot"),
        lambda c: rewrite_cz_cnot(c, "cz"),
        lambda c: optimize(c, OptLevel.BASIC),
        lambda c: optimize(c, OptLevel.FULL),
    ]
    for i in range(1000):
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, int(rng.integers(0, 31)))
        reference = simulate(c)
        fn = passes[i % len(passes)]
        out = fn(c)
        assert max_abs_diff(simulate(out), reference) <= 1e-12
        if i % 10 == 0:
            for level in (OptLevel.BASIC, OptLevel.FULL):
                once = optimize(c, level)
                twice = optimize(once, level)
                assert once.gates == twice.gates
    print("\nPASS optimizer soundness: 1000 random circuits preserved to 1e-12, idempotent")


def test_multi_control_structure():
    """Structural check: a multi-controlled Hermitian gate synthesizes to an
    uncontrolled conjugate pair around one fully controlled Z."""
    for n in (3, 4):
        h = np.eye(1 << n, dtype=complex)
        h[-2:, -2:] = HADAMARD
        circuit, report = synthesize(h)
        assert report.verify_error <= 1e-9
        mcz = [g for g in circuit.gates if g.kind is GateKind.Z]
        assert len(mcz) == 1 and len(mcz[0].controls) == n - 1
        outer = [g for g in circuit.gates if g.kind is GateKind.RY]
        assert len(outer) == 2 and all(not g.controls for g in outer)
    print("\nPASS multi-control structure: uncontrolled conjugate pair around one C^(n-1) Z")


def test_native_controlled_u_form():
    """C^k U for U in {H, X, Y}, target on the last wire and positive
    controls, synthesizes to the gate classes of jacobi_cu: one C^k Z between
    uncontrolled rotations. Without strip_conjugate_controls (BASIC) the
    rotations keep their controls, so this guards that pass."""
    for u in (HADAMARD, PAULI_X, PAULI_Y):
        for k in (1, 2, 3, 4):
            h = np.eye(2 << k, dtype=complex)
            h[-2:, -2:] = u
            circuit, report = synthesize(h)
            assert report.verify_error <= 1e-9
            assert counts(circuit) == counts(jacobi_cu(h2_params(u), k))
            basic, _ = synthesize(h, opt_level=OptLevel.BASIC)
            assert counts(basic) != counts(circuit)
    print("\nPASS native C^k U form: synthesize matches jacobi_cu for H, X, Y at k = 1..4")
