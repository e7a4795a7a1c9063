"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from hermsynth.circuit import Circuit, Gate, GateKind

SQRT1_2 = 1.0 / math.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex)


def controlled_4x4(u: np.ndarray) -> np.ndarray:
    """CU with control on qubit 0 (most significant bit), target qubit 1."""
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = u
    return m


CH_EMBED = controlled_4x4(HADAMARD)
CY_EMBED = controlled_4x4(PAULI_Y)
CZ_EMBED = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CNOT_EMBED = controlled_4x4(PAULI_X)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_hermitian_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """U diag(+/-1) U^dag for a random unitary U and random signs."""
    u = random_unitary(rng, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    h = u @ np.diag(signs.astype(complex)) @ u.conj().T
    return (h + h.conj().T) / 2.0  # scrub roundoff asymmetry


_RANDOM_KINDS = list(GateKind)


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind = _RANDOM_KINDS[rng.integers(len(_RANDOM_KINDS))]
        target = int(rng.integers(n_qubits))
        others = [q for q in range(n_qubits) if q != target]
        rng.shuffle(others)
        n_controls = int(rng.integers(len(others) + 1))
        controls = tuple((q, bool(rng.integers(2))) for q in others[:n_controls])
        param = float(rng.uniform(-math.pi, math.pi)) if kind.parametric else None
        gates.append(Gate(kind, target, controls, param))
    return Circuit(n_qubits, tuple(gates))


def charpoly_coeffs(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    trace recursion (no eigensolver involved)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ (work + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(work) / k
    return coeffs
