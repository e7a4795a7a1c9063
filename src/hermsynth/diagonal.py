"""Synthesis of +/-1 sign diagonals into multi-controlled Z gates.

A sign diagonal is encoded as the Boolean function k -> [sign_k == -1]; its
algebraic normal form (Moebius transform over GF(2)) picks out one
positively-controlled Z gate per monomial. Everything here is exact integer
arithmetic, no floating point.
"""

from __future__ import annotations

from .circuit import Gate, GateKind
from .errors import BadDimension


def synthesize_sign_diagonal(signs) -> tuple[tuple[Gate, ...], complex]:
    """Gates and global phase realizing diag(signs) exactly.

    Each nonzero monomial of the ANF becomes a Z on its highest qubit with
    positive controls on the rest, ordered by size and then by ascending
    qubits; the constant term becomes a global -1 (unobservable, but kept so
    reconstruction is exact including phase). Index bit b of a basis state
    is qubit n-1-b (qubit 0 is the most significant bit).
    """
    coeffs = []
    for s in signs:
        if s == 1:
            coeffs.append(0)
        elif s == -1:
            coeffs.append(1)
        else:
            raise ValueError(f"sign entries must be +1 or -1, got {s!r}")
    size = len(coeffs)
    if size < 2 or size & (size - 1):
        raise BadDimension(f"length must be a power of two >= 2, got {size}")
    n = size.bit_length() - 1
    for b in range(n):
        mask = 1 << b
        for k in range(size):
            if k & mask:
                coeffs[k] ^= coeffs[k ^ mask]
    terms = sorted(
        (m.bit_count(), [n - 1 - b for b in reversed(range(n)) if (m >> b) & 1])
        for m in range(1, size)
        if coeffs[m]
    )
    gates = tuple(
        Gate(GateKind.Z, qubits[-1], tuple((q, True) for q in qubits[:-1])) for _, qubits in terms
    )
    return gates, -1.0 + 0.0j if coeffs[0] else 1.0 + 0.0j
