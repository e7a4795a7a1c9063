"""Synthesis of +/-1 sign diagonals into multi-controlled Z gates.

A sign diagonal is encoded as the Boolean function k -> [sign_k == -1]; its
algebraic normal form (Moebius transform over GF(2)) picks out one
positively-controlled Z gate per monomial. Everything here is exact integer
arithmetic, no floating point.
"""

from __future__ import annotations

from functools import cache
from itertools import compress

import numpy as np

from .circuit import Gate, GateKind
from .errors import BadDimension


@cache
def _monomial_tables(n: int) -> tuple[np.ndarray, tuple[Gate, ...]]:
    """The 2^n - 1 nonzero monomials of n variables, as index bitmasks in
    gate order (by size, then by ascending qubits), and one Z gate per
    monomial in that order: a Z on its highest qubit with positive
    controls on the rest. The gates are frozen, so every circuit shares
    them."""
    terms = sorted(
        (m.bit_count(), [n - 1 - b for b in reversed(range(n)) if (m >> b) & 1], m)
        for m in range(1, 1 << n)
    )
    order = np.array([m for _, _, m in terms], dtype=np.intp)
    gates = tuple(
        Gate(GateKind.Z, qubits[-1], tuple((q, True) for q in qubits[:-1]))
        for _, qubits, _ in terms
    )
    return order, gates


def synthesize_sign_diagonal(signs) -> tuple[tuple[Gate, ...], complex]:
    """Gates and global phase realizing diag(signs) exactly.

    Each nonzero monomial of the ANF becomes a Z on its highest qubit with
    positive controls on the rest, ordered by size and then by ascending
    qubits; the constant term becomes a global -1 (unobservable, but kept so
    reconstruction is exact including phase). Index bit b of a basis state
    is qubit n-1-b (qubit 0 is the most significant bit). The transform is
    an XOR butterfly on bytes, and the order and the gates come from
    per-n tables built on first use (:func:`_monomial_tables`).
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
    anf = np.array(coeffs, dtype=np.uint8)
    for b in range(n):
        # axis 1 is index bit b: each index with the bit set takes the XOR
        # of the index without it
        halves = anf.reshape(-1, 2, 1 << b)
        halves[:, 1] ^= halves[:, 0]
    order, gates = _monomial_tables(n)
    phase = -1.0 + 0.0j if anf[0] else 1.0 + 0.0j
    return tuple(compress(gates, anf[order].tolist())), phase
