"""Independent correctness oracle for circuit text.

Parses the circuit text format itself and applies each gate to the 2^n
identity held as a tensor of shape (2,)*n + (2^n,), with qubit 0 as the
first (most significant) axis. Nothing here calls ``hermsynth.circuit``:
the gate matrices and the control semantics are written out again from
the documented conventions, so a bug in the program's own simulator cannot
hide a wrong circuit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_R = 1.0 / math.sqrt(2.0)
_FIXED = {
    "X": (0, 1, 1, 0),
    "Y": (0, -1j, 1j, 0),
    "Z": (1, 0, 0, -1),
    "H": (_R, _R, _R, -_R),
    "S": (1, 0, 0, 1j),
    "SDG": (1, 0, 0, -1j),
}


class OracleError(ValueError):
    """The circuit text is malformed or does not match the matrix."""


def _entries(kind: str, param: float | None) -> tuple[complex, complex, complex, complex]:
    """2x2 entries (u00, u01, u10, u11); RY uses the half-angle convention."""
    if kind == "RY":
        c, s = math.cos(param / 2.0), math.sin(param / 2.0)
        return c, s, -s, c
    if kind == "PHASE":
        return 1, 0, 0, cmath.exp(1j * param)
    if kind == "RZ":
        return cmath.exp(-0.5j * param), 0, 0, cmath.exp(0.5j * param)
    if kind in _FIXED and param is None:
        return _FIXED[kind]
    raise OracleError(f"unknown gate {kind!r} with param {param!r}")


def _site(target: str, controls: str, n: int):
    """Index tuples selecting the target-0 and target-1 halves of the rows
    whose control qubits hold their required values."""
    index = [slice(None)] * n
    qubits = [int(target)]
    for c in filter(None, controls.split(",")):
        if c[0] not in "+-":
            raise OracleError(f"bad control {c!r}")
        qubits.append(int(c[1:]))
        index[qubits[-1]] = 1 if c[0] == "+" else 0
    if len(set(qubits)) != len(qubits) or not all(0 <= q < n for q in qubits):
        raise OracleError(f"bad qubits: target {target}, controls {controls}")
    index[qubits[0]] = 0
    lo = tuple(index)
    index[qubits[0]] = 1
    return lo, tuple(index)


def circuit_matrix(text: str) -> np.ndarray:
    """Dense matrix of a circuit text: later gates are left factors."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise OracleError("missing header")
    head, phase_line = lines[0].split(), lines[1].split()
    if len(head) != 2 or head[0] != "qubits" or len(phase_line) != 2 or phase_line[0] != "phase":
        raise OracleError("bad header")
    n = int(head[1])
    re, im = phase_line[1].split(",")
    dim = 1 << n
    t = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    sites = {}
    for line in lines[2:]:
        tokens = line.split()
        if tokens[0] != "gate":
            raise OracleError(f"bad line {line!r}")
        fields = dict(tok.split("=", 1) for tok in tokens[2:])
        key = (fields["target"], fields.get("controls", ""))
        if key not in sites:
            sites[key] = _site(*key, n)
        lo, hi = sites[key]
        u00, u01, u10, u11 = _entries(tokens[1], float(fields["params"]) if fields["params"] else None)
        if u01 == 0 and u10 == 0:  # diagonal: scale each half in place
            if u00 != 1:
                t[lo] *= u00
            if u11 != 1:
                t[hi] *= u11
        elif u00 == 0 and u11 == 0 and u01 == 1 and u10 == 1:  # X: swap the halves
            a = t[lo].copy()
            t[lo] = t[hi]
            t[hi] = a
        else:
            a = t[lo].copy()
            b = t[hi].copy()
            t[lo] = u00 * a + u01 * b
            t[hi] = u10 * a + u11 * b
    return complex(float(re), float(im)) * t.reshape(dim, dim)


def check(text: str, matrix: np.ndarray, tol: float) -> float:
    """Max entrywise error of the circuit against ``matrix``; raises
    OracleError when the text is malformed or the error exceeds ``tol``."""
    try:
        got = circuit_matrix(text)
    except (KeyError, ValueError, IndexError) as exc:
        raise OracleError(f"unreadable circuit: {exc}") from None
    if got.shape != matrix.shape:
        raise OracleError(f"circuit is {got.shape}, matrix is {matrix.shape}")
    error = float(np.max(np.abs(got - matrix)))
    if not error <= tol:
        raise OracleError(f"circuit deviates from its input by {error:.3e} > {tol:.1e}")
    return error
