"""Controlled-gate circuit IR with exact matrix semantics.

Bit convention: qubit 0 is the MOST significant bit of a basis-state index
(the top wire), so qubit q is bit n-1-q. The opposite convention is common
elsewhere.

Matrix semantics: the LAST gate in time is the LEFTMOST matrix factor, so
``simulate`` left-multiplies gate embeddings in list order.

A gate with n-1 controls is a two-level unitary: it touches only row i (the
control bits, target bit 0) and row j = i | target bit. ``simulate`` keeps a
pending row permutation ``perm``, with row r of the running product stored at
``m[perm[r]]``. An X swaps ``perm[i]`` and ``perm[j]`` and moves no data; a
diagonal gate with u00 = 1 scales row j alone; any other gate updates the two
rows by its 2x2 matrix. Every other gate first applies the permutation, then
takes the general path: the 2^n x 2^n matrix is viewed as a (2,)*n + (2^n,)
tensor whose axis q is qubit q (axis 0 is the most significant row bit, the
last axis the column), every control axis is fixed to its polarity by basic
slicing, and the target's 0 and 1 slices are updated together by the gate's
2x2 matrix, except that a diagonal gate with u00 = 1 (Z, S, SDG, PHASE)
scales the target's 1 slice alone. Both paths do the same arithmetic on
every entry they change, less terms that are exactly zero, so they agree
bit for bit up to the sign of a zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRange, ParseError
from .matrices import format_float

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class GateKind(Enum):
    """Gate kinds with the algebra the optimizer and simulator use.

    ``parametric`` kinds take an angle and invert by negating it; ``diagonal``
    kinds are diagonal 2x2 matrices; ``entries`` is the fixed 2x2 matrix in
    row-major order (None for parametric kinds); ``inverse`` is the kind of
    the inverse gate (S and SDG swap, every other kind is its own).
    """

    def __new__(cls, value, parametric, diagonal, entries=None):
        member = object.__new__(cls)
        member._value_ = value
        member.parametric = parametric
        member.diagonal = diagonal
        member.entries = entries
        member.inverse = member
        return member

    RY = "RY", True, False  # rotation about y, half-angle convention
    PHASE = "PHASE", True, True  # diag(1, e^{i a})
    RZ = "RZ", True, True  # diag(e^{-i t/2}, e^{i t/2})
    X = "X", False, False, (0j, 1 + 0j, 1 + 0j, 0j)
    Y = "Y", False, False, (0j, -1j, 1j, 0j)
    Z = "Z", False, True, (1 + 0j, 0j, 0j, -1 + 0j)
    H = "H", False, False, (complex(_SQRT1_2),) * 3 + (complex(-_SQRT1_2),)
    S = "S", False, True, (1 + 0j, 0j, 0j, 1j)
    SDG = "SDG", False, True, (1 + 0j, 0j, 0j, -1j)


GateKind.S.inverse, GateKind.SDG.inverse = GateKind.SDG, GateKind.S


def gate_entries(kind: GateKind, param: float | None) -> tuple[complex, complex, complex, complex]:
    """Row-major entries of the gate's 2x2 matrix (``param`` is the angle
    of a parametric kind and is not checked here)."""
    if not kind.parametric:
        return kind.entries
    if kind is GateKind.RY:
        c, s = math.cos(param / 2.0), math.sin(param / 2.0)
        return complex(c), complex(s), complex(-s), complex(c)
    if kind is GateKind.PHASE:
        return 1 + 0j, 0j, 0j, cmath.exp(1j * param)
    return cmath.exp(-0.5j * param), 0j, 0j, cmath.exp(0.5j * param)


def gate_matrix(kind: GateKind, param: float | None = None) -> np.ndarray:
    """Exact 2x2 matrix of a gate kind (angle required for parametric kinds)."""
    if kind.parametric and param is None:
        raise ValueError(f"{kind.value} requires an angle")
    if not kind.parametric and param is not None:
        raise ValueError(f"{kind.value} takes no angle")
    return np.array(gate_entries(kind, param), dtype=complex).reshape(2, 2)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: a kind applied to a target, fired by signed controls.

    ``controls`` holds (qubit, positive) pairs; a positive control fires on
    |1>, a negative one on |0>. Controls are kept sorted by qubit index.
    """

    kind: GateKind
    target: int
    controls: tuple[tuple[int, bool], ...] = ()
    param: float | None = None

    def __post_init__(self):
        if self.target < 0:
            raise ValueError(f"negative target {self.target}")
        ctrls = self.controls
        if any(ctrls[i][0] >= ctrls[i + 1][0] for i in range(len(ctrls) - 1)):
            ctrls = tuple(sorted(ctrls))
            object.__setattr__(self, "controls", ctrls)
        if ctrls and ctrls[0][0] < 0:  # sorted, so the first is the smallest
            raise ValueError(f"negative control {ctrls[0][0]}")
        seen = set()
        for q, _ in ctrls:
            if q in seen:
                raise ValueError("duplicate control qubits")
            seen.add(q)
        if self.target in seen:
            raise ValueError(f"target {self.target} also listed as control")
        if self.kind.parametric:
            if self.param is None or not math.isfinite(self.param):
                raise ValueError(f"{self.kind.value} requires a finite angle")
        elif self.param is not None:
            raise ValueError(f"{self.kind.value} takes no angle")


@dataclass(frozen=True)
class Circuit:
    """Time-ordered gate list on ``n_qubits`` wires plus a global phase."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    global_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "global_phase", complex(self.global_phase))
        if not abs(abs(self.global_phase) - 1.0) <= 1e-12:  # also rejects NaN
            raise ValueError(f"global phase {self.global_phase} is not unit modulus")
        # Controls are sorted, so a gate's highest qubit is its target or its
        # last control; only a circuit with one out of range walks every gate.
        highest = max(
            (
                g.controls[-1][0] if g.controls and g.controls[-1][0] > g.target else g.target
                for g in self.gates
            ),
            default=0,
        )
        if highest >= self.n_qubits:
            for g in self.gates:
                _check_indices(g, self.n_qubits)

    def __len__(self) -> int:
        return len(self.gates)


def _check_indices(gate: Gate, n: int) -> None:
    if gate.target >= n:
        raise IndexOutOfRange(f"target {gate.target} outside {n}-qubit register")
    for q, _ in gate.controls:
        if q >= n:
            raise IndexOutOfRange(f"control {q} outside {n}-qubit register")


def _apply_gate(t: np.ndarray, gate: Gate) -> None:
    """In-place left-multiplication by the gate's embedding of a matrix
    viewed as a (2,)*n + (2^n,) tensor, qubit q on axis q."""
    u00, u01, u10, u11 = gate_entries(gate.kind, gate.param)
    index = [slice(None)] * t.ndim
    for q, positive in gate.controls:
        index[q] = int(positive)  # an int, since numpy reads a bool as a mask
    index[gate.target] = 1
    b = t[tuple(index)]
    if gate.kind.diagonal and u00 == 1:
        b[...] = u11 * b  # out of place: ``*=`` rounds differently
        return
    index[gate.target] = 0
    a = t[tuple(index)]
    new_a = u00 * a + u01 * b
    b[...] = u10 * a + u11 * b
    a[...] = new_a


def simulate(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit, including its global phase."""
    n = circuit.n_qubits
    dim, full = 1 << n, n - 1
    m = np.eye(dim, dtype=complex)
    perm = list(range(dim))  # row r of the running product is m[perm[r]]
    moved = False
    for gate in circuit.gates:
        if len(gate.controls) != full:
            if moved:
                m = m[perm]
                perm = list(range(dim))
                moved = False
            _apply_gate(m.reshape((2,) * n + (dim,)), gate)
            continue
        i = 0
        for q, positive in gate.controls:
            if positive:
                i |= 1 << (full - q)
        j = i | 1 << (full - gate.target)
        kind = gate.kind
        if kind is GateKind.X:
            perm[i], perm[j] = perm[j], perm[i]
            moved = True
            continue
        u00, u01, u10, u11 = gate_entries(kind, gate.param)
        b = m[perm[j]]
        if kind.diagonal and u00 == 1:
            b[...] = u11 * b  # out of place: ``*=`` rounds differently
            continue
        a = m[perm[i]]
        new_a = u00 * a + u01 * b
        b[...] = u10 * a + u11 * b
        a[...] = new_a
    if moved:
        m = m[perm]
    return circuit.global_phase * m


def invert_gate(gate: Gate) -> Gate:
    if gate.kind.parametric:
        return replace(gate, param=-gate.param)
    if gate.kind.inverse is gate.kind:
        return gate
    return replace(gate, kind=gate.kind.inverse)


def invert_gates(gates) -> tuple[Gate, ...]:
    """Gate list implementing the inverse: reversed order, inverted gates."""
    return tuple(invert_gate(g) for g in reversed(tuple(gates)))


def counts(circuit: Circuit) -> dict[str, int]:
    """Histogram over gate classes: CZ, CNOT, MCX, MCZ, MCRY, MCPHASE, MCH,
    MCY and single.

    Uncontrolled gates of every kind fall in the ``single`` bucket. A Z or X
    with one control is CZ or CNOT, with more it is MCZ or MCX; phase-type
    kinds (S, SDG, PHASE, RZ) with controls count as MCPHASE, and a
    controlled H or Y as MCH or MCY, whatever its number of controls.
    """
    hist: dict[str, int] = {}
    for g in circuit.gates:
        k = len(g.controls)
        if k == 0:
            key = "single"
        elif g.kind is GateKind.Z:
            key = "CZ" if k == 1 else "MCZ"
        elif g.kind is GateKind.X:
            key = "CNOT" if k == 1 else "MCX"
        elif g.kind is GateKind.RY:
            key = "MCRY"
        elif g.kind.diagonal:
            key = "MCPHASE"
        else:
            key = "MC" + g.kind.value
        hist[key] = hist.get(key, 0) + 1
    return hist


# --- circuit text format ----------------------------------------------------
#
#   qubits N
#   phase re,im
#   gate <KIND> target=<t> [controls=<+q,-q,...>] params=<p1[;p2]>
#
# The controls field is omitted for uncontrolled gates; params= is left empty
# for fixed kinds. Angles use 17 significant digits and round-trip bit exactly.


def serialize(circuit: Circuit) -> str:
    phase = circuit.global_phase
    lines = [
        f"qubits {circuit.n_qubits}",
        f"phase {format_float(phase.real)},{format_float(phase.imag)}",
    ]
    for g in circuit.gates:
        parts = [f"gate {g.kind.value}", f"target={g.target}"]
        if g.controls:
            ctl = ",".join(f"{'+' if pos else '-'}{q}" for q, pos in g.controls)
            parts.append(f"controls={ctl}")
        parts.append("params=" + ("" if g.param is None else format_float(g.param)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_controls(lineno: int, text: str) -> tuple[tuple[int, bool], ...]:
    controls = []
    for piece in text.split(","):
        if not piece or piece[0] not in "+-":
            raise ParseError(lineno, f"bad control {piece!r}, expected +q or -q")
        try:
            q = int(piece[1:])
        except ValueError:
            raise ParseError(lineno, f"bad control qubit in {piece!r}") from None
        controls.append((q, piece[0] == "+"))
    return tuple(controls)


def _parse_gate_line(lineno: int, line: str) -> Gate:
    tokens = line.split()
    if tokens[0] != "gate" or len(tokens) < 3:
        raise ParseError(lineno, f"expected a gate line, got {line!r}")
    try:
        kind = GateKind(tokens[1])
    except ValueError:
        raise ParseError(lineno, f"unknown gate kind {tokens[1]!r}") from None
    fields: dict[str, str] = {}
    for tok in tokens[2:]:
        if "=" not in tok:
            raise ParseError(lineno, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in fields:
            raise ParseError(lineno, f"duplicate field {key!r}")
        fields[key] = value
    if "target" not in fields or "params" not in fields:
        raise ParseError(lineno, "gate line needs target= and params=")
    unknown = set(fields) - {"target", "controls", "params"}
    if unknown:
        raise ParseError(lineno, f"unknown fields {sorted(unknown)}")
    try:
        target = int(fields["target"])
    except ValueError:
        raise ParseError(lineno, f"bad target {fields['target']!r}") from None
    controls = _parse_controls(lineno, fields["controls"]) if "controls" in fields else ()
    params = [p for p in fields["params"].split(";") if p]
    if len(params) > 1:
        raise ParseError(lineno, f"{kind.value} takes at most one parameter")
    param = None
    if params:
        try:
            param = float(params[0])
        except ValueError:
            raise ParseError(lineno, f"bad angle {params[0]!r}") from None
    try:
        return Gate(kind, target, controls, param)
    except (ValueError, IndexError) as exc:
        raise ParseError(lineno, str(exc)) from None


def parse(text: str) -> Circuit:
    n_qubits = None
    phase = None
    gates: list[Gate] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n_qubits is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "qubits":
                raise ParseError(lineno, f"expected 'qubits N' header, got {line!r}")
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"bad qubit count {parts[1]!r}") from None
            continue
        if phase is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "phase":
                raise ParseError(lineno, f"expected 'phase re,im', got {line!r}")
            pieces = parts[1].split(",")
            if len(pieces) != 2:
                raise ParseError(lineno, f"bad phase {parts[1]!r}")
            try:
                phase = complex(float(pieces[0]), float(pieces[1]))
            except ValueError:
                raise ParseError(lineno, f"bad phase {parts[1]!r}") from None
            continue
        gates.append(_parse_gate_line(lineno, line))
    if n_qubits is None or phase is None:
        raise ParseError(last_line, "missing qubits/phase header")
    try:
        return Circuit(n_qubits, tuple(gates), global_phase=phase)
    except (ValueError, IndexError) as exc:
        raise ParseError(last_line, str(exc)) from None


def load_circuit(path) -> Circuit:
    return parse(Path(path).read_text())


def save_circuit(path, circuit: Circuit) -> None:
    Path(path).write_text(serialize(circuit))
