"""Controlled-gate circuit IR with exact matrix semantics.

Bit convention: qubit 0 is the MOST significant bit of a basis-state index
(the top wire), so qubit q is bit n-1-q. The opposite convention is common
elsewhere.

Matrix semantics: the LAST gate in time is the LEFTMOST matrix factor, so
``simulate`` left-multiplies gate embeddings in list order.

Every gate is one 2x2 block applied to the row pairs (i, j) its controls
select: row i has the control bits and target bit 0, and j = i | target bit.
``simulate`` reads rows through one pending row permutation ``perm``, with
row r of the running product stored at ``m[perm[r]]``. An X swaps
``perm[i]`` and ``perm[j]`` and moves no data; a diagonal gate (Z, PHASE;
u00 = 1) scales rows ``perm[j]`` alone; any other gate updates both rows
by its 2x2 matrix. A gate with n-1 controls has one pair, any other gate
2^(n-1-k) pairs for its k controls.

``Gate(...)`` validates the whole gate and is the only way to give a gate a
new site. Gates on the site of an existing gate (an inverse, a merged
rotation, an emitted rotation core, a later line of a circuit file that
``parse`` has already read that site from) come from ``Gate._on_site``,
which checks the angle alone: the site it copies was validated when its
gate was built.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

import numpy as np
from numpy import add, multiply

from .errors import IndexOutOfRange, ParseError
from .matrices import format_float

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class GateKind(Enum):
    """Gate kinds with the algebra the optimizer and simulator use.

    ``parametric`` kinds take an angle and invert by negating it; every
    fixed kind is its own inverse. ``diagonal`` kinds are diagonal 2x2
    matrices with top-left entry 1. ``entries`` is the fixed 2x2 matrix in
    row-major order (None for parametric kinds).
    """

    def __new__(cls, value, parametric, diagonal, entries=None):
        member = object.__new__(cls)
        member._value_ = value
        member.parametric = parametric
        member.diagonal = diagonal
        member.entries = entries
        return member

    RY = "RY", True, False  # rotation about y, half-angle convention
    PHASE = "PHASE", True, True  # diag(1, e^{i a})
    X = "X", False, False, (0j, 1 + 0j, 1 + 0j, 0j)
    Z = "Z", False, True, (1 + 0j, 0j, 0j, -1 + 0j)
    H = "H", False, False, (complex(_SQRT1_2),) * 3 + (complex(-_SQRT1_2),)

    # members are singletons that compare by identity
    __hash__ = object.__hash__


def gate_entries(kind: GateKind, param: float | None) -> tuple[complex, complex, complex, complex]:
    """Row-major entries of the gate's 2x2 matrix (``param`` is the angle
    of a parametric kind and is not checked here)."""
    if not kind.parametric:
        return kind.entries
    if kind is GateKind.RY:
        c, s = math.cos(param / 2.0), math.sin(param / 2.0)
        return complex(c), complex(s), complex(-s), complex(c)
    return 1 + 0j, 0j, 0j, cmath.exp(1j * param)


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

    ``Gate(...)`` checks everything: a nonnegative target, distinct
    nonnegative controls that exclude the target, and the angle (finite for
    parametric kinds, absent otherwise). Parsing, user code and the
    baselines build gates this way. :meth:`_on_site` derives a gate from
    one already built (inverses, merged angles, the emitted rotation
    cores): it copies the target, controls and ``highest`` and checks only
    the new angle, since the site passed the checks when the first gate was
    built and a frozen gate cannot change it.
    """

    kind: GateKind
    target: int
    controls: tuple[tuple[int, bool], ...] = ()
    param: float | None = None
    # the largest qubit index the gate touches, for Circuit's range check
    highest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        target, ctrls = self.target, self.controls
        if target < 0:
            raise ValueError(f"negative target {target}")
        highest = target
        if ctrls:
            qubits = [q for q, _ in ctrls]
            if qubits != sorted(qubits):
                ctrls = tuple(sorted(ctrls))
                object.__setattr__(self, "controls", ctrls)
                qubits.sort()
            if qubits[0] < 0:
                raise ValueError(f"negative control {qubits[0]}")
            if len(set(qubits)) < len(qubits):
                raise ValueError("duplicate control qubits")
            if target in qubits:
                raise ValueError(f"target {target} also listed as control")
            highest = qubits[-1] if qubits[-1] > target else target
        object.__setattr__(self, "highest", highest)
        _check_angle(self.kind, self.param)

    def _on_site(self, kind: GateKind, param: float | None) -> Gate:
        """The gate of ``kind`` and ``param`` on this gate's site (target
        and controls). Only the angle is checked, as ``Gate(...)`` would."""
        _check_angle(kind, param)
        gate = _new_gate(Gate)
        _set_kind(gate, kind)
        _set_target(gate, self.target)
        _set_controls(gate, self.controls)
        _set_param(gate, param)
        _set_highest(gate, self.highest)
        return gate


def _check_angle(kind: GateKind, param: float | None) -> None:
    if kind.parametric:
        if param is None or not math.isfinite(param):
            raise ValueError(f"{kind.value} requires a finite angle")
    elif param is not None:
        raise ValueError(f"{kind.value} takes no angle")


# The slot setters skip the frozen ``__setattr__`` and ``__post_init__``:
# a gate built through them costs about a third of ``Gate(...)`` (timeit).
_new_gate = object.__new__
_set_kind = Gate.kind.__set__
_set_target = Gate.target.__set__
_set_controls = Gate.controls.__set__
_set_param = Gate.param.__set__
_set_highest = Gate.highest.__set__


@dataclass(frozen=True)
class Circuit:
    """Time-ordered gate list on ``n_qubits`` wires plus a global phase."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    global_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        _check_qubits(self.n_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "global_phase", complex(self.global_phase))
        _check_phase(self.global_phase)
        # only a circuit with a gate out of range walks every gate
        if max(map(attrgetter("highest"), self.gates), default=0) >= self.n_qubits:
            for g in self.gates:
                _check_indices(g, self.n_qubits)

    def __len__(self) -> int:
        return len(self.gates)


def _check_qubits(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one qubit")


def _check_phase(phase: complex) -> None:
    if not abs(abs(phase) - 1.0) <= 1e-12:  # also rejects NaN
        raise ValueError(f"global phase {phase} is not unit modulus")


def _check_indices(gate: Gate, n: int) -> None:
    if gate.target >= n:
        raise IndexOutOfRange(f"target {gate.target} outside {n}-qubit register")
    for q, _ in gate.controls:
        if q >= n:
            raise IndexOutOfRange(f"control {q} outside {n}-qubit register")


@cache
def _row_pairs(target: int, controls: tuple[tuple[int, bool], ...], n: int):
    """Row pairs (i, j) of a gate: i has the control bits and target bit 0,
    j = i | target bit. With n-1 controls they are ints, so the rows they
    pick are views; with k < n-1 controls, ascending index arrays of
    2^(n-1-k) pairs.

    The memo holds one entry per site (target, controls, n) a circuit names.
    Over every target and signed control set, the index arrays at one n
    total at most 4n * 4^n bytes, n/4 of the dense matrix.
    """
    full = n - 1
    i = 0
    for q, positive in controls:
        if positive:
            i |= 1 << (full - q)
    bit = 1 << (full - target)
    if len(controls) == full:
        return i, i | bit
    rows = np.array([i])
    named = {target, *(q for q, _ in controls)}
    for q in reversed(range(n)):
        if q not in named:
            rows = np.concatenate((rows, rows | 1 << (full - q)))
    return rows, rows | bit


def simulate(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit, including its global phase, by the
    row-pair rule of the module docstring.

    Everything the gates share is built once per call: a table from each
    site (target, controls) to its row pairs, the list of row views
    ``list(m)``, four 0-d complex arrays for the gate's entries and four
    row-length temporaries. numpy converts a Python complex operand on
    every product, and a 0-d array gives the same bits faster. A gate with
    n-1 controls reads its two rows as views, through ``perm.item``, and
    writes them in place: the four products go to the temporaries, and
    their sums over the old rows. A diagonal gate scales its row in place,
    holder first. A PHASE right after a 2x2 update on the same site scales
    that update's row j as it is stored. A gate with fewer controls picks
    its rows by index arrays, into copies, and stores them back: a diagonal
    one multiplies a named row, since ``*=`` and numpy's reuse of an
    unnamed fancy-indexed temporary each round differently."""
    x, ry, phase = GateKind.X, GateKind.RY, GateKind.PHASE  # Enum lookups cost
    n = circuit.n_qubits
    full = n - 1
    m = np.eye(1 << n, dtype=complex)
    rows = list(m)
    perm = np.arange(1 << n)  # row r of the running product is m[perm[r]]
    h00, h01, h10, h11 = (np.zeros((), dtype=complex) for _ in range(4))
    t1, t2, t3, t4 = (np.empty(1 << n, dtype=complex) for _ in range(4))
    sites: dict[tuple, tuple] = {}  # (target, controls) -> _row_pairs
    gates = circuit.gates
    fold = False  # the gate was folded into the update before it
    for gate, after in zip(gates, chain(islice(gates, 1, None), (None,))):
        if fold:
            fold = False
            continue
        target, controls = gate.target, gate.controls
        site = (target, controls)
        pair = sites.get(site)
        if pair is None:
            pair = sites[site] = _row_pairs(target, controls, n)
        i, j = pair
        kind = gate.kind
        if kind is ry:
            c, s = math.cos(gate.param / 2.0), math.sin(gate.param / 2.0)
            h00[()] = c
            h01[()] = s
            h10[()] = -s
            h11[()] = c
        elif kind is phase:
            h11[()] = cmath.exp(1j * gate.param)
        elif kind is not x:
            u00, u01, u10, u11 = kind.entries
            h00[()] = u00
            h01[()] = u01
            h10[()] = u10
            h11[()] = u11
        if len(controls) == full:
            if kind is x:
                perm[i], perm[j] = perm.item(j), perm.item(i)
                continue
            b = rows[perm.item(j)]
            if kind.diagonal:
                multiply(h11, b, b)
                continue
            a = rows[perm.item(i)]
            multiply(h00, a, t1)
            multiply(h01, b, t2)
            multiply(h10, a, t3)
            multiply(h11, b, t4)
            add(t1, t2, a)
            fold = (
                after is not None
                and after.kind is phase
                and after.target == target
                and after.controls == controls
            )
            if fold:
                add(t3, t4, t3)
                h11[()] = cmath.exp(1j * after.param)
                multiply(h11, t3, b)
            else:
                add(t3, t4, b)
            continue
        if kind is x:
            perm[i], perm[j] = perm[j], perm[i]
            continue
        pj = perm[j]
        if kind.diagonal:
            row = m[pj]
            m[pj] = h11 * row
            continue
        pi = perm[i]
        a, b = m[pi], m[pj]
        new_a = h00 * a + h01 * b
        m[pj] = h10 * a + h11 * b
        m[pi] = new_a
    out = m[perm]
    # one operand order at every size: numpy would compute an unnamed
    # temporary of 256 KiB or more (n >= 7) in place as m[perm] * phase,
    # which rounds differently from phase * m[perm]
    return multiply(circuit.global_phase, out, out)


def invert_gate(gate: Gate) -> Gate:
    if gate.kind.parametric:
        return gate._on_site(gate.kind, -gate.param)
    return gate


def invert_gates(gates) -> tuple[Gate, ...]:
    """Gate list implementing the inverse: reversed order, inverted gates."""
    return tuple(map(invert_gate, reversed(tuple(gates))))


def mirror_depth(gates) -> int:
    """The number k of leading gates that literally mirror the trailing
    ones: for every i < k, ``gates[i]`` has the kind, the target, the
    controls and the negated angle of ``gates[-1-i]``. The first k gates
    then multiply to the inverse of the last k exactly.

    The pairs come from ``zip`` over the first half and the reversed
    gates, and a parametric kind is told by its angle (a fixed kind has
    none); the loop measured faster than chains of C-level ``map`` and
    ``compress``, which build a tuple or call a getter per field."""
    k = 0
    for a, b in zip(islice(gates, len(gates) // 2), reversed(gates)):
        if (
            a.kind is not b.kind
            or a.target != b.target
            or a.controls != b.controls
            or (a.param is not None and a.param != -b.param)
        ):
            break
        k += 1
    return k


_kind = attrgetter("kind")
_controls = attrgetter("controls")


def counts(circuit: Circuit) -> dict[str, int]:
    """Histogram over gate classes: CZ, CNOT, MCX, MCZ, MCRY, MCPHASE, MCH
    and single.

    Uncontrolled gates of every kind fall in the ``single`` bucket. A Z or X
    with one control is CZ or CNOT, with more it is MCZ or MCX; a PHASE
    with controls counts as MCPHASE, and a controlled H as MCH, whatever
    its number of controls.
    The last k = :func:`mirror_depth` gates have the kinds and control
    counts of the first k, so the first k are counted twice and the centre
    between them once, by (kind, number of controls) in C-level passes.
    Each pair is then added to its class; a class keeps the place of its
    first gate in the dict's order, as in a walk over every gate.
    """
    gates = circuit.gates
    k = mirror_depth(gates)
    head, centre = gates[:k], gates[k : len(gates) - k]
    pairs = Counter(zip(map(_kind, head), map(len, map(_controls, head))))
    for pair in pairs:
        pairs[pair] *= 2
    pairs.update(zip(map(_kind, centre), map(len, map(_controls, centre))))
    hist: dict[str, int] = {}
    for (kind, ctl), count in pairs.items():
        if ctl == 0:
            key = "single"
        elif kind is GateKind.Z:
            key = "CZ" if ctl == 1 else "MCZ"
        elif kind is GateKind.X:
            key = "CNOT" if ctl == 1 else "MCX"
        else:
            key = "MC" + kind.value
        hist[key] = hist.get(key, 0) + count
    return hist


# --- circuit text format ----------------------------------------------------
#
#   qubits N
#   phase re,im
#   gate <KIND> target=<t> [controls=<+q,-q,...>] params=<p1[;p2]>
#
# The controls field is omitted for uncontrolled gates; params= is left empty
# for fixed kinds. Angles use 17 significant digits and round-trip bit exactly.
#
# Synthesized circuits put thousands of gates on a few dozen sites (target
# and controls), so both directions work a site at a time: ``serialize``
# formats each site's line text once, and ``parse`` validates each site in
# full once and checks only the angle of every later line on it.


def serialize(circuit: Circuit) -> str:
    phase = circuit.global_phase
    lines = [
        f"qubits {circuit.n_qubits}",
        f"phase {format_float(phase.real)},{format_float(phase.imag)}",
    ]
    heads: dict[tuple, str] = {}  # (kind, target, controls) -> line text through "params="
    for g in circuit.gates:
        site = (g.kind, g.target, g.controls)
        head = heads.get(site)
        if head is None:
            parts = [f"gate {g.kind.value}", f"target={g.target}"]
            if g.controls:
                ctl = ",".join(f"{'+' if pos else '-'}{q}" for q, pos in g.controls)
                parts.append(f"controls={ctl}")
            head = heads[site] = " ".join(parts) + " params="
        lines.append(head if g.param is None else head + format_float(g.param))
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


def _check_line(lineno: int, check, *args) -> None:
    """``check(*args)``, its ValueError or IndexError raised as the line's
    ParseError."""
    try:
        check(*args)
    except (ValueError, IndexError) as exc:
        raise ParseError(lineno, str(exc)) from None


def parse(text: str) -> Circuit:
    """The circuit of a circuit text; a malformed line raises ParseError
    naming that line.

    The first line on each site goes through ``_parse_gate_line``. Its text
    before `` params=`` keys the gate it gave. A later line with the same
    text takes that gate's site: a fixed kind with empty params reuses the
    (frozen) gate itself, and an angle with no whitespace becomes
    ``_on_site`` of it, which checks the angle as ``Gate(...)`` does. Any
    other line, or an angle those checks reject, goes through
    ``_parse_gate_line``, which raises the line's error.
    """
    n_qubits = None
    phase = None
    gates: list[Gate] = []
    sites: dict[str, Gate] = {}  # line text before " params=" -> its first gate
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if phase is not None:
            head, _, value = line.rpartition(" params=")
            site = sites.get(head)
            if site is not None:
                kind = site.kind
                if not kind.parametric:
                    if not value:
                        gates.append(site)
                        continue
                elif not value[:1].isspace():  # float() skips it, split() would not
                    try:
                        gates.append(site._on_site(kind, float(value)))
                        continue
                    except ValueError:
                        pass
            gate = _parse_gate_line(lineno, line)
            if gate.highest >= n_qubits:
                _check_line(lineno, _check_indices, gate, n_qubits)
            # a value with no whitespace leaves every other field in the head
            if site is None and not any(map(str.isspace, value)):
                sites[head] = gate
            gates.append(gate)
            continue
        parts = line.split()
        if n_qubits is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise ParseError(lineno, f"expected 'qubits N' header, got {line!r}")
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"bad qubit count {parts[1]!r}") from None
            _check_line(lineno, _check_qubits, n_qubits)
            continue
        if len(parts) != 2 or parts[0] != "phase":
            raise ParseError(lineno, f"expected 'phase re,im', got {line!r}")
        pieces = parts[1].split(",")
        if len(pieces) != 2:
            raise ParseError(lineno, f"bad phase {parts[1]!r}")
        try:
            phase = complex(float(pieces[0]), float(pieces[1]))
        except ValueError:
            raise ParseError(lineno, f"bad phase {parts[1]!r}") from None
        _check_line(lineno, _check_phase, phase)
    if phase is None:
        raise ParseError(max(len(lines), 1), "missing qubits/phase header")
    return Circuit(n_qubits, tuple(gates), global_phase=phase)


def load_circuit(path) -> Circuit:
    return parse(Path(path).read_text())


def save_circuit(path, circuit: Circuit) -> None:
    Path(path).write_text(serialize(circuit))
