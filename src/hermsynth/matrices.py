"""Dense complex matrix arithmetic, predicates, and the matrix text format.

Matrices are plain numpy arrays of dtype complex128 in row-major order.
All comparisons use the fixed absolute tolerances of :class:`Tolerances`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError

HALF_PI = math.pi / 2.0


class Tolerances:
    """Absolute tolerances used throughout the pipeline: fixed constants.
    ``Tolerances()`` takes no arguments, and an instance has no attribute
    of its own to assign."""

    __slots__ = ()
    hermitian_tol = 1e-10
    unitary_tol = 1e-10
    zero_tol = 1e-12
    sign_tol = 1e-8
    verify_tol = 1e-9


DEFAULT_TOLERANCES = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, validating shape and finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def is_hermitian(a) -> bool:
    """Whether max |m - m^H| is within ``hermitian_tol``.

    The difference is formed one block of m's nonzero pattern at a time,
    batched by block size (:func:`_blocks`): i and j sit in one block
    whenever m[i, j] or m[j, i] is nonzero, so between two blocks both
    entries are exact zeros and so is their difference. A difference too
    large for a float is infinite, and fails."""
    tol = DEFAULT_TOLERANCES.hermitian_tol
    m = as_matrix(a)
    with np.errstate(over="ignore"):
        for idx in _blocks(m):
            b = m[idx[:, :, None], idx[:, None, :]]
            if not float(np.max(np.abs(b - b.conj().transpose(0, 2, 1)))) <= tol:
                return False
    return True


def is_unitary(a) -> bool:
    """Whether m m^H is the identity within ``unitary_tol``.

    The product is formed one block of m's nonzero pattern at a time,
    batched by block size (:func:`_blocks`): between two blocks every term
    of m m^H is an exact zero, as in the identity. A block with an entry
    of modulus above 1 + ``unitary_tol`` fails before its product is
    formed, as the diagonal of m m^H would: a product of entries that
    large can overflow."""
    tol = DEFAULT_TOLERANCES.unitary_tol
    m = as_matrix(a)
    for idx in _blocks(m):
        b = m[idx[:, :, None], idx[:, None, :]]
        if not float(np.max(np.abs(b))) <= 1.0 + tol:
            return False
        deviation = b @ b.conj().transpose(0, 2, 1)
        diagonal = np.arange(b.shape[1])
        deviation[:, diagonal, diagonal] -= 1.0
        if not float(np.max(np.abs(deviation))) <= tol:
            return False
    return True


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """The connected components ("blocks") of the nonzero pattern of the
    square matrix ``m``, with i and j joined when m[i, j] or m[j, i] is
    nonzero: one (count, size) index array per block size, ascending, each
    row one block's indices in ascending order. A pattern that is one
    block, such as any dense matrix, gives ``[np.arange(N)[None]]``.

    If i and j sit in different blocks, m[i, k] and m[j, k] are never both
    nonzero, so every term of (m D m^H)[i, j] is an exact zero for any
    diagonal D. A row 0 without zeros joins every index to 0, an O(N)
    test made first. Otherwise each index starts as its own root, and
    each round hooks, for every nonzero entry whose ends have two roots,
    the larger root under the smaller, then replaces every label by its
    root (pointer jumping; Shiloach & Vishkin, J. Algorithms 3, 57
    (1982)), and drops the entries whose ends now share a root. A root is
    the smallest index of its block, so the labels do not depend on which
    hook wins. A scrambled path or a lollipop at N = 1024 settles in 6-8
    rounds."""
    dim = m.shape[0]
    if np.all(m[0]):
        return [np.arange(dim)[None]]
    # re and im tested as float pairs: np.nonzero of complex is 6x slower
    pairs = (np.ascontiguousarray(m, dtype=complex).view(np.float64) != 0).view(np.uint16)
    flat = np.flatnonzero(pairs.astype(bool))
    rows, cols = flat // dim, flat % dim
    labels = np.arange(dim)
    a, b = rows, cols  # the roots of each entry's ends
    while a.size:
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := labels[labels], labels):
            labels = up
        a, b = labels[rows], labels[cols]
        cross = a != b
        rows, cols, a, b = rows[cross], cols[cross], a[cross], b[cross]
    sizes = np.bincount(labels)[labels]
    order = np.lexsort((labels, sizes))
    # np.unique costs about 11 ms on its first call in a process (numpy 2.4)
    return [order[sizes[order] == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(sizes))]


def off_norm(a) -> float:
    """Frobenius norm of the off-diagonal part (complex moduli), without a
    complex copy of the matrix (:func:`_off_norm`)."""
    return _off_norm(as_matrix(a))


def _off_norm(m: np.ndarray) -> float:
    """:func:`off_norm` of a matrix already validated by :func:`as_matrix`.
    The moduli go into a new row-major float array (numpy sums an array in
    its memory order), whose diagonal is zeroed and which is squared in
    place: the values and the summation order of the moduli of a row-major
    complex copy with its diagonal zeroed, without that copy."""
    mags = np.abs(m, order="C")
    np.fill_diagonal(mags, 0.0)
    np.square(mags, out=mags)
    return float(np.sqrt(np.sum(mags)))


def max_abs_diff(a, b) -> float:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot compare {a.shape} with {b.shape}")
    with np.errstate(over="ignore"):  # a difference past the float range is inf
        return float(np.max(np.abs(a - b)))


# --- matrix text format ---------------------------------------------------
#
#   # optional comment lines
#   dim D
#   re,im re,im ... (D tokens per row, D rows)
#
# Writers emit 17 significant digits so values round-trip bit exactly.


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_matrix(a) -> str:
    m = as_matrix(a)
    lines = [f"dim {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{format_float(z.real)},{format_float(z.imag)}" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    dim = None
    rows: list[list[complex]] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ParseError(lineno, f"expected 'dim D' header, got {line!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"bad dimension {parts[1]!r}") from None
            if dim < 1:
                raise ParseError(lineno, f"dimension must be >= 1, got {dim}")
            continue
        tokens = line.split()
        if len(tokens) != dim:
            raise ParseError(lineno, f"expected {dim} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            pieces = tok.split(",")
            if len(pieces) != 2:
                raise ParseError(lineno, f"bad entry {tok!r}, expected 're,im'")
            try:
                re, im = float(pieces[0]), float(pieces[1])
            except ValueError:
                raise ParseError(lineno, f"bad number in entry {tok!r}") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ParseError(lineno, f"non-finite entry {tok!r}")
            row.append(complex(re, im))
        rows.append(row)
        if len(rows) > dim:
            raise ParseError(lineno, f"more than {dim} rows")
    if dim is None:
        raise ParseError(last_line, "empty matrix file")
    if len(rows) != dim:
        raise ParseError(last_line, f"expected {dim} rows, got {len(rows)}")
    return as_matrix(np.array(rows, dtype=complex))


def load_matrix(path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


def save_matrix(path, a) -> None:
    Path(path).write_text(format_matrix(a))
