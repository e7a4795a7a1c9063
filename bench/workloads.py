"""Seeded input generators and the three benchmark workloads.

Every input is a 2^n x 2^n Hermitian unitary built by the benchmark with
numpy alone; the program under test only ever sees the finished matrices
(or, for ``cli-small``, matrix text files). The same seed always yields the
same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with the phases of
    R's diagonal folded back into Q."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def _conjugated_signs(rng: np.random.Generator, signs: np.ndarray) -> np.ndarray:
    """U diag(signs) U^dag for a Haar U, with roundoff asymmetry scrubbed."""
    u = haar_unitary(rng, len(signs))
    h = (u * signs) @ u.conj().T
    return (h + h.conj().T) / 2.0


def dense_balanced(rng: np.random.Generator, index: int, n: int) -> np.ndarray:
    """U diag(+/-1) U^dag with a Haar U and exactly half the signs negative,
    so the size of the -1 eigenspace does not vary between inputs."""
    signs = np.repeat([1.0, -1.0], (1 << n) // 2)
    rng.shuffle(signs)
    return _conjugated_signs(rng, signs)


def phased_involution(rng: np.random.Generator, n: int) -> np.ndarray:
    """A permutation involution with unit-modulus phases: 3N/8 disjoint
    transpositions (i j) carrying e^{+-i phi}, and +/-1 on every fixed
    point. One Jacobi sweep clears it, one rotation per pair. The pair count
    is fixed so that gate totals vary across seeds only through the pairs'
    Hamming distances."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    perm = rng.permutation(dim)
    pairs = 3 * dim // 8
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=pairs))
    for t in range(pairs):
        i, j = perm[2 * t], perm[2 * t + 1]
        h[j, i] = phases[t]
        h[i, j] = phases[t].conjugate()
    for i in perm[2 * pairs :]:
        h[i, i] = rng.choice([-1.0, 1.0])
    return h


def block_direct_sum(rng: np.random.Generator, n: int, block: int = 4) -> np.ndarray:
    """Direct sum of random block x block Hermitian unitaries on the diagonal."""
    dim = 1 << n
    block = min(block, dim)
    h = np.zeros((dim, dim), dtype=complex)
    for b in range(0, dim, block):
        h[b : b + block, b : b + block] = _conjugated_signs(rng, rng.choice([-1.0, 1.0], size=block))
    return h


def sparse_alternating(rng: np.random.Generator, index: int, n: int) -> np.ndarray:
    """Even pool positions get a phased involution, odd ones a direct sum of
    4x4 Hermitian unitaries: few rotations against a large dimension."""
    return phased_involution(rng, n) if index % 2 == 0 else block_direct_sum(rng, n)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``sizes`` lists the qubit count of each pool input in pool order. The
    timed loop cycles through the pool; ``warmup`` is one extra input, at
    the largest size, used for the untimed warm-up call.
    """

    name: str
    sizes: tuple[int, ...]
    generator: Callable[[np.random.Generator, int, int], np.ndarray]
    cli: bool

    def inputs(self, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
        rng = np.random.default_rng(seed)
        pool = [self.generator(rng, i, n) for i, n in enumerate(self.sizes)]
        warmup = self.generator(rng, len(self.sizes), max(self.sizes))
        return pool, warmup


WORKLOADS = {
    w.name: w
    for w in (
        # 21 inputs: a pass takes most of a run, and the latency tail (the
        # highest percentile with ten samples beyond it) stays at or above p50.
        Workload("dense-n5", (5,) * 21, dense_balanced, cli=False),
        Workload("sparse-n8", (8,) * 24, sparse_alternating, cli=False),
        # Interleaved sizes, so a run cut short mid-pass keeps the size mix;
        # twelve n=4 inputs, which carry most of the time and gates.
        Workload("cli-small", (2, 3, 4) * 12, dense_balanced, cli=True),
    )
}
