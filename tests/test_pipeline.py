"""The full pipeline's output, pinned by hash, and its determinism."""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    block_direct_sum,
    phased_involution,
    random_circuit,
    random_hermitian_unitary,
)
from hermsynth import twolevel
from hermsynth.circuit import counts, serialize, simulate
from hermsynth.jacobi import diagonalize
from hermsynth.twolevel import build_circuit, synthesize

TESTS = Path(__file__).resolve().parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_input(name: str, n: int) -> np.ndarray:
    if name == "dense":
        return random_hermitian_unitary(np.random.default_rng(9100 + n), 1 << n)
    rng = np.random.default_rng(9200 + n)
    involution = phased_involution(rng, n)
    return involution if name == "involution" else block_direct_sum(rng, n)


# (input, n) -> (first 16 hex digits of the input bytes' sha256, sha256 of the
# ``serialize`` text, sha256 of ``repr(sorted(counts(circuit).items()))``).
# The inputs come from numpy's Generator and LAPACK's QR; the input digest
# tells a numpy build that rounds them differently apart from a changed
# circuit.
PINNED = {
    ("dense", 1): (
        "d640908f82aebd02",
        "7186aaa3a4d3b39d61c20538dc772846f816414265bff46bb41923eaa912e833",
        "1c43bb2bb512bb5f6ab303d4f5fc3529ca18829b9415807e7662bb5045e8c895",
    ),
    ("dense", 2): (
        "9b23daaf1ccf5d6f",
        "3940f634faa7f270d332c2234ca8cc04432d1f97fc5189980495c0abd458c4cd",
        "59798525d0977c1214c52755e961522fae1c884b7161a28b4c6f3af1f53f3d6f",
    ),
    ("dense", 3): (
        "d8f11d7f2fc7d1ab",
        "e6275302eb00c4a1c4d9ac579cc43ed9948af02ef8169ad8d542bedec84be83c",
        "04321e0b481540208871d9d150c55752c858e60ab8e34e7208711e9d5b220bda",
    ),
    ("dense", 4): (
        "2eff0b20c6b70005",
        "0d3a8982bb3066f00902c1d8de36ae275c0268b7bd83480074edd58c2eb4d1e3",
        "55c2e8d586e1528af82df6ceb93cab118dbd046cfb813727bc1d35c98233b37e",
    ),
    ("dense", 5): (
        "0012a32928d52183",
        "27a32d250476f2b0f8cfc2f5fabc3b7d59dcb02165a69aa0b89d28ceec035b57",
        "357a94b385fa5b52ea9e1c51ea329d59310ef4f6afee3077fabb319096381ccc",
    ),
    ("involution", 6): (
        "c583357df54c10d9",
        "722bda8d8c4d8ea5483b775418ff134b86c1a983d8f460fbd38129891dc94d57",
        "49ee171c1cf190b73e1f49b7c4e69d266d24d90a812ccce3fbb1c93f329a2b13",
    ),
    ("blocks", 6): (
        "e6d814bdb0a9aad8",
        "8ab7397696a6b7f2387a5e293f7fa2a073315696a3357400fca871d2b73b9294",
        "aee49fecdd038016ac4f1bfb652e6f9de72bfdcb6dc0a38e1fb135f76f9ad4bf",
    ),
    ("involution", 7): (
        "8001cb3080add57d",
        "fe12a71a1a789a9ca7810e538524205534b18e9f286427587c2d5675063cdbc0",
        "53392ca9e96f5779c2ac0e5f1b39568edbabaf2b008a404677fe80b9ebe9c581",
    ),
    ("blocks", 7): (
        "cc4a5bd2a8e81820",
        "ee84632b5eb6a3fb6d2325431ff841d82c41138c6c038f304da73ff51a72de7a",
        "869d93a87fee1c30c40c3096d1c371d74a26e2aabbd25a3fc83bd660cac4098c",
    ),
}


class TestPinned:
    """Every circuit byte the pipeline writes for fixed inputs. A change
    meant to make the pipeline faster must leave these hashes alone; they
    move only with a recorded change of the rotation rule or its emission
    (every hash but dense n = 1 and 2 was last re-recorded when each
    complex rotation's phase moved onto its pivot-1 state, which removed
    the X pair around the PHASE of a swapped-orientation core)."""

    @pytest.mark.parametrize("name, n", sorted(PINNED))
    def test_circuit_text_and_counts(self, name, n):
        input_digest, text_digest, counts_digest = PINNED[name, n]
        h = pinned_input(name, n)
        assert sha256(h.tobytes())[:16] == input_digest, "the input itself changed"
        circuit, _ = synthesize(h)
        assert sha256(serialize(circuit).encode()) == text_digest
        assert sha256(repr(sorted(counts(circuit).items())).encode()) == counts_digest


def synthesized_text(n: int, seed: int) -> str:
    h = random_hermitian_unitary(np.random.default_rng(seed), 1 << n)
    return serialize(synthesize(h)[0])


class TestDeterminism:
    """``emit_two_level`` shares routes and X gates through process-global
    caches; no circuit byte may depend on what they hold."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        between=st.lists(st.integers(1, 4), max_size=3),
    )
    def test_cold_and_warm_caches(self, n, seed, between):
        twolevel._route.cache_clear()
        twolevel._full_x.cache_clear()
        cold = synthesized_text(n, seed)
        for k, m in enumerate(between):
            synthesized_text(m, seed + 1 + k)
        assert synthesized_text(n, seed) == cold

    def test_concurrent_calls_match_serial(self):
        # diagonalize and simulate keep their 0-d coefficient operands,
        # temporaries, row views and site tables local to the call; any of
        # them shared between threads would be rewritten mid-rotation or
        # mid-gate by the other thread, or be the wrong size for its matrix
        rng = np.random.default_rng(77)
        inputs = [random_hermitian_unitary(rng, 1 << n) for n in (5, 4, 5, 3, 5, 4, 5, 2)]
        circuits = [build_circuit(h)[0] for h in inputs]
        # gates with fewer controls on the same sites at n = 5 and n = 8
        circuits += [random_circuit(rng, n, 60) for n in (5, 8, 5, 8)]
        # numpy lets go of the GIL in a loop over more than 500 entries, so
        # a thread can only be cut short mid-rotation on rows of 512 or more
        inputs += [f(rng, 9) for f in (block_direct_sum, phased_involution) * 2]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(diagonalize, inputs))
            matrices = list(pool.map(simulate, circuits))
        assert results == list(map(diagonalize, inputs))
        for circuit, m in zip(circuits, matrices):
            assert simulate(circuit).tobytes() == m.tobytes()
        # each thread synthesizes inputs at n = 5 and n = 8, in opposite order
        dense = [random_hermitian_unitary(rng, 32) for _ in range(2)]
        sparse = [phased_involution(rng, 8), block_direct_sum(rng, 8)]
        jobs = ([dense[0], sparse[0], dense[1]], [sparse[1], dense[1], sparse[0]])
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(lambda job: [synthesize(h) for h in job], jobs))
        for job, outcome in zip(jobs, outcomes):
            for h, (circuit, report) in zip(job, outcome):
                serial_circuit, serial_report = synthesize(h)
                assert serialize(circuit) == serialize(serial_circuit)
                assert report == serial_report

    def test_hash_seed(self):
        script = (
            "import hashlib\n"
            "from test_pipeline import synthesized_text\n"
            "for n in (2, 3, 4):\n"
            "    print(hashlib.sha256(synthesized_text(n, 70 + n).encode()).hexdigest())\n"
        )
        path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(proc.stdout)
        here = "".join(
            hashlib.sha256(synthesized_text(n, 70 + n).encode()).hexdigest() + "\n"
            for n in (2, 3, 4)
        )
        assert outputs[0] == outputs[1] == here
