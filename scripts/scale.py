"""How dense synthesis scales with n: writes BENCH_scale.json.

Usage (from the repository root):

    python3 scripts/scale.py [--out BENCH_scale.json]

One row per (n, seed), for n in ``N_RANGE`` and seed in ``SEEDS``: input 0
of ``bench/workloads.dense_balanced`` drawn from
``numpy.random.default_rng(seed)``, synthesized and verified by one
``hermsynth.twolevel.synthesize`` call in each of ``REPEATS`` fresh Python
processes, one after another. The row holds the ``SynthesisReport`` fields
it reads: sweeps, ``rotations_executed``, gates out (the sum of
``gate_counts``) and ``verify_error``, which must agree across the
processes; the median wall time of the call (cold: the route memo starts
empty) and its min-max range over them; and the largest peak RSS of the
processes. One cold run per row carries the host's load of that moment,
so the range shows how far a time moves between runs of one tree. The
environment record is ``bench/run.py``'s.

``--row N SEED`` prints one process's record for that row and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

N_RANGE = range(1, 10)
SEEDS = (0, 1, 2)
REPEATS = 3
# what every process must report alike for one row
REPEATED = ("sweeps", "rotations_executed", "gates_out", "verify_error")


def row(n: int, seed: int) -> dict:
    """Synthesize one input in this process and report it."""
    import numpy as np

    from workloads import dense_balanced

    from hermsynth.twolevel import synthesize

    h = dense_balanced(np.random.default_rng(seed), 0, n)
    start = perf_counter()
    _, report = synthesize(h)
    seconds = perf_counter() - start
    return {
        "n": n,
        "seed": seed,
        "sweeps": report.sweeps,
        "rotations_executed": report.rotations_executed,
        "gates_out": sum(report.gate_counts.values()),
        "verify_error": report.verify_error,
        "synthesize_s": round(seconds, 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def repeated_row(n: int, seed: int) -> dict:
    """The row of (n, seed) from ``REPEATS`` fresh processes; a report
    field of ``REPEATED`` that differs between them raises RuntimeError."""
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, __file__, "--row", str(n), str(seed)],
                capture_output=True, text=True, check=True,
            ).stdout
        )
        for _ in range(REPEATS)
    ]
    for run in runs[1:]:
        if any(run[k] != runs[0][k] for k in REPEATED):
            raise RuntimeError(f"row (n={n}, seed={seed}) differs between runs: {runs}")
    times = sorted(run["synthesize_s"] for run in runs)
    return {
        **{k: runs[0][k] for k in ("n", "seed", *REPEATED)},
        "synthesize_s": statistics.median(times),
        "synthesize_s_range": [times[0], times[-1]],
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def cpu_model() -> str:
    """The processor's model name, or the platform's word for it."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--row", type=int, nargs=2, metavar=("N", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        print(json.dumps(row(*args.row)))
        return 0

    from run import environment

    rows = []
    for n in N_RANGE:
        for seed in SEEDS:
            rows.append(repeated_row(n, seed))
            print(json.dumps(rows[-1]), flush=True)
    record = {
        "input": "bench/workloads.dense_balanced(numpy.random.default_rng(seed), 0, n)",
        "repeats": REPEATS,
        "environment": {"cpu": cpu_model(), **environment()},
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
