"""How dense synthesis scales with n: writes BENCH_scale.json.

Usage (from the repository root):

    python3 scripts/scale.py [--out BENCH_scale.json]

One row per (n, seed), for n in ``N_RANGE`` and seed in ``SEEDS``: input 0
of ``bench/workloads.dense_balanced`` drawn from
``numpy.random.default_rng(seed)``, synthesized and verified by one
``hermsynth.twolevel.synthesize`` call in a fresh Python process. The row
holds that call's wall time (cold: the route memo starts empty) and the
process's peak RSS, next to the ``SynthesisReport`` fields it reads:
sweeps, ``rotations_executed``, gates out (the sum of ``gate_counts``) and
``verify_error``. The environment record is ``bench/run.py``'s.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

N_RANGE = range(1, 10)
SEEDS = (0, 1, 2)


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
            proc = subprocess.run(
                [sys.executable, __file__, "--row", str(n), str(seed)],
                capture_output=True, text=True, check=True,
            )
            rows.append(json.loads(proc.stdout))
            print(json.dumps(rows[-1]), flush=True)
    record = {
        "input": "bench/workloads.dense_balanced(numpy.random.default_rng(seed), 0, n)",
        "environment": {"cpu": cpu_model(), **environment()},
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
