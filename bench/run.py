"""hermsynth benchmark: one workload per run, seeded inputs, verified outputs.

Usage (from the repository root):

    python3 bench/run.py --workload dense-n5 --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric from a
separate traced run. The line before it is a JSON ``detail`` record: the
environment, the circuit hash, the latency tail's percentile and sample
count, and (traced) each span's share of the time. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from tracing import TraceError, Tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
SETUP_REPEATS = 3

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class CliExit(RuntimeError):
    """A CLI command returned a nonzero exit code."""


@dataclass
class Loop:
    """Outcome of one timed loop over the input pool."""

    attempts: list = field(default_factory=list)  # (pool index, latency s or None, error or None)
    digests: dict = field(default_factory=dict)  # pool index -> sha256 of the first output text
    gates: dict = field(default_factory=dict)  # pool index -> (gates, controlled gates)
    passes: float = 0.0

    def ok_latencies(self, bad: dict) -> list[float]:
        return [lat for i, lat, err in self.attempts if err is None and i not in bad]

    def throughput(self, bad: dict) -> float:
        busy = sum(lat for _, lat, _ in self.attempts if lat is not None)
        return len(self.ok_latencies(bad)) / busy if busy else 0.0


def make_work(workload: Workload, pool: list[np.ndarray], workdir: Path):
    """(work, finish): ``work(i)`` is the timed call on pool input i;
    ``finish(raw)`` turns its result into circuit text, untimed."""
    from hermsynth import circuit, cli, twolevel

    if not workload.cli:
        def work(i):
            return twolevel.synthesize(pool[i])[0]

        def finish(output):
            return circuit.serialize(output)

        return work, finish

    paths = []
    for i, matrix in enumerate(pool):
        d = workdir / f"in{i}"
        d.mkdir()
        (d / "m.txt").write_text(format_matrix(matrix))
        paths.append([str(d / name) for name in ("m.txt", "c.txt", "r.txt")])

    def work(i):
        m, c, r = paths[i]
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(["synth", m, "--lib", "cnot", "--out", c, "--report", r])
            if code == 0:
                code = cli.main(["verify", m, c])
        return code, c, sink.getvalue()

    def finish(raw):
        code, c, output = raw
        if code != 0:
            raise CliExit(f"exit {code}: {output.strip()[-200:]}")
        return Path(c).read_text()

    return work, finish


def format_matrix(m: np.ndarray) -> str:
    """Matrix text format with 17 significant digits, which round-trip every
    double exactly. Written here rather than with hermsynth's own writer, so
    that the CLI parses the documented format, not its writer's output."""
    rows = (" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in m)
    return f"dim {m.shape[0]}\n" + "\n".join(rows) + "\n"


def run_loop(work, finish, size, seconds, outdir: Path, whole_passes=False, reference=None) -> Loop:
    """Closed loop with one caller, cycling through the pool until
    ``seconds`` have passed and every input has run once (and, with
    ``whole_passes``, the last pass is complete).

    Each output is hashed; an output that differs from the first one for the
    same input (or from ``reference``) is a failure. The first text per input
    goes to ``outdir`` for the oracle, so the process does not hold it.
    """
    loop = Loop()
    gc.collect()
    start = perf_counter()
    k = 0
    while k < size or perf_counter() - start < seconds or (whole_passes and k % size):
        i = k % size
        k += 1
        latency = None
        try:
            t0 = perf_counter()
            raw = work(i)
            latency = perf_counter() - t0
            text = finish(raw)
        except Exception as exc:  # a failed input is counted, and the loop goes on
            loop.attempts.append((i, latency, f"{type(exc).__name__}: {exc}"))
            continue
        digest = hashlib.sha256(text.encode()).hexdigest()
        if i not in loop.digests:
            loop.digests[i] = digest
            lines = text.splitlines()
            loop.gates[i] = (
                sum(ln.startswith("gate ") for ln in lines),
                sum(" controls=" in ln for ln in lines),
            )
            (outdir / f"out{i}.txt").write_text(text)
        expected = (reference or loop.digests).get(i, loop.digests[i])
        error = None if digest == expected else "output differs from an earlier run of this input"
        loop.attempts.append((i, latency, error))
    loop.passes = k / size
    return loop


def oracle_failures(pool, outdir: Path, indices) -> dict:
    """Pool index -> oracle message, for every output that fails the check."""
    from hermsynth.matrices import Tolerances

    tol = Tolerances().verify_tol
    bad = {}
    for i in sorted(indices):
        try:
            oracle.check((outdir / f"out{i}.txt").read_text(), pool[i], tol)
        except oracle.OracleError as exc:
            bad[i] = str(exc)
    return bad


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it
    (the maximum when there are fewer than eleven samples)."""
    xs = sorted(latencies)
    if not xs:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": 0.0, "samples": 0}
    rank = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return {
        "p50_ms": statistics.median(xs) * 1e3,
        "tail_ms": xs[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / len(xs),
        "samples": len(xs),
    }


def measure_setup(warmup_path: Path, repeats: int) -> list[float]:
    """Process start to the end of one warm-up synthesize, in fresh processes."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "warmup.py"), str(SRC), str(warmup_path)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def _openblas_threads():
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    tracer = Tracer() if trace else None
    pool, warmup = workload.inputs(seed)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        from hermsynth import twolevel

        detail = {"workload": workload.name, "seed": seed, "seconds": seconds}
        if not trace:
            np.save(workdir / "warmup.npy", warmup)
            setups = measure_setup(workdir / "warmup.npy", setup_repeats)
            detail["setup_s_samples"] = setups
        twolevel.synthesize(warmup)
        work, finish = make_work(workload, pool, workdir)
        outdir = workdir / "plain"
        outdir.mkdir()
        plain = run_loop(work, finish, len(pool), seconds, outdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loops = [plain]
        if trace:
            traced_dir = workdir / "traced"
            traced_dir.mkdir()
            with tracer.installed():
                traced = run_loop(tracer.root(work), finish, len(pool), seconds, traced_dir,
                                  whole_passes=True, reference=plain.digests)
            loops.append(traced)
        bad = oracle_failures(pool, outdir, plain.digests)
        attempted = sum(len(lp.attempts) for lp in loops)
        ok = sum(len(lp.ok_latencies(bad)) for lp in loops)
        errors = [err for lp in loops for _, _, err in lp.attempts if err] + list(bad.values())
        detail.update(
            circuits_sha256=hashlib.sha256(
                "".join(plain.digests.get(i, "-") for i in range(len(pool))).encode()
            ).hexdigest(),
            passes=[lp.passes for lp in loops],
            errors=errors[:5],
            environment=environment(),
        )
        if trace:
            metrics, shares = tracer.layer_metrics(int(traced.passes))
            metrics["cli.nonzero_exits"] = sum(
                1 for _, _, err in traced.attempts if err and err.startswith("CliExit")
            ) / traced.passes
            plain_rate = plain.throughput(bad)
            metrics["trace.overhead_ratio"] = traced.throughput(bad) / plain_rate if plain_rate else 0.0
            units = LAYER_UNITS
            detail["span_self_time_shares"] = shares
        else:
            lat = latency_summary(plain.ok_latencies(bad))
            metrics = {
                "setup_s": statistics.median(setups),
                "matrices_per_s": plain.throughput(bad),
                "latency_ms_p50": lat["p50_ms"],
                "latency_ms_tail": lat["tail_ms"],
                "gates_out": sum(g for g, _ in plain.gates.values()),
                "controlled_gates_out": sum(c for _, c in plain.gates.values()),
                "verified_ratio": ok / attempted,
                "peak_rss_mb": peak_rss_mb,
            }
            units = E2E_UNITS
            detail["latency"] = lat
        result = {
            "correct": ok == attempted,
            "attempted": attempted,
            "failed": attempted - ok,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hermsynth" / "__init__.py").is_file():
        print(f"error: no hermsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hermsynth

    if Path(hermsynth.__file__).resolve().parent.parent != SRC:
        print(f"error: imported hermsynth from {hermsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
