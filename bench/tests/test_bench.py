"""The benchmark's own tests, each at a tiny size.

Run from the repository root: python3 -m pytest bench/tests
"""

import dataclasses
import importlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hermsynth import twolevel
from hermsynth.circuit import serialize

import oracle
import run
import tracing
import workloads

TINY_SIZES = {"dense-n5": (2, 2), "sparse-n8": (3, 3), "cli-small": (2, 3)}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], sizes=TINY_SIZES[name])


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke(name, trace):
    result, detail = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["jacobi.rotations"]["value"] > 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert result["metrics"]["gates_out"]["value"] > 0
    again, detail2 = run.run_workload(tiny(name), seed=3, seconds=0, trace=False, setup_repeats=1)
    assert detail2["circuits_sha256"] == detail["circuits_sha256"]


def test_inputs_follow_the_seed():
    w = tiny("sparse-n8")
    (a, wa), (b, _), (c, _) = w.inputs(5), w.inputs(5), w.inputs(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert wa.shape == (8, 8)


def _corrupt_one_angle(circuit):
    k = next(k for k, g in enumerate(circuit.gates) if g.param is not None)
    gates = list(circuit.gates)
    gates[k] = dataclasses.replace(gates[k], param=gates[k].param + 1e-3)
    return dataclasses.replace(circuit, gates=tuple(gates))


def test_oracle_rejects_a_changed_angle():
    h = workloads.dense_balanced(np.random.default_rng(0), 0, 3)
    circuit, _ = twolevel.synthesize(h)
    assert oracle.check(serialize(circuit), h, 1e-9) <= 1e-9
    with pytest.raises(oracle.OracleError):
        oracle.check(serialize(_corrupt_one_angle(circuit)), h, 1e-9)


def test_corrupted_circuit_counts_as_failure(monkeypatch):
    real = twolevel.synthesize

    def corrupted(h, *args, **kwargs):
        circuit, report = real(h, *args, **kwargs)
        return _corrupt_one_angle(circuit), report

    monkeypatch.setattr(twolevel, "synthesize", corrupted)
    result, detail = run.run_workload(tiny("dense-n5"), seed=3, seconds=0, trace=False, setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["verified_ratio"]["value"] == 0.0
    assert "deviates" in detail["errors"][0]


def test_missing_wrapped_name_fails_the_traced_run(monkeypatch, capsys):
    monkeypatch.delattr(twolevel, "emit_two_level")
    with pytest.raises(tracing.TraceError, match="emit_two_level"):
        run.run_workload(tiny("cli-small"), seed=3, seconds=0, trace=True)
    argv = ["--workload", "cli-small", "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 3
    assert capsys.readouterr().out == ""


def test_tracer_restores_every_name():
    def bound():
        return [getattr(importlib.import_module(m), a) for m, a, *_ in tracing.TARGETS]

    before = bound()
    with tracing.Tracer().installed():
        assert twolevel.emit_two_level is not before[3]
    assert bound() == before


def test_latency_tail_has_ten_samples_beyond_it():
    summary = run.latency_summary([float(k) for k in range(30)])
    assert summary["tail_ms"] == 19e3 and summary["samples"] == 30
    assert summary["tail_percentile"] == pytest.approx(100 * 20 / 30)
    assert run.latency_summary([1.0, 2.0])["tail_ms"] == 2e3


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
