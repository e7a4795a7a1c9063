"""Per-layer tracing by rebinding, from the benchmark process only, the
module-level names the pipeline calls.

Each wrapped call records a span ``[name, start, end, parent, info]`` in
memory; ``parent`` is the index of the enclosing span, so self time is a
span's duration minus its children's. The benchmark opens one root span per
input, and everything the program does for that input hangs below it.
Nothing inside ``hermsynth`` is edited: the rebinding is undone on exit.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter


class TraceError(RuntimeError):
    """A name the tracer must wrap no longer exists in the program."""


def _diagonalize_info(args, result):
    dim = len(args[0])
    return result.sweeps, len(result.steps), result.sweeps * dim * (dim - 1) // 2


def _emit_info(args, gates):
    step = args[0]
    return len(gates), 2 * ((step.p ^ step.q).bit_count() - 1)


def _optimize_info(args, circuit):
    return len(args[0].gates), len(circuit.gates)


# (module, attribute, span name, info callback). The optimizer passes and
# ``serialize`` are rebound in their own modules, where their callers look
# them up; every other name is rebound in the module that calls it.
TARGETS = (
    ("hermsynth.jacobi", "is_hermitian", "matrices.validate", None),
    ("hermsynth.jacobi", "is_unitary", "matrices.validate", None),
    ("hermsynth.twolevel", "diagonalize", "jacobi.diagonalize", _diagonalize_info),
    ("hermsynth.twolevel", "emit_two_level", "twolevel.emit", _emit_info),
    ("hermsynth.twolevel", "invert_gates", "twolevel.invert", None),
    ("hermsynth.twolevel", "synthesize_sign_diagonal", "diagonal.sign_diagonal",
     lambda args, out: len(out[0])),
    ("hermsynth.twolevel", "optimize", "optimize.optimize", _optimize_info),
    ("hermsynth.twolevel", "simulate", "circuit.simulate", lambda args, out: len(args[0].gates)),
    ("hermsynth.twolevel", "max_abs_diff", "matrices.compare", lambda args, out: out),
    ("hermsynth.optimize", "strip_conjugate_controls", "optimize.strip", None),
    ("hermsynth.optimize", "cancel_adjacent_inverses", "optimize.cancel", None),
    ("hermsynth.cli", "cmd_synth", "cli.synth_cmd", None),
    ("hermsynth.cli", "cmd_verify", "cli.verify_cmd", None),
    ("hermsynth.cli", "load_matrix", "matrices.parse", None),
    ("hermsynth.cli", "load_circuit", "circuit.parse", None),
    ("hermsynth.cli", "rewrite_cz_cnot", "optimize.rewrite", None),
    ("hermsynth.cli", "simulate", "circuit.simulate", lambda args, out: len(args[0].gates)),
    ("hermsynth.cli", "max_abs_diff", "matrices.compare", lambda args, out: out),
    ("hermsynth.circuit", "serialize", "circuit.serialize", lambda args, out: len(out.encode())),
)


class Tracer:
    """Resolves every target on creation, raising TraceError if one is gone."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._targets = []
        for module_name, attr, span, info in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceError(f"{module_name}.{attr} no longer exists; update bench/tracing.py")
            self._targets.append((module, attr, fn, span, info))

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out

        return traced

    def root(self, fn):
        """Wrap the benchmark's own per-input call as a root span."""
        return self._wrap("input", fn, None)

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        try:
            for module, attr, fn, span, info in self._targets:
                setattr(module, attr, self._wrap(span, fn, info))
            yield self
        finally:
            for module, attr, fn, _, _ in self._targets:
                setattr(module, attr, fn)

    def layer_metrics(self, passes: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics per pass of the input pool, and each span
        name's self time within the timed calls (the spans below an "input"
        root) as a share of the root spans' total time."""
        incl: dict[str, float] = {}
        timed: dict[str, float] = {}
        calls: dict[str, int] = {}
        infos: dict[str, list] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, info in self.spans:
            if parent >= 0:
                child[parent] += end - start
        in_root = [False] * len(self.spans)
        for k, (name, start, end, parent, info) in enumerate(self.spans):
            incl[name] = incl.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if info is not None:
                infos.setdefault(name, []).append(info)
            in_root[k] = name == "input" or (parent >= 0 and in_root[parent])
            if in_root[k]:
                timed[name] = timed.get(name, 0.0) + (end - start - child[k])

        def t(name):
            return incl.get(name, 0.0) / passes

        def n(name):
            return calls.get(name, 0) / passes

        def total(name, field=None):
            vals = infos.get(name, [])
            return sum(v if field is None else v[field] for v in vals) / passes

        rotations, scans = total("jacobi.diagonalize", 1), total("jacobi.diagonalize", 2)
        opt_in, opt_out = total("optimize.optimize", 0), total("optimize.optimize", 1)
        metrics = {
            "matrices.validate_s": t("matrices.validate"),
            "matrices.validate_calls": n("matrices.validate"),
            "matrices.parse_s": t("matrices.parse"),
            "jacobi.diagonalize_s": timed.get("jacobi.diagonalize", 0.0) / passes,
            "jacobi.sweeps": total("jacobi.diagonalize", 0),
            "jacobi.rotations": rotations,
            "jacobi.pair_scans": scans,
            "jacobi.rotations_per_scan": rotations / scans if scans else 0.0,
            "twolevel.emit_s": t("twolevel.emit") + t("twolevel.invert"),
            "twolevel.emit_calls": n("twolevel.emit"),
            "twolevel.gates_emitted": total("twolevel.emit", 0),
            "twolevel.ladder_gates": total("twolevel.emit", 1),
            "diagonal.sign_diagonal_s": t("diagonal.sign_diagonal"),
            "diagonal.mcz_gates": total("diagonal.sign_diagonal"),
            "optimize.optimize_s": t("optimize.optimize"),
            "optimize.strip_s": t("optimize.strip"),
            "optimize.cancel_s": t("optimize.cancel"),
            "optimize.rounds": n("optimize.strip"),
            "optimize.gates_in": opt_in,
            "optimize.gates_removed_ratio": (opt_in - opt_out) / opt_in if opt_in else 0.0,
            "optimize.rewrite_s": timed.get("optimize.rewrite", 0.0) / passes,
            "circuit.simulate_s": t("circuit.simulate"),
            "circuit.simulate_calls": n("circuit.simulate"),
            "circuit.gate_applications": total("circuit.simulate"),
            "circuit.verify_error_max": max(infos.get("matrices.compare", [0.0])),
            "circuit.serialize_s": t("circuit.serialize"),
            "circuit.parse_s": t("circuit.parse"),
            "circuit.text_bytes": total("circuit.serialize"),
            "cli.synth_cmd_s": t("cli.synth_cmd"),
            "cli.verify_cmd_s": t("cli.verify_cmd"),
        }
        root_total = incl.get("input", 0.0)
        shares = {name: value / root_total for name, value in sorted(timed.items()) if root_total}
        return metrics, shares
