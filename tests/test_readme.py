"""The README's signatures and quick start, checked against the code.

Every inline code span of the form ``module.name(a, b, ...)`` whose
arguments are plain names must name a callable ``hermsynth.module.name``
whose parameters are exactly those names, in order. The quick-start block
must run, and each ``print`` line whose comment is not approximate must
print that comment.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_CALL = re.compile(r"(\w+)\.(\w+)\((.*)\)", re.S)
_NAME = re.compile(r"[A-Za-z_]\w*")


def signature_spans() -> list[tuple[str, str, tuple[str, ...]]]:
    prose = _FENCE.sub("", README.read_text())
    spans = {}
    for span in re.findall(r"`([^`]+)`", prose):
        call = _CALL.fullmatch(span)
        if call is None:
            continue
        module, name, args = call.groups()
        params = tuple(a.strip() for a in args.split(",")) if args.strip() else ()
        if all(_NAME.fullmatch(p) for p in params):
            spans[module, name, params] = None
    return list(spans)


SPANS = signature_spans()


def test_entry_points_are_covered():
    names = {f"{module}.{name}" for module, name, _ in SPANS}
    assert {
        "jacobi.diagonalize",
        "twolevel.synthesize",
        "twolevel.build_circuit",
        "twolevel.verified_report",
        "twolevel.verify_circuit",
        "twolevel.circuit_error",
        "circuit.mirror_depth",
        "twolevel.mirror_matrix",
        "diagonal.synthesize_sign_diagonal",
        "baselines.jacobi_cu",
        "baselines.h2_params",
    } <= names


@pytest.mark.parametrize(
    "module, name, params", SPANS, ids=[f"{m}.{n}" for m, n, _ in SPANS]
)
def test_signature_matches_code(module, name, params):
    fn = getattr(importlib.import_module(f"hermsynth.{module}"), name, None)
    assert callable(fn), f"hermsynth.{module}.{name} does not exist"
    assert tuple(inspect.signature(fn).parameters) == params


def test_quick_start_runs(capsys):
    block = re.search(r"## Library quick start\s*```python\n(.*?)^```", README.read_text(), re.M | re.S)
    code = block.group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        if not comment.startswith("~"):
            assert line == comment
