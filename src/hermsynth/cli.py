"""Command-line front end for the synthesis pipeline.

Exit codes: 0 success, 2 parse/file error, 3 precondition violation
(not Hermitian, not unitary, bad dimension, +/-I input, too large to
simulate densely), 4 no convergence, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import (
    TABULATED_MCU_COUNTS,
    barenco_cu,
    formula_mcu_counts,
    h2_params,
    jacobi_cu,
    qsd_cu,
)
from .circuit import counts, gate_matrix, GateKind, load_circuit, save_circuit, serialize, simulate
from .errors import NoConvergence, ParseError, SynthesisError, VerificationFailed
from .matrices import DEFAULT_TOLERANCES, format_matrix, load_matrix
from .matrices import max_abs_diff  # noqa: F401  (bench/tracing.py rebinds cli.max_abs_diff)
from .optimize import OptLevel, rewrite_cz_cnot
from .twolevel import SynthesisReport, build_circuit, circuit_error, verified_report

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_PRECONDITION = 3
_EXIT_CONVERGENCE = 4
_EXIT_VERIFICATION = 5

_EPILOG = """\
exit codes:
  0  success
  2  unreadable or malformed input file
  3  precondition violation (not Hermitian, not unitary, bad dimension, +/-I,
     too large to simulate densely)
  4  no convergence within the sweep limit
  5  verification failure
"""

_OPT_LEVELS = {"none": OptLevel.NONE, "basic": OptLevel.BASIC, "full": OptLevel.FULL}
_NAMED_GATES = {"H": GateKind.H, "X": GateKind.X, "Y": GateKind.Y, "Z": GateKind.Z}


def _counts_lines(hist: dict[str, int]) -> list[str]:
    return [f"{key}: {hist[key]}" for key in sorted(hist)]


def _report_lines(n: int, library: str, report: SynthesisReport) -> list[str]:
    lines = [
        f"qubits: {n}",
        f"opt_level: {report.opt_level.value}",
        f"library: {library}",
        f"sweeps: {report.sweeps}",
        f"rotations_executed: {report.rotations_executed}",
        f"sweep_rotations: {','.join(map(str, report.sweep_rotations))}",
        f"sweep_residuals: {','.join(f'{r:.17g}' for r in report.sweep_residuals)}",
        f"residual_offnorm: {report.residual_offnorm:.17g}",
        f"verify_error: {report.verify_error:.17g}",
        f"gates_total: {sum(report.gate_counts.values())}",
    ]
    lines += [f"count_{k}: {v}" for k, v in sorted(report.gate_counts.items())]
    return lines


def cmd_synth(args) -> int:
    matrix = load_matrix(args.matrix)
    opt_level = _OPT_LEVELS[args.opt]
    circuit, result = build_circuit(matrix, opt_level=opt_level, max_sweeps=args.max_sweeps)
    if args.lib == "cnot":
        circuit = rewrite_cz_cnot(circuit, "cnot")
    report = verified_report(circuit, matrix, result, opt_level)
    if args.out:
        save_circuit(args.out, circuit)
    else:
        sys.stdout.write(serialize(circuit))
    report_text = "\n".join(_report_lines(circuit.n_qubits, args.lib, report)) + "\n"
    if args.report:
        Path(args.report).write_text(report_text)
    else:
        sys.stdout.write(report_text)
    return _EXIT_OK


def cmd_verify(args) -> int:
    matrix = load_matrix(args.matrix)
    circuit = load_circuit(args.circuit)
    if 1 << circuit.n_qubits != matrix.shape[0]:
        print(
            f"error: circuit acts on {circuit.n_qubits} qubits but the matrix "
            f"has dimension {matrix.shape[0]}",
            file=sys.stderr,
        )
        return _EXIT_PARSE
    error = circuit_error(circuit, matrix)
    print(f"max_abs_diff: {error:.17g}")
    return _EXIT_OK if error <= DEFAULT_TOLERANCES.verify_tol else _EXIT_VERIFICATION


def cmd_simulate(args) -> int:
    circuit = load_circuit(args.circuit)
    sys.stdout.write(format_matrix(simulate(circuit)))
    return _EXIT_OK


def cmd_counts(args) -> int:
    circuit = load_circuit(args.circuit)
    for line in _counts_lines(counts(circuit)):
        print(line)
    return _EXIT_OK


def cmd_baseline(args) -> int:
    if args.gate in _NAMED_GATES:
        matrix = gate_matrix(_NAMED_GATES[args.gate])
    else:
        matrix = load_matrix(args.gate)
    params = h2_params(matrix)
    if args.method == "jacobi":
        circuit = jacobi_cu(params, args.controls)
    else:
        if args.controls != 1:
            print(f"error: method {args.method} supports exactly one control", file=sys.stderr)
            return _EXIT_PRECONDITION
        circuit = barenco_cu(params) if args.method == "barenco" else qsd_cu(params)
    sys.stdout.write(serialize(circuit))
    for line in _counts_lines(counts(circuit)):
        print(line)
    return _EXIT_OK


def cmd_formulas(args) -> int:
    n = args.n
    jc, js = formula_mcu_counts(n, "jacobi")
    bc, bs = formula_mcu_counts(n, "barenco")
    print(f"jacobi_two_qubit: {jc}")
    print(f"jacobi_single: {js}")
    print(f"barenco_two_qubit: {bc}")
    print(f"barenco_single: {bs}")
    if n in (7, 8):
        reported = TABULATED_MCU_COUNTS[("jacobi", n)][0]
        print(
            f"note: the reported jacobi two-qubit count for n={n} is {reported}, "
            f"which disagrees with the 24n-48 closed form ({jc}); both values are kept"
        )
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermsynth",
        description="Synthesize Hermitian unitary matrices into quantum-gate circuits.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="decompose a matrix file into a circuit")
    p.add_argument("matrix", help="path to a matrix text file")
    p.add_argument("--opt", choices=["none", "basic", "full"], default="full")
    p.add_argument("--lib", choices=["cz", "cnot"], default="cz")
    p.add_argument("--max-sweeps", type=int, default=30)
    p.add_argument("--out", help="write the circuit here instead of stdout")
    p.add_argument("--report", help="write the key: value report here instead of stdout")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="compare a circuit file against a matrix file")
    p.add_argument("matrix")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="print the dense matrix of a circuit file")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("counts", help="print the gate-class histogram of a circuit file")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("baseline", help="decompose a controlled single-qubit Hermitian gate")
    p.add_argument("--gate", required=True, help="H, X, Y, Z, or a 2x2 matrix file")
    p.add_argument("--method", choices=["jacobi", "barenco", "qsd"], default="jacobi")
    p.add_argument("--controls", type=int, default=1)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("formulas", help="closed-form multi-controlled gate counts")
    p.add_argument("--n", type=int, required=True, help="total qubit count, n >= 5")
    p.set_defaults(func=cmd_formulas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VERIFICATION
    except (ValueError, SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PRECONDITION
    except MemoryError:
        print("error: too large to simulate densely", file=sys.stderr)
        return _EXIT_PRECONDITION


def entrypoint() -> None:
    raise SystemExit(main())
