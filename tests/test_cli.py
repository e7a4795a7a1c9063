import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import CH_EMBED, CZ_EMBED, random_hermitian_unitary
from hermsynth import cli, jacobi, twolevel
from hermsynth.circuit import (
    Circuit,
    Gate,
    GateKind,
    counts,
    load_circuit,
    mirror_depth,
    save_circuit,
    serialize,
)
from hermsynth.cli import main
from hermsynth.jacobi import diagonalize
from hermsynth.matrices import format_matrix, load_matrix, parse_matrix, save_matrix

RNG = np.random.default_rng(777)


@pytest.fixture
def ch_file(tmp_path):
    path = tmp_path / "ch.txt"
    save_matrix(path, CH_EMBED)
    return str(path)


@pytest.fixture
def cz_file(tmp_path):
    path = tmp_path / "cz.txt"
    save_matrix(path, CZ_EMBED)
    return str(path)


class TestSynth:
    def test_cz(self, cz_file, tmp_path, capsys):
        out = tmp_path / "c.circ"
        report = tmp_path / "r.txt"
        code = main(["synth", cz_file, "--out", str(out), "--report", str(report)])
        assert code == 0
        circuit = load_circuit(out)
        assert len(circuit.gates) == 1
        lines = dict(
            line.split(": ", 1) for line in report.read_text().splitlines()
        )
        assert float(lines["verify_error"]) <= 1e-12
        assert lines["count_CZ"] == "1"

    def test_ch_full_opt(self, ch_file, tmp_path):
        out = tmp_path / "c.circ"
        code = main(["synth", ch_file, "--out", str(out)])
        assert code == 0
        assert len(load_circuit(out).gates) == 3

    def test_no_opt_flag(self, ch_file, capsys):
        # one optimization policy: synth takes no optimization level
        with pytest.raises(SystemExit) as exc:
            main(["synth", ch_file, "--opt", "full"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --opt full" in capsys.readouterr().err

    def test_report_keys(self, ch_file, tmp_path):
        report = tmp_path / "r.txt"
        out = tmp_path / "c.circ"
        assert main(["synth", ch_file, "--out", str(out), "--report", str(report)]) == 0
        keys = [line.split(": ", 1)[0] for line in report.read_text().splitlines()]
        assert keys == [
            "qubits", "library", "sweeps", "rotations_executed", "sweep_rotations",
            "sweep_residuals", "residual_offnorm", "verify_error", "gates_total",
            "count_CZ", "count_single",
        ]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_plus_minus_identity_is_the_empty_circuit(self, tmp_path, capsys, sign):
        # +/-I is no precondition violation for synth: no gates, and the
        # sign as the global phase
        path = tmp_path / "i.txt"
        save_matrix(path, sign * np.eye(2))
        assert main(["synth", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"qubits 1\nphase {sign},0\nqubits: 1\n")
        assert "gate " not in out
        assert "gates_total: 0\n" in out

    def test_cnot_library(self, ch_file, tmp_path):
        out = tmp_path / "c.circ"
        report = tmp_path / "r.txt"
        code = main(
            ["synth", ch_file, "--lib", "cnot", "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        text = report.read_text()
        assert "count_CNOT: 1" in text

    def test_cnot_report_describes_written_circuit(self, tmp_path):
        h = random_hermitian_unitary(RNG, 8)
        mpath = tmp_path / "m.txt"
        save_matrix(mpath, h)
        out = tmp_path / "c.circ"
        report = tmp_path / "r.txt"
        code = main(
            ["synth", str(mpath), "--lib", "cnot", "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        lines = dict(line.split(": ", 1) for line in report.read_text().splitlines())
        assert "ordering" not in lines
        circuit = load_circuit(out)
        assert int(lines["gates_total"]) == len(circuit.gates)
        reported = {k[len("count_"):]: int(v) for k, v in lines.items() if k.startswith("count_")}
        assert reported == counts(circuit)
        assert "MCZ" not in reported and "CZ" not in reported
        assert float(lines["verify_error"]) <= 1e-9

    def test_report_sweep_rotations(self, tmp_path, capsys):
        mpath = tmp_path / "m.txt"
        save_matrix(mpath, random_hermitian_unitary(np.random.default_rng(11), 16))
        assert main(["synth", str(mpath), "--out", str(tmp_path / "c.circ")]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        per_sweep = [int(v) for v in lines["sweep_rotations"].split(",")]
        assert len(per_sweep) == int(lines["sweeps"]) > 1
        assert sum(per_sweep) == int(lines["rotations_executed"])

    def test_report_sweep_residuals(self, tmp_path, capsys):
        h = random_hermitian_unitary(np.random.default_rng(11), 16)
        mpath = tmp_path / "m.txt"
        save_matrix(mpath, h)
        assert main(["synth", str(mpath), "--out", str(tmp_path / "c.circ")]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        residuals = [float(v) for v in lines["sweep_residuals"].split(",")]
        assert len(residuals) == int(lines["sweeps"]) > 1
        assert residuals[-1] == float(lines["residual_offnorm"])
        # .17g round-trips every double
        assert tuple(residuals) == diagonalize(load_matrix(mpath)).sweep_residuals

    @pytest.mark.parametrize("lib", ["cz", "cnot"])
    def test_one_simulation_per_synth(self, ch_file, tmp_path, monkeypatch, lib):
        # the mirror route simulates the half and the centre, so the check
        # counts verifications: the written circuit is the one verified, once
        verified = []
        real_error = twolevel.circuit_error

        def counting_error(circuit, h):
            verified.append(circuit)
            return real_error(circuit, h)

        monkeypatch.setattr(twolevel, "circuit_error", counting_error)
        out = tmp_path / "c.circ"
        code = main(
            ["synth", ch_file, "--lib", lib, "--out", str(out), "--report", str(tmp_path / "r")]
        )
        assert code == 0
        assert len(verified) == 1
        assert serialize(verified[0]) == out.read_text()

    def test_non_hermitian_exit(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_matrix(path, np.array([[0, 1], [0, 0]], dtype=complex))
        assert main(["synth", str(path)]) == 3

    def test_non_unitary_exit(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_matrix(path, np.diag([1.0, 0.5]))
        assert main(["synth", str(path)]) == 3

    def test_huge_hermitian_exit(self, tmp_path, capsys):
        # Hermitian, but m m^H overflows: rejected as not unitary
        path = tmp_path / "huge.txt"
        save_matrix(path, 1e308 * np.array([[1, 1 + 1j], [1 - 1j, -1]]))
        assert main(["synth", str(path)]) == 3
        assert "deviates from unitarity" in capsys.readouterr().err

    def test_bad_dimension_exit(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_matrix(path, np.eye(3))
        assert main(["synth", str(path)]) == 3

    def test_no_convergence_exit(self, ch_file, monkeypatch):
        monkeypatch.setattr(jacobi, "_MAX_SWEEPS", 0)
        assert main(["synth", ch_file]) == 4

    def test_no_sweep_option(self, ch_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", ch_file, "--max-sweeps", "30"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-sweeps" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["synth", "/nonexistent/in.txt"]) == 2

    def test_malformed_matrix(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a matrix\n")
        assert main(["synth", str(path)]) == 2

    def test_truncated_matrix(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text("# c\ndim 2\n1,0 0,0\n")
        assert main(["synth", str(path)]) == 2
        assert "line 3: expected 2 rows, got 1" in capsys.readouterr().err

    def test_comment_only_matrix(self, tmp_path, capsys):
        path = tmp_path / "comments.txt"
        path.write_text("# a\n# b\n")
        assert main(["synth", str(path)]) == 2
        assert "line 2: empty matrix file" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan,0", "inf,0"])
    def test_non_finite_matrix(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"dim 2\n1,0 0,0\n0,0 {token}\n")
        assert main(["synth", str(path)]) == 2


class TestVerify:
    def test_round_trip(self, ch_file, tmp_path, capsys):
        out = tmp_path / "c.circ"
        assert main(["synth", ch_file, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", ch_file, str(out)]) == 0
        printed = capsys.readouterr().out
        assert "max_abs_diff:" in printed
        assert float(printed.split(":")[1]) <= 1e-12

    def test_empty_circuit_fails(self, ch_file, tmp_path, capsys):
        circ = tmp_path / "empty.circ"
        save_circuit(circ, Circuit(2))
        code = main(["verify", ch_file, str(circ)])
        printed = capsys.readouterr().out
        assert code == 5
        assert float(printed.split(":")[1]) > 0.5

    def test_one_verification_per_verify(self, tmp_path, monkeypatch, capsys):
        verified = []
        real_error = twolevel.circuit_error
        monkeypatch.setattr(
            cli, "circuit_error", lambda c, h: verified.append(c) or real_error(c, h)
        )
        mpath, out = tmp_path / "m.txt", tmp_path / "c.circ"
        save_matrix(mpath, random_hermitian_unitary(np.random.default_rng(12), 8))
        assert main(["synth", str(mpath), "--lib", "cnot", "--out", str(out)]) == 0
        verified.clear()
        assert main(["verify", str(mpath), str(out)]) == 0
        assert [serialize(c) for c in verified] == [out.read_text()]

    def test_mutated_first_half_exits_5(self, tmp_path, capsys):
        # one angle of the first half off by 1e-7 ends the mirror match there
        mpath, out = tmp_path / "m.txt", tmp_path / "c.circ"
        save_matrix(mpath, random_hermitian_unitary(np.random.default_rng(13), 8))
        assert main(["synth", str(mpath), "--out", str(out)]) == 0
        circuit = load_circuit(out)
        gates = list(circuit.gates)
        i = next(j for j, g in enumerate(gates) if g.kind is GateKind.RY and j > 2)
        assert i < mirror_depth(gates)
        gates[i] = Gate(GateKind.RY, gates[i].target, gates[i].controls, gates[i].param + 1e-7)
        save_circuit(out, Circuit(circuit.n_qubits, tuple(gates), circuit.global_phase))
        capsys.readouterr()
        assert main(["verify", str(mpath), str(out)]) == 5
        assert float(capsys.readouterr().out.split(":")[1]) > 1e-9

    def test_first_gate_deleted_exits_5(self, tmp_path, capsys):
        mpath, out = tmp_path / "m.txt", tmp_path / "c.circ"
        save_matrix(mpath, np.eye(4)[[0, 1, 3, 2]])  # CNOT
        assert main(["synth", str(mpath), "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:2] + lines[3:]))
        assert main(["verify", str(mpath), str(out)]) == 5

    def test_mismatched_sizes(self, ch_file, tmp_path):
        circ = tmp_path / "one.circ"
        save_circuit(circ, Circuit(1))
        assert main(["verify", ch_file, str(circ)]) == 2

    def test_negative_control_is_parse_error(self, tmp_path):
        mpath = tmp_path / "i.txt"
        save_matrix(mpath, np.eye(4))
        circ = tmp_path / "neg.circ"
        circ.write_text("qubits 2\nphase 1,0\ngate X target=1 controls=+-1 params=\n")
        assert main(["verify", str(mpath), str(circ)]) == 2

    def test_comment_only_matrix(self, tmp_path, capsys):
        path = tmp_path / "comments.txt"
        path.write_text("# a\n# b\n")
        assert main(["synth", str(path)]) == 2
        assert "line 2: empty matrix file" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan,0", "inf,0"])
    def test_non_finite_matrix(self, ch_file, tmp_path, token):
        out = tmp_path / "c.circ"
        assert main(["synth", ch_file, "--out", str(out)]) == 0
        path = tmp_path / "bad.txt"
        path.write_text(
            f"dim 4\n{token} 0,0 0,0 0,0\n0,0 1,0 0,0 0,0\n0,0 0,0 1,0 0,0\n0,0 0,0 0,0 1,0\n"
        )
        assert main(["verify", str(path), str(out)]) == 2


class TestSimulateAndCounts:
    def test_simulate_prints_matrix(self, ch_file, tmp_path, capsys):
        out = tmp_path / "c.circ"
        main(["synth", ch_file, "--out", str(out)])
        capsys.readouterr()
        assert main(["simulate", str(out)]) == 0
        matrix = parse_matrix(capsys.readouterr().out)
        assert np.max(np.abs(matrix - CH_EMBED)) <= 1e-12

    def test_cy_baseline_counts(self, capsys):
        assert main(["baseline", "--gate", "Y", "--method", "jacobi"]) == 0
        out = capsys.readouterr().out
        assert "CZ: 1" in out and "single: 4" in out

    def test_counts_command(self, tmp_path, capsys):
        h = random_hermitian_unitary(RNG, 4)
        mpath = tmp_path / "m.txt"
        save_matrix(mpath, h)
        out = tmp_path / "c.circ"
        main(["synth", str(mpath), "--out", str(out)])
        capsys.readouterr()
        assert main(["counts", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(": " in line for line in lines)

    def test_counts_of_synthesized_cy(self, tmp_path, capsys):
        cy = np.eye(4, dtype=complex)
        cy[2:, 2:] = [[0, -1j], [1j, 0]]
        mpath = tmp_path / "cy.txt"
        save_matrix(mpath, cy)
        out = tmp_path / "cy.circ"
        main(["synth", str(mpath), "--out", str(out)])
        capsys.readouterr()
        assert main(["counts", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "CZ: 1" in printed and "single: 4" in printed

    @pytest.mark.parametrize("command", ["simulate", "counts", "verify"])
    def test_non_finite_phase_is_parse_error(self, tmp_path, command):
        circ = tmp_path / "nan.circ"
        circ.write_text("qubits 1\nphase nan,0\ngate X target=0 params=\n")
        mpath = tmp_path / "x.txt"
        save_matrix(mpath, np.array([[0, 1], [1, 0]]))
        paths = [str(mpath), str(circ)] if command == "verify" else [str(circ)]
        assert main([command, *paths]) == 2

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.circ"
        path.write_text("")
        assert main(["simulate", str(path)]) == 2

    def test_error_names_the_line_at_fault(self, tmp_path, capsys):
        path = tmp_path / "range.circ"
        path.write_text(
            "qubits 2\nphase 1,0\ngate X target=5 params=\n"
            "gate X target=0 params=\ngate X target=0 params=\n"
        )
        assert main(["counts", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 3: target 5 outside 2-qubit register\n"

    def test_too_large_to_simulate_exits_3(self, tmp_path, monkeypatch, capsys):
        # stands in for np.eye failing on 2^20 x 2^20, without allocating
        def out_of_memory(circuit):
            raise MemoryError

        monkeypatch.setattr(cli, "simulate", out_of_memory)
        path = tmp_path / "big.circ"
        path.write_text("qubits 20\nphase 1,0\n")
        assert main(["simulate", str(path)]) == 3
        assert capsys.readouterr().err == "error: too large to simulate densely\n"


class TestBaseline:
    def test_jacobi_hadamard(self, capsys):
        assert main(["baseline", "--gate", "H", "--method", "jacobi"]) == 0
        out = capsys.readouterr().out
        assert "gate RY target=1" in out
        assert "gate Z target=1 controls=+0" in out
        assert "CZ: 1" in out and "single: 2" in out

    def test_qsd_z_counts(self, capsys):
        assert main(["baseline", "--gate", "Z", "--method", "qsd"]) == 0
        out = capsys.readouterr().out
        assert "CNOT: 2" in out and "single: 4" in out

    def test_barenco_x_is_cnot(self, capsys):
        assert main(["baseline", "--gate", "X", "--method", "barenco"]) == 0
        out = capsys.readouterr().out
        assert "gate X target=1 controls=+0" in out
        assert "CNOT: 1" in out

    def test_custom_matrix(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        save_matrix(path, np.array([[0.6, 0.8], [0.8, -0.6]]))
        assert main(["baseline", "--gate", str(path), "--method", "jacobi"]) == 0

    def test_identity_rejected(self, tmp_path):
        path = tmp_path / "i.txt"
        save_matrix(path, np.eye(2))
        assert main(["baseline", "--gate", str(path), "--method", "jacobi"]) == 3

    def test_minus_identity_rejected(self, tmp_path, capsys):
        # -I has no rotation form either, unlike for synth (exit 0)
        path = tmp_path / "mi.txt"
        save_matrix(path, -np.eye(2))
        assert main(["baseline", "--gate", str(path)]) == 3
        assert capsys.readouterr().err == "error: matrix is -I\n"

    def test_multi_control(self, capsys):
        assert main(["baseline", "--gate", "H", "--method", "jacobi", "--controls", "3"]) == 0
        out = capsys.readouterr().out
        assert "MCZ: 1" in out

    def test_barenco_rejects_extra_controls(self, capsys):
        assert main(["baseline", "--gate", "H", "--method", "barenco", "--controls", "2"]) == 3


class TestFormulas:
    def test_n7(self, capsys):
        assert main(["formulas", "--n", "7"]) == 0
        out = capsys.readouterr().out
        assert "barenco_two_qubit: 122" in out
        assert "barenco_single: 124" in out
        assert "jacobi_two_qubit: 120" in out
        assert "note:" in out and "84" in out

    def test_n8(self, capsys):
        assert main(["formulas", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "barenco_two_qubit: 170" in out and "barenco_single: 172" in out
        assert "108" in out

    def test_n9_no_note(self, capsys):
        assert main(["formulas", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "jacobi_two_qubit: 168" in out and "jacobi_single: 146" in out
        assert "note:" not in out

    def test_small_n_rejected(self):
        assert main(["formulas", "--n", "4"]) == 3


class TestEndToEnd:
    def test_synth_then_verify_random(self, tmp_path):
        for dim in (2, 4, 8):
            h = random_hermitian_unitary(RNG, dim)
            mpath = tmp_path / f"m{dim}.txt"
            cpath = tmp_path / f"c{dim}.circ"
            save_matrix(mpath, h)
            assert main(["synth", str(mpath), "--out", str(cpath)]) == 0
            assert main(["verify", str(mpath), str(cpath)]) == 0

    def test_module_invocation(self, cz_file, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "c.circ"
        result = subprocess.run(
            [sys.executable, "-m", "hermsynth", "synth", cz_file, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "count_CZ: 1" in result.stdout

    def test_parser_built_once_commands_looked_up_per_call(self, ch_file, tmp_path, monkeypatch):
        out = tmp_path / "c.circ"
        assert main(["synth", ch_file, "--out", str(out)]) == 0
        parser = cli.build_parser()
        calls = []

        def patched(args):
            calls.append(args.circuit)
            return 7

        monkeypatch.setattr(cli, "cmd_verify", patched)
        assert main(["verify", ch_file, str(out)]) == 7
        assert calls == [str(out)]
        assert cli.build_parser() is parser

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "exit codes" in capsys.readouterr().out


# --- generated malformed files ------------------------------------------------

VALID_MATRIX = format_matrix(CH_EMBED).splitlines()
VALID_CIRCUIT = serialize(
    Circuit(
        2,
        (
            Gate(GateKind.RY, 1, ((0, True),), 0.3),
            Gate(GateKind.Z, 1, ((0, False),)),
            Gate(GateKind.H, 0),
            Gate(GateKind.PHASE, 0, ((1, True),), -1.25),
        ),
        global_phase=-1.0,
    )
).splitlines()
HEADERS = {"matrix": 1, "circuit": 2}  # leading header lines of each format

NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e-?\d+)?")
QUBIT = re.compile(r"(?<=target=)\d+|(?<=controls=[+-])\d+|(?<=,[+-])\d+")


def replace_span(draw, pattern, line, replacement):
    start, end = draw(st.sampled_from([m.span() for m in pattern.finditer(line)]))
    return line[:start] + replacement + line[end:]


def mutate(draw, form, lines):
    """``lines`` with one drawn mutation at a drawn line; each leaves the
    file malformed."""
    lines = list(lines)
    headers = HEADERS[form]
    mutations = ["word", "nonfinite", "missing", "duplicate_header", "qubit", "short_row"]
    if form == "circuit":
        mutations.append("kind")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "duplicate_header":
        header = lines[draw(st.integers(0, headers - 1))]
        lines.insert(draw(st.integers(0, len(lines))), header)
        return lines
    if mutation == "qubit" and form == "matrix":  # the register size is the dimension
        lines[0] = f"dim {draw(st.sampled_from([-4, -1, 0, 2, 8]))}"
        return lines
    i = draw(st.integers(headers if mutation in ("qubit", "kind") else 0, len(lines) - 1))
    line = lines[i]
    tokens = line.split()
    if mutation == "word":
        line = replace_span(draw, NUMBER, line, "abc")
    elif mutation == "nonfinite":
        line = replace_span(draw, NUMBER, line, draw(st.sampled_from(["nan", "inf", "-inf"])))
    elif mutation == "missing":
        if i < headers:  # the header's value
            line = tokens[0]
        elif form == "matrix":  # the imaginary part of one entry
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = tokens[j].split(",")[0]
            line = " ".join(tokens)
        else:  # a required key
            key = draw(st.sampled_from(["target", "params"]))
            line = " ".join(t for t in tokens if t.partition("=")[0] != key)
    elif mutation == "kind":  # a kind the IR does not have, on a line otherwise well formed
        kind = draw(st.sampled_from(["S", "SDG", "RZ", "Y"]))
        line = " ".join(["gate", kind, *tokens[2:-1], "params=0.3" if kind == "RZ" else "params="])
    elif mutation == "qubit":
        value = draw(st.sampled_from([-1, -3, 2, 7]))
        line = replace_span(draw, QUBIT, line, str(value))
    else:  # short_row
        line = " ".join(tokens[:-1])
    lines[i] = line
    return lines


class TestMalformedFiles:
    def files(self, directory, matrix_lines, circuit_lines):
        matrix, circuit = directory / "m.txt", directory / "c.circ"
        matrix.write_text("\n".join(matrix_lines) + "\n")
        circuit.write_text("\n".join(circuit_lines) + "\n")
        return str(matrix), str(circuit)

    def test_valid_files_parse(self, tmp_path):
        matrix, circuit = self.files(tmp_path, VALID_MATRIX, VALID_CIRCUIT)
        assert main(["synth", matrix]) == 0
        assert main(["counts", circuit]) == 0
        assert main(["verify", matrix, circuit]) == 5

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exit_2(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("malformed")
        if data.draw(st.booleans(), label="mutate the matrix file"):
            matrix, circuit = self.files(
                directory, mutate(data.draw, "matrix", VALID_MATRIX), VALID_CIRCUIT
            )
            assert main(["synth", matrix]) == 2
        else:
            matrix, circuit = self.files(
                directory, VALID_MATRIX, mutate(data.draw, "circuit", VALID_CIRCUIT)
            )
            assert main(["counts", circuit]) == 2
        assert main(["verify", matrix, circuit]) == 2
