"""Command-line interface tests: exit codes, output formats, file output,
determinism and byte-exact csv output against the files in tests/data."""

import json
from pathlib import Path

import pytest

from spikedho import perturb, solver
from spikedho.cli import build_parser, main


DATA = Path(__file__).parent / "data"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_coeffs_csv(capsys):
    code, out = run(["coeffs", "--A", "12"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("A,alpha,gamma,E0,eps1")
    fields = lines[1].split(",")
    assert float(fields[3]) == 9.0            # E0
    assert abs(float(fields[4]) - 4.0 / 35.0) < 1e-12


def test_coeffs_phi1_norm_column(capsys):
    code, out = run(["coeffs", "--A", "12", "--format", "json"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["phi1_norm_sq"] == perturb.phi1_norm_sq(4.0, 4.5)
    # alpha >= gamma + 2 (gamma = 3.5): no (phi1, phi1), an empty column
    code, out = run(["coeffs", "--A", "6", "--alpha", "5.5"], capsys)
    assert code == 0
    header, values = out.strip().splitlines()
    assert dict(zip(header.split(","), values.split(",")))["phi1_norm_sq"] == ""


def test_l_option_equals_A(capsys):
    _, out_l = run(["coeffs", "--l", "3"], capsys)
    _, out_a = run(["coeffs", "--A", "12"], capsys)
    assert out_l == out_a


def test_bounds_json_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "bounds.json"
    code = main(["bounds", "--A", "12", "--lambda", "0.001",
                 "--format", "json", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["command"] == "bounds"
    assert doc["summary"]["failures"] == 0
    row = doc["rows"][0]
    assert row["lower_p1"] < row["upper_p1"]
    assert row["optimal_valid"] is True


def test_output_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        assert main(["bounds", "--A", "12", "--lambda", "0.01",
                     "--format", "json", "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_markdown_format(capsys):
    code, out = run(["bounds", "--A", "12", "--lambda", "0.1",
                     "--format", "md"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("| lambda |")
    assert set(lines[1]) <= {"|", "-"}


def test_solve_command(capsys):
    code, out = run(["solve", "--l", "3", "--lambda", "0.001"], capsys)
    assert code == 0
    header, line = out.strip().splitlines()
    assert header == "lambda,gamma,energy,basis_size,delta"
    row = line.split(",")
    assert abs(float(row[2]) - 9.00011427912) < 1e-9
    assert float(row[4]) < 1e-11


def test_multiple_lambdas(capsys):
    code, out = run(["solve", "--l", "3", "--lambda", "0.001",
                     "--lambda", "0.01"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["coeffs", "--A", "12", "--l", "3"]) == 2  # mutually exclusive


def test_domain_error_exit_code(capsys):
    assert main(["coeffs", "--A", "-1"]) == 2
    assert main(["bounds", "--A", "12", "--lambda", "-0.5"]) == 2
    assert main(["coeffs", "--A", "0"]) == 2   # 2*gamma <= alpha


@pytest.mark.parametrize("argv", [
    ["bounds", "--A", "12", "--lambda", "nan"],
    ["bounds", "--A", "12", "--lambda", "inf"],
    ["coeffs", "--A", "nan"],
    ["table2", "--alpha", "nan"],
])
def test_non_finite_input_exit_code(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_parser_defaults():
    args = build_parser().parse_args(["bounds"])
    assert not hasattr(args, "order")
    assert args.alpha == 4.0
    assert args.tol == 1e-11
    assert args.fmt == "csv"
    assert args.lam is None


def test_sums_command(capsys):
    code, out = run(["sums", "--format", "json", "--A", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failures"] == 0
    names = {r["identity"] for r in doc["rows"]}
    assert names == {"double_sum", "resummation", "resummation_limit",
                     "trigamma_series"}


@pytest.mark.parametrize("option, value, message", [
    ("--tol", "nan", "tol must be positive and finite"),
    ("--basis-cap", "0", "basis cap 0 is below the starting size"),
])
def test_solver_input_exit_code(option, value, message, capsys):
    assert main(["solve", "--l", "3", "--lambda", "0.001",
                 option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


@pytest.mark.parametrize("argv", [
    ["table1", "--tol", "nan"],
    ["table1", "--tol", "inf"],
    ["table1", "--tol", "0"],
    ["table1", "--tol=-1e-11"],
    ["table1", "--basis-cap", "0"],
    ["table1", "--basis-cap", str(solver.N_START - 1)],
])
def test_bad_solver_options_exit_before_eigensolve(argv, capsys, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve started")

    monkeypatch.setattr(solver, "ground_state", no_eigensolve)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("name, argv", [
    ("table2.csv", ["table2"]),
    ("bounds_A12.csv", ["bounds", "--A", "12", "--lambda", "0.001",
                        "--lambda", "0.1", "--lambda", "1"]),
    ("bounds_l3_alpha2.csv", ["bounds", "--l", "3", "--alpha", "2",
                              "--lambda", "0.01", "--lambda", "0.5"]),
    ("bounds_l7_alpha6.csv", ["bounds", "--l", "7", "--alpha", "6",
                              "--lambda", "0.01", "--lambda", "0.5"]),
])
def test_csv_output_matches_golden_file(name, argv, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    assert out.encode() == (DATA / name).read_bytes()
