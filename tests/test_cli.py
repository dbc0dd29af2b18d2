"""Command line: golden outputs, formats, exit codes, cross-verification."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from segquant import (
    ConstraintPoint,
    Quantizer,
    SolverOutcome,
    cli,
    closed_form,
    distortion,
    oracle,
    quantizer,
    vn,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "segquant", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )


# ------------------------------------------------------------------ goldens


def test_solve_golden_bytes():
    proc = run_cli("solve", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "solve_n2.json").read_text()


def test_brute_force_golden_bytes():
    # the grid search's output, so that drift in the oracle shows
    proc = run_cli("solve", "--n", "3", "--method", "brute-force")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "solve_n3_brute_force.json").read_text()


def test_curve_golden_bytes():
    proc = run_cli("curve", "--n-max", "16")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "curve_n16.csv").read_text()


def test_dimension_golden_bytes():
    proc = run_cli("dimension")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "dimension_default.txt").read_text()


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "record.json"
    to_file = run_cli("solve", "--n", "3", "--out", str(target))
    assert to_file.returncode == 0 and to_file.stdout == ""
    to_stdout = run_cli("solve", "--n", "3")
    assert target.read_text() == to_stdout.stdout


def test_closed_forms_and_small_solves_never_import_numpy():
    # numpy is loaded by the oracle and by solves above
    # quantizer._LIST_LOOP_MAX_N points only
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import segquant
        from segquant import cli, quantizer
        segquant.distortion(segquant.optimal_points(2))
        segquant.solve_fixed_constraint(64, 64)
        segquant.solve_fixed_constraint(quantizer._LIST_LOOP_MAX_N, 1)
        segquant.lloyd_step(segquant.optimal_points(3), 3)
        for argv in (
            ["solve", "--n", "2"],
            ["curve", "--n-max", "16"],
            ["dimension"],
            ["solve", "--n", "8", "--method", "lloyd"],
            ["solve", "--n", "64", "--method", "lloyd"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, "numpy was imported"
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------- solve


def solve_record(*args: str) -> dict:
    proc = run_cli("solve", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


SOLVE_SCHEMA = {
    "type": "object",
    "required": [
        "n",
        "method",
        "constraint_index",
        "points",
        "breakpoints",
        "distortion",
        "excess",
        "scaled_excess",
    ],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "method": {"enum": ["closed-form", "lloyd", "brute-force"]},
        "constraint_index": {"type": "integer", "minimum": 1},
        "points": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["j", "x", "plane", "foot"],
                "additionalProperties": False,
                "properties": {
                    "j": {"type": "integer", "minimum": 1},
                    "x": {"type": "number"},
                    "plane": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "foot": {"type": "number"},
                },
            },
        },
        "breakpoints": {"type": "array", "items": {"type": "number"}},
        "distortion": {"type": "number"},
        "excess": {"type": "number"},
        "scaled_excess": {"type": "number"},
    },
}


@pytest.mark.parametrize("method", ["closed-form", "lloyd", "brute-force"])
def test_solve_record_schema_and_consistency(method):
    jsonschema = pytest.importorskip("jsonschema")
    record = solve_record("--n", "2", "--method", method)
    jsonschema.validate(record, SOLVE_SCHEMA)
    assert record["n"] == 2
    assert record["method"] == method
    assert record["constraint_index"] == 2
    assert len(record["points"]) == 2
    assert len(record["breakpoints"]) == 3
    tol = 1e-9 if method != "brute-force" else 5e-3
    assert abs(record["distortion"] - vn(2)) <= tol
    for p in record["points"]:
        assert p["plane"][1] == pytest.approx(p["x"] + 1 / p["j"], abs=1e-15)
        assert p["foot"] == pytest.approx(2 * p["x"] + 1 / p["j"], abs=1e-15)
    assert record["excess"] == pytest.approx(
        record["distortion"] - closed_form.v_infinity(), abs=1e-15
    )
    assert record["scaled_excess"] == pytest.approx(2 * record["excess"], abs=1e-15)


def test_solve_csv_format():
    proc = run_cli("solve", "--n", "2", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    record = solve_record("--n", "2")
    assert len(rows) == 2
    for row, point in zip(rows, record["points"]):
        assert int(row["n"]) == 2
        assert row["method"] == "closed-form"
        assert int(row["j"]) == point["j"]
        assert float(row["x"]) == point["x"]
        assert float(row["foot"]) == point["foot"]
        assert float(row["distortion"]) == record["distortion"]
    assert float(rows[0]["cell_lo"]) == 0.0
    assert float(rows[0]["cell_hi"]) == 0.5
    assert float(rows[1]["cell_hi"]) == 1.0


def test_solve_lloyd_matches_closed_form():
    record = solve_record("--n", "8", "--method", "lloyd")
    reference = solve_record("--n", "8")
    assert abs(record["distortion"] - reference["distortion"]) <= 1e-10
    worst = max(
        abs(a["foot"] - b["foot"])
        for a, b in zip(record["points"], reference["points"])
    )
    assert worst <= 1e-6


def test_solve_lloyd_converges_at_cli_defaults_for_n_64():
    record = solve_record("--n", "64", "--method", "lloyd")
    assert abs(record["distortion"] - vn(64)) <= 1e-12
    worst = max(
        abs(p["foot"] - (2 * j - 1) / 128) for j, p in enumerate(record["points"], 1)
    )
    assert worst <= 1e-9


# ------------------------------------------------------------------- curve


def test_curve_linear_spacing():
    proc = run_cli("curve", "--n-max", "4", "--spacing", "linear")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [int(r["n"]) for r in rows] == [1, 2, 3, 4]
    assert rows[0]["dim_direct"] == ""  # undefined at n=1
    for r in rows:
        assert float(r["v_n"]) == vn(int(r["n"]))


def test_curve_geometric_includes_endpoint():
    proc = run_cli("curve", "--n-max", "20")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [int(r["n"]) for r in rows] == [1, 2, 4, 8, 16, 20]


def test_curve_linear_refuses_n_max_above_cap(capsys):
    code = cli.main(["curve", "--n-max", "100001", "--spacing", "linear"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--n-max <= 100000" in captured.err


def test_curve_refuses_n_max_above_cap_before_tabulating(monkeypatch, capsys):
    def no_row(n):
        raise AssertionError("curve tabulated a row before refusing --n-max")

    monkeypatch.setattr(closed_form, "vn", no_row)
    cap = closed_form._MAX_N
    for big in ("3000000000", "1" + "0" * 400):
        code = cli.main(["curve", "--n-max", big])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: --n-max must be an integer in [1, {cap}], got {big}" in captured.err


def test_curve_json_format():
    proc = run_cli("curve", "--n-max", "4", "--format", "json")
    data = json.loads(proc.stdout)
    assert set(data) == {"rows"}
    assert [r["n"] for r in data["rows"]] == [1, 2, 4]
    assert data["rows"][0]["dim_direct"] is None
    assert data["rows"][1]["v_n"] == vn(2)


# ------------------------------------------------------------------ verify


def test_verify_small_range_passes():
    proc = run_cli("verify", "--n-max", "16", "--oracle-n-max", "3")
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "verify: OK"
    # 16 solver rows + 3 oracle rows + the summary
    assert len(lines) == 20
    assert all(line.endswith(" ok") for line in lines[:-1])


def test_verify_confirms_the_oracle_up_to_its_cap():
    proc = run_cli("verify", "--n-max", "6", "--oracle-n-max", "6")
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "verify: OK"
    # 6 solver rows + 6 oracle rows + the summary
    assert len(lines) == 13
    assert all(line.endswith(" ok") for line in lines[:-1])


def test_verify_detects_a_corrupted_closed_form(monkeypatch, capsys):
    real = closed_form.vn
    monkeypatch.setattr(closed_form, "vn", lambda n: real(n) * 1.01)
    code = cli.main(["verify", "--n-max", "3", "--oracle-n-max", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert captured.out.strip().splitlines()[-1] == "verify: FAIL"


def test_verify_holds_the_oracle_to_its_grid_resolution(monkeypatch, capsys):
    # feet 0.01 off the means: within 2 * grid_step, outside the 5e-3 that the
    # refined grid guarantees at the default OracleConfig
    def off_grid_search(n, config=None):
        feet = [m + 0.01 for m in closed_form.unconstrained_means(n)]
        q = Quantizer(tuple(ConstraintPoint(n, (f - 1 / n) / 2) for f in feet))
        return SolverOutcome(quantizer=q, distortion=distortion(q), iterations=4, converged=True)

    monkeypatch.setattr(oracle, "brute_force", off_grid_search)
    code = cli.main(["verify", "--n-max", "2", "--oracle-n-max", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert lines[2].startswith("oracle n=1 ") and lines[2].endswith(" FAIL")
    assert lines[3].startswith("oracle n=2 ") and lines[3].endswith(" FAIL")
    assert lines[-1] == "verify: FAIL"


def test_verify_refuses_oracle_n_max_above_cap_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before refusing --oracle-n-max")

    monkeypatch.setattr(cli, "solve_fixed_constraint", no_solve)
    cap = oracle._FULL_SEARCH_MAX_N
    code = cli.main(["verify", "--n-max", "2", "--oracle-n-max", str(cap + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"exhaustive search supports n <= {cap}, got {cap + 1}" in captured.err


def test_verify_refuses_n_max_above_cap_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before refusing --n-max")

    monkeypatch.setattr(cli, "solve_fixed_constraint", no_solve)
    cap = quantizer._MAX_POINTS
    code = cli.main(["verify", "--n-max", str(cap + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--n-max must be an integer in [1, {cap}], got {cap + 1}" in captured.err


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_2():
    assert run_cli("solve", "--n", "0").returncode == 2
    assert run_cli("solve", "--n", "two").returncode == 2
    assert run_cli("solve").returncode == 2
    assert run_cli("curve", "--n-max", "4", "--spacing", "hex").returncode == 2
    assert run_cli().returncode == 2


def test_domain_errors_exit_2():
    proc = run_cli("dimension", "--n-min", "100", "--n-max", "50")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert run_cli("dimension", "--n-min", "1", "--n-max", "10").returncode == 2
    assert run_cli("solve", "--n", "7", "--method", "brute-force").returncode == 2


def test_dimension_refuses_n_max_above_cap(capsys):
    for big in ("2147483648", "1" + "0" * 400):
        assert cli.main(["dimension", "--n-max", big]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: n_max must be an integer in [2, 2147483647]" in captured.err


def test_non_convergence_exits_3():
    proc = run_cli(
        "solve", "--n", "64", "--method", "lloyd", "--tol", "1e-13", "--max-iter", "2"
    )
    assert proc.returncode == 3
    assert "no convergence" in proc.stderr
    assert proc.stdout == ""


def test_main_is_importable_and_returns_codes():
    assert cli.main(["solve", "--n", "1", "--out", "/dev/null"]) == 0
    with pytest.raises(SystemExit) as e:
        cli.main(["solve", "--n", "-2"])
    assert e.value.code == 2
