"""Command line: golden outputs, formats, exit codes, cross-verification."""

from __future__ import annotations

import csv
import io
import json
import os
import re
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


def test_solve_csv_n64_golden_bytes():
    # 64 points' plane, foot and cell fields, not just the n = 2 and n = 3 ones
    proc = run_cli("solve", "--n", "64", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "solve_n64.csv").read_text()


def test_solve_csv_n64_lloyd_golden_bytes():
    # the solver route: its x, plane and foot fields come from inverse_map,
    # _plane and forward_map on the float feet
    proc = run_cli("solve", "--n", "64", "--method", "lloyd", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "solve_n64_lloyd.csv").read_text()


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


def test_verify_golden_bytes():
    # --n-max 64 imports numpy before the solves, so they take the list loop
    # up to quantizer._LIST_LOOP_IN_PROCESS_MAX_N points and the numpy loop above
    proc = run_cli("verify")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "verify_default.txt").read_text()


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "record.json"
    to_file = run_cli("solve", "--n", "3", "--out", str(target))
    assert to_file.returncode == 0 and to_file.stdout == ""
    to_stdout = run_cli("solve", "--n", "3")
    assert target.read_text() == to_stdout.stdout


def test_closed_forms_and_small_solves_never_import_numpy():
    # numpy is loaded by solves above quantizer._LIST_LOOP_MAX_N points and by
    # verify --n-max above quantizer._LIST_LOOP_IN_PROCESS_MAX_N only
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import segquant
        from segquant import cli, quantizer
        segquant.distortion(segquant.optimal_points(2))
        segquant.solve_fixed_constraint(64, 64)
        segquant.solve_fixed_constraint(quantizer._LIST_LOOP_MAX_N, 1)
        segquant.lloyd_step(segquant.optimal_points(3))
        for argv in (
            ["solve", "--n", "2"],
            ["curve", "--n-max", "16"],
            ["dimension"],
            ["solve", "--n", "8", "--method", "lloyd"],
            ["solve", "--n", "64", "--method", "lloyd"],
            ["solve", "--n", "6", "--method", "brute-force"],
            ["verify", "--n-max", "28", "--oracle-n-max", "6"],
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


def test_verify_above_the_in_process_crossover_loads_numpy():
    # above quantizer._LIST_LOOP_IN_PROCESS_MAX_N the numpy loop is the faster
    # in-process, so verify imports numpy once, before its first solve
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        from segquant import cli, quantizer
        argv = ["verify", "--n-max", str(quantizer._LIST_LOOP_IN_PROCESS_MAX_N + 1)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert "numpy" in sys.modules, "numpy was not imported"
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


RECORD_KEYS = {
    "n",
    "method",
    "constraint_index",
    "points",
    "breakpoints",
    "distortion",
    "excess",
    "scaled_excess",
}
POINT_KEYS = {"j", "x", "plane", "foot"}


def is_number(value) -> bool:
    # JSON numbers only: bool is an int subclass, so exclude it by type
    return type(value) in (int, float)


def is_index(value) -> bool:
    return type(value) is int and value >= 1


def check_solve_record_schema(record: dict) -> None:
    assert set(record) == RECORD_KEYS
    assert is_index(record["n"]) and is_index(record["constraint_index"])
    assert record["method"] in ("closed-form", "lloyd", "brute-force")
    assert record["points"]
    for p in record["points"]:
        assert set(p) == POINT_KEYS
        assert is_index(p["j"])
        assert len(p["plane"]) == 2
        assert all(map(is_number, [p["x"], p["foot"], *p["plane"]]))
    scalars = [record["distortion"], record["excess"], record["scaled_excess"]]
    assert all(map(is_number, [*record["breakpoints"], *scalars]))


@pytest.mark.parametrize("method", ["closed-form", "lloyd", "brute-force"])
def test_solve_record_schema_and_consistency(method):
    record = solve_record("--n", "2", "--method", method)
    check_solve_record_schema(record)
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
    assert "error: n_max must be <= 100000 with linear spacing, got 100001" in captured.err


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
        assert f"error: n_max must be an integer in [1, {cap}], got {big}" in captured.err


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
    # feet 0.01 off the means: within 2 * grid_step, outside the 5e-3 that
    # OracleConfig's fixed refined grid guarantees
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
    assert f"error: oracle_n_max must be an integer in [1, {cap}], got {cap + 1}" in captured.err


def test_verify_refuses_n_max_above_cap_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before refusing --n-max")

    monkeypatch.setattr(cli, "solve_fixed_constraint", no_solve)
    # n = 972 is the first n whose default solve stalls short of convergence
    cap = 971
    code = cli.main(["verify", "--n-max", str(cap + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: n_max must be an integer in [1, {cap}], got {cap + 1}" in captured.err


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
    proc = run_cli("solve", "--n", "7", "--method", "brute-force")
    assert proc.returncode == 2
    assert proc.stderr == "error: n must be an integer in [1, 6], got 7\n"


def test_dimension_refuses_n_max_above_cap(capsys):
    for big in ("2147483648", "1" + "0" * 400):
        assert cli.main(["dimension", "--n-max", big]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: n_max must be an integer in [2, 2147483647]" in captured.err


@pytest.mark.parametrize(
    "command", [["solve", "--n", "2"], ["curve", "--n-max", "4"], ["dimension"]]
)
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "out.txt"):
        assert cli.main([*command, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(target) in captured.err


def test_mixed_constraint_result_exits_3(monkeypatch, capsys):
    # the search prices every cell cheapest on the top constraint, so a mixed
    # result comes from a stand-in
    def mixed_search(n, config=None):
        q = Quantizer((ConstraintPoint(2, 0.0), ConstraintPoint(4, 0.25)))
        return SolverOutcome(quantizer=q, distortion=distortion(q), iterations=4, converged=True)

    monkeypatch.setattr(oracle, "brute_force", mixed_search)
    args = ["solve", "--n", "2", "--method", "brute-force"]
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: result mixes constraint indices [2, 4]\n"


def test_non_convergence_exits_3():
    # the smallest n whose default solve stalls at the rounding floor
    proc = run_cli("solve", "--n", "972", "--method", "lloyd")
    assert proc.returncode == 3
    assert proc.stderr == "error: no convergence after 10000 sweeps (tol=1e-12)\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "flag", [["--tol", "1e-9"], ["--max-iter", "5"], ["--grid-step", "0.01"]], ids=" ".join
)
def test_solve_takes_no_solver_settings(flag, capsys):
    # solve runs SolverConfig() and OracleConfig(); other settings go through
    # the library
    with pytest.raises(SystemExit) as e:
        cli.main(["solve", "--n", "2", *flag])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_main_is_importable_and_returns_codes():
    assert cli.main(["solve", "--n", "1", "--out", "/dev/null"]) == 0
    assert cli.main(["solve", "--n", "-2"]) == 2
    # text that is no int at all stays argparse's usage error
    with pytest.raises(SystemExit) as e:
        cli.main(["solve", "--n", "two"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "0"],
        ["verify", "--oracle-n-max", "0"],
        ["curve", "--n-max", "0"],
        ["dimension", "--samples", "0"],
        ["solve", "--n", "100001"],
        ["solve", "--n", "7", "--method", "brute-force"],
        ["verify", "--n-max", "0"],
        ["verify", "--n-max", "100001"],
        ["verify", "--oracle-n-max", "7"],
        ["curve", "--n-max", "3000000000"],
        ["curve", "--n-max", "100001", "--spacing", "linear"],
        ["dimension", "--n-min", "1"],
        ["dimension", "--n-max", "2147483648"],
        ["dimension", "--n-min", "100", "--n-max", "50"],
        ["dimension", "--samples", "100001"],
    ],
    ids=" ".join,
)
def test_out_of_range_flags_exit_2_from_the_library_checks(argv, monkeypatch, capsys):
    # verify refuses before any solve; every refusal names the library
    # parameter, in one wording
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the flag was refused")

    monkeypatch.setattr(cli, "solve_fixed_constraint", no_solve)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: [a-z_]+ must be ", captured.err), captured.err


# ------------------------------------------------------------ process entry


def _exit_code_of_entrypoint(monkeypatch, *argv: str):
    monkeypatch.setattr(sys, "argv", ["segquant", *argv])
    with pytest.raises(SystemExit) as e:
        cli.entrypoint()
    return e.value.code


def test_entrypoint_starts_blas_with_one_thread_unless_the_user_chose(monkeypatch):
    argv = ("solve", "--n", "1", "--out", os.devnull)
    # set before deleting, so that monkeypatch restores the variable's absence
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert _exit_code_of_entrypoint(monkeypatch, *argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert _exit_code_of_entrypoint(monkeypatch, *argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_import_and_main_leave_the_environment_alone():
    code = textwrap.dedent(
        """
        import os, sys
        before = dict(os.environ)
        import segquant
        from segquant import cli, quantizer
        n = str(quantizer._LIST_LOOP_MAX_N + 1)
        argv = ["solve", "--n", n, "--method", "lloyd", "--out", os.devnull]
        assert cli.main(argv) == 0
        assert "numpy" in sys.modules
        assert dict(os.environ) == before
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc/self/task"
)
def test_entrypoint_sets_the_blas_thread_count_before_numpy_loads():
    # a Lloyd solve above quantizer._LIST_LOOP_MAX_N points imports numpy;
    # OpenBLAS sizes its pool then, once
    code = textwrap.dedent(
        """
        import os, sys
        from segquant import cli, quantizer
        sys.argv = [
            "segquant", "solve", "--n", str(quantizer._LIST_LOOP_MAX_N + 1),
            "--method", "lloyd", "--out", os.devnull,
        ]
        try:
            cli.entrypoint()
        except SystemExit as e:
            assert e.code == 0, e.code
        assert "numpy" in sys.modules
        threads = os.listdir("/proc/self/task")
        assert len(threads) == 1, threads
        """
    )
    blas_settings = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_settings}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
