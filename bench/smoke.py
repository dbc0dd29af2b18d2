"""Smoke test of the benchmark at reduced size (about a minute).

    python3 bench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit
for every workload; that a deliberately corrupted answer, an exception and
converged=False are each counted in failed_ratio and make the run incorrect,
while only the known failing command is exempt; and that two runs with the
same seed give equal counts.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1) -> tuple[list[str], dict]:
    argv = [
        sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{argv[2:]} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_metrics_printed() -> None:
    for workload in BENCHMARK["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = bench(workload["name"], trace)
            assert "seed = 1;" in lines[0], lines[0]
            assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
            for m in BENCHMARK[kind]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)), (m, got)
                assert f"{m['name']} = {got['value']!r} {m['unit']}" in lines, m["name"]
            print(f"ok: {workload['name']} --trace {trace} prints every {kind} metric")


def run_patched(workload: str, name: str, patch) -> tuple[list[str], dict, int]:
    """run.main in-process with segquant.<name> replaced by patch(original);
    returns the output lines, the result and the number of passes made."""
    sys.path.insert(0, str(run.SRC))
    import segquant

    original = getattr(segquant, name)
    setattr(segquant, name, patch(original))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(
                ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--size", "smoke"]
            )
    finally:
        setattr(segquant, name, original)
    assert code == 0, code
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    tasks = int(re.search(r"tasks per pass = (\d+)", lines[0]).group(1))
    return lines, result, result["attempted"] // tasks


def corrupt_distortion(original):
    def corrupted(q):
        d = original(q)
        return d + 1e-6 if q.n == 5 else d

    return corrupted


def raise_in_distortion(original):
    def raising(q):
        if q.n == 7:
            raise ArithmeticError("injected")
        return original(q)

    return raising


def unconverged_solve(original):
    def unconverged(n, *args, **kwargs):
        out = original(n, *args, **kwargs)
        return dataclasses.replace(out, converged=False) if n == 3 else out

    return unconverged


def check_failures_counted() -> None:
    cases = (
        ("closed-form-grid", "distortion", corrupt_distortion, "a corrupted distortion(n=5)"),
        ("closed-form-grid", "distortion", raise_in_distortion, "an exception in distortion(n=7)"),
        ("lloyd-sweep", "solve_fixed_constraint", unconverged_solve, "converged=False at n=3"),
    )
    for workload, name, patch, what in cases:
        lines, result, passes = run_patched(workload, name, patch)
        assert not result["correct"], result
        assert result["failed"] == passes > 0, result
        expected = f"failed_ratio = {result['failed'] / result['attempted']!r} "
        assert any(line.startswith(expected) for line in lines), expected
        print(f"ok: {what} failed once in each of {passes} passes and made the run incorrect")


def check_only_the_known_failure_is_exempt() -> None:
    argv, code = workloads.KNOWN_FAILURE
    assert workloads._checked_exit(argv, code, b"", b"", None).known
    assert not workloads._checked_exit(argv, 1, b"", b"", None).known
    verify = ["verify", "--n-max", "16", "--oracle-n-max", "2"]
    assert not workloads._checked_exit(verify, 1, b"", b"", None).known
    print(f"ok: only `{' '.join(argv)}` exiting {code} counts as the known failure")


def check_same_seed_counts() -> None:
    def counts(seed: int) -> dict:
        _, result = bench("lloyd-sweep", 1, seed)
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    first, second, other = counts(7), counts(7), counts(8)
    assert first == second, (first, second)
    assert first["quantizer.sweeps"] != other["quantizer.sweeps"], (first, other)
    print(f"ok: seed 7 gives {first['quantizer.sweeps']:.0f} sweeps twice, seed 8 another count")


def main() -> int:
    check_metrics_printed()
    check_failures_counted()
    check_only_the_known_failure_is_exempt()
    check_same_seed_counts()
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
