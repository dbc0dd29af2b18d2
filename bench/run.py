"""segquant benchmark: one workload per run, end-to-end metrics or a traced run.

Run from the repository root (single process, single thread; the package is
imported from src/ of the same checkout):

    python3 bench/run.py --workload lloyd-sweep --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics, every time scaled to the
reference host speed by the probes timed around it (speed.py); --trace 1
makes untraced and traced passes in turn and reports the per-layer metrics,
each layer's self time and share of run_s, and the tracing overhead.
Progress and details go to stdout; the last line is one JSON object with
keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set-up spawns, spread over the run
SETUP_RUNS = 20
STARTUP_RUNS = 3
# traced passes stop once this many spans are kept (about 20 MB of arrays)
MAX_SPANS = 600_000
# a fresh interpreter's import of the package and its first call
SETUP_CODE = "import segquant; segquant.distortion(segquant.optimal_points(2))"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: reduced task lists, for bench/smoke.py",
    )
    return p.parse_args(argv)


def spawn_seconds(argv: list[str], env: dict) -> float:
    """Wall time of a child interpreter from spawn to exit; it must exit 0."""
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def fastest_spawn(argv: list[str], env: dict, runs: int) -> float:
    spawn_seconds(argv, env)  # unmeasured: bytecode caches get written once
    return min(spawn_seconds(argv, env) for _ in range(runs))


class Pass:
    """One pass over a task list: per-task start times, latencies and failures."""

    def __init__(self, tasks, tracer=None, probe=None) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures = []
        for k, task in enumerate(tasks):
            if tracer is not None:
                tracer.task_id = k
                span = tracer.open(tracer.name_id(tracing.TASK_SPAN))
            t0 = perf_counter()
            self.starts.append(t0)
            try:
                failure = task.run()
            except Exception as exc:  # a task's exception is a counted failure
                failure = workloads.Failure(f"{type(exc).__name__}: {exc}")
            self.latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
            if probe is not None:
                probe.after_task(self.latencies[-1])
            if failure is not None:
                self.failures.append((task.label, failure))


def repeat(seconds: float, min_rounds: int, round_fn, more=lambda: True) -> list:
    """Call round_fn until another round would overrun `seconds` or more()
    turns false, at least min_rounds times."""
    results, durations = [], []
    start = perf_counter()
    while len(results) < min_rounds or (
        more() and perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = perf_counter()
        results.append(round_fn())
        durations.append(perf_counter() - t0)
    return results


def fastest_latencies(passes: list[list[float]], k: int) -> list[list[float]]:
    """Each task's k fastest latencies over the passes' latency lists,
    fastest first.

    A shared host runs at a fast or a slow speed for stretches of seconds to
    tens of seconds, which can change within a pass.  Keeping each task's
    fastest latencies discards the slow stretches, so the figures vary far
    less from run to run than a mean or median over all passes.
    """
    return [sorted(xs)[:k] for xs in zip(*passes)]


def tail_quantile(workload) -> float:
    """1 - 10/N for the N = min_passes x tasks latencies the metrics pool:
    the highest percentile that keeps ten samples beyond it."""
    return 1 - 10 / (workload.min_passes * len(workload.tasks))


def report_failures(passes: list[Pass]) -> None:
    counts = Counter(
        f"{label}: {f.message}{' (known)' if f.known else ''}"
        for p in passes for label, f in p.failures
    )
    for text, count in sorted(counts.items()):
        print(f"FAILED x{count}  {text}")


def result_line(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> str:
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for _, f in p.failures]
    print(f"failed_ratio = {len(failures) / attempted!r} ({len(failures)} of {attempted} tasks)")
    report_failures(passes)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    return json.dumps(
        {
            # every failure but the known one makes a run incorrect
            "correct": all(f.known for f in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )


def peak_rss_mb() -> float:
    """The largest peak resident memory of the benchmark process and of any
    child it waited for (the set-up spawns, the cli commands)."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024  # KiB on Linux


def end_to_end(workload, args, env) -> str:
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    spawn_seconds(setup_argv, env)  # unmeasured: bytecode caches get written once
    setups: list[float] = []
    probe = speed.Probe()
    start = perf_counter()

    def spawn() -> None:
        setups.append(spawn_seconds(setup_argv, env))
        probe.after_task(setups[-1])

    def pass_then_spawn() -> Pass:
        done = Pass(workload.tasks, probe=probe)
        # spawns spread over the run, so that their median sees the run's host
        due = SETUP_RUNS * (perf_counter() - start) / args.seconds
        while len(setups) < min(due, SETUP_RUNS):
            spawn()
        return done

    passes = repeat(args.seconds, workload.min_passes, pass_then_spawn)
    while len(setups) < SETUP_RUNS:
        spawn()
    q = tail_quantile(workload)

    def times(scale, run_factor: float) -> dict[str, tuple[float, str]]:
        """The four times: task latencies mapped by scale(start, seconds), the
        median spawn, which sees the whole run, multiplied by run_factor."""
        best = fastest_latencies(
            [[scale(t, x) for t, x in zip(p.starts, p.latencies)] for p in passes],
            workload.min_passes,
        )
        pool = sorted(x for xs in best for x in xs)
        return {
            "setup_s": (statistics.median(setups) * run_factor, "s"),
            "run_s": (sum(xs[0] for xs in best), "s"),
            "task_p50_ms": (statistics.median(xs[0] for xs in best) * 1e3, "ms"),
            "task_tail_ms": (pool[math.ceil(q * len(pool)) - 1] * 1e3, "ms"),
        }

    n = workload.min_passes * len(workload.tasks)
    print(
        f"passes = {len(passes)}; run_s and task_p50_ms from each task's fastest latency; "
        f"task_tail_ms is p{100 * q:.1f} of {n} task latencies, each task's "
        f"{workload.min_passes} fastest ({n - math.ceil(q * n)} beyond it)"
    )
    print(
        f"speed probe: {len(probe.samples)} samples, fastest {min(probe.samples)!r} s; "
        f"each task latency is scaled by {speed.REFERENCE_S!r} s over the fastest probe "
        f"within {speed.WINDOW_S} s of it, setup_s by {probe.run_factor()!r}"
    )
    for name, (value, unit) in times(lambda t, x: x, 1.0).items():
        print(f"unscaled {name} = {value!r} {unit}")
    metrics = times(probe.scaled, probe.run_factor())
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return result_line(passes, metrics)


def traced(workload, args, env) -> str:
    passes = []
    process_s = exit_nonzero = 0.0
    if workload.subprocess_tasks:
        # subprocesses cannot be traced; time one untraced pass of them
        sub = Pass(workload.subprocess_tasks)
        passes.append(sub)
        process_s = statistics.mean(sub.latencies)
        exit_nonzero = float(sum(f.exit_code != 0 for _, f in sub.failures))
    startup_s = fastest_spawn([sys.executable, "-m", "segquant", "--help"], env, STARTUP_RUNS)

    tracer = tracing.Tracer()

    def traced_pass() -> Pass:
        undo = tracing.install(tracer)
        try:
            return Pass(workload.traced_tasks, tracer)
        finally:
            tracing.uninstall(undo)

    pairs = repeat(
        args.seconds, 1,
        lambda: (Pass(workload.traced_tasks), traced_pass()),
        more=lambda: len(tracer.start) < MAX_SPANS,
    )
    plain = [a for a, _ in pairs]
    spanned = [b for _, b in pairs]
    passes += plain + spanned
    # means, like the per-layer self times, so that the layer shares add up;
    # the passes alternate, so both sides see the same host
    run_s = sum(map(sum, (p.latencies for p in plain))) / len(plain)
    traced_run_s = sum(map(sum, (p.latencies for p in spanned))) / len(spanned)
    layer_self, metrics = tracing.summarize(tracer, len(spanned))
    print(f"pairs of untraced and traced passes = {len(pairs)}; spans = {len(tracer.start)}")
    print(f"mean pass untraced = {run_s!r} s, traced = {traced_run_s!r} s")
    print(f"{'layer':<12} {'self_s/pass':>12} {'share':>7}")
    for layer, total in layer_self.items():
        s = total / len(spanned)
        print(f"{layer:<12} {s:>12.6f} {s / traced_run_s:>7.1%}")
    metrics.update(
        {
            "cli.startup_s": (startup_s, "s"),
            "cli.process_s": (process_s, "s"),
            "cli.exit_nonzero": (exit_nonzero, "count"),
            "trace.overhead_s": (traced_run_s - run_s, "s"),
        }
    )
    path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return result_line(passes, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "segquant" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import segquant

    if Path(segquant.__file__).resolve().parent != SRC / "segquant":
        print(f"error: segquant was imported from {segquant.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.size == "smoke", ROOT)
    print(f"workload = {workload.name}; seed = {args.seed}; size = {args.size}; "
          f"tasks per pass = {len(workload.tasks)}; min passes = {workload.min_passes}")
    Pass(workload.tasks[:1])  # warm-up call, unmeasured
    env = workloads.package_env(ROOT)
    line = traced(workload, args, env) if args.trace else end_to_end(workload, args, env)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
