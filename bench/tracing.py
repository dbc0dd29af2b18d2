"""Spans around every call into a segquant layer, for the traced run.

install() wraps the public functions, constructors and methods listed in
TRACED wherever a segquant module namespace holds them, so calls between
modules are caught as well as the benchmark's own.  Each call records a span
(name, start, end, parent span, task id) in memory; the benchmark writes them
out when it ends.  The package itself is not modified on disk.

A layer is a module of the package; "bench" is the benchmark's own task code
(checks and glue).  A span's self time is its duration minus that of its
child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "measure", "quantizer", "closed_form", "asymptotics", "oracle", "cli", "bench")

TASK_SPAN = "bench.task"


def _points_of_first(args, result) -> int:
    return args[0].n


def _oracle_candidates(args, result) -> int:
    """Candidates evaluated by brute_force(n) at the default OracleConfig,
    computed from the grid sizes: every coarse-grid combination of every
    assignment of constraint indices, then 5**n per refinement round (the
    local grids never meet the clipping bounds near the optimum)."""
    from segquant import OracleConfig, feasible_foot_range

    n = args[0]
    cfg = OracleConfig()
    step = cfg.grid_step
    # brute_force's coarse grid: the feasible range widened by a step
    sizes = [
        len(np.arange(lo - step, hi + step + step / 2, step))
        for lo, hi in map(feasible_foot_range, range(1, n + 1))
    ]
    coarse = sum(int(np.prod([sizes[t] for t in ts])) for ts in np.ndindex(*([n] * n)))
    return coarse + cfg.refine_rounds * 5**n


# (span name, module, attribute or Class.method, units of work per call or None)
TRACED = (
    ("geometry.constraint_point", "geometry", "ConstraintPoint.__init__", None),
    ("geometry.forward_map", "geometry", "forward_map", None),
    ("geometry.embed", "geometry", "embed", None),
    ("geometry.inverse_map", "geometry", "inverse_map", None),
    ("geometry.voronoi_breakpoint", "geometry", "voronoi_breakpoint", None),
    ("measure.interval_distortion", "measure", "UniformSegmentMeasure.interval_distortion", None),
    ("quantizer.quantizer_init", "quantizer", "Quantizer.__init__", lambda a, r: len(a[0].points)),
    ("quantizer.partition_of", "quantizer", "partition_of", _points_of_first),
    ("quantizer.distortion", "quantizer", "distortion", _points_of_first),
    ("quantizer.solve", "quantizer", "solve_fixed_constraint", lambda a, r: r.iterations),
    ("closed_form.optimal_points", "closed_form", "optimal_points", lambda a, r: a[0]),
    ("closed_form.optimal_abscissas_exact", "closed_form", "optimal_abscissas_exact", None),
    ("closed_form.vn", "closed_form", "vn", None),
    ("closed_form.vn_exact", "closed_form", "vn_exact", None),
    ("closed_form.excess_exact", "closed_form", "excess_exact", None),
    ("closed_form.unconstrained_means", "closed_form", "unconstrained_means", None),
    ("asymptotics.excess", "asymptotics", "excess", None),
    ("asymptotics.coefficient_estimate", "asymptotics", "coefficient_estimate", None),
    ("asymptotics.dimension_direct", "asymptotics", "dimension_direct", None),
    ("asymptotics.dimension_regression", "asymptotics", "dimension_regression", None),
    ("oracle.brute_force", "oracle", "brute_force", _oracle_candidates),
    ("oracle.riemann_distortion", "oracle", "riemann_distortion", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Spans kept in flat arrays; span i's parent is parent[i] (-1 at the top)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.current = -1
        self.task_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self.units.append(0.0)
        self.current = i
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.current = self.parent[i]

    def write(self, path: Path) -> None:
        """Save the spans as numpy arrays, with `names` indexed by `name`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            task=np.frombuffer(self.task, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            units=np.frombuffer(self.units),
        )


def _wrap(tracer: Tracer, fn, name: str, units):
    # brute_force gets one span name per n, for the per-n metrics
    split = name == "oracle.brute_force"
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(tracer.name_id(f"{name}_n{args[0]}") if split else name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if units is not None:
            tracer.units[i] = units(args, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every TRACED name; returns what uninstall() needs to undo it."""
    modules = [m for key, m in sys.modules.items() if key == "segquant" or key.startswith("segquant.")]
    undo = []
    for name, module, attr, units in TRACED:
        owner = sys.modules[f"segquant.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(tracer, original, name, units))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, name, units)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                setattr(m, key, wrapped)
                undo.append((m, key, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)


def summarize(tracer: Tracer, passes: int) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """Per-layer self seconds, and the per-layer metrics of BENCHMARK.json,
    from the spans of `passes` traced passes.  A layer the workload never
    calls reads 0."""
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.intc)
    names = np.frombuffer(tracer.name, dtype=np.intc)
    units = np.frombuffer(tracer.units, dtype=np.float64)
    nested = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    # a curve row is one top-level estimator call each; excess calls nested
    # in dimension_direct or dimension_regression belong to their parents
    layer_ids = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names])
    span_layer = layer_ids[names] if len(names) else np.zeros(0, dtype=int)
    in_asymptotics = np.zeros(len(names), dtype=bool)
    in_asymptotics[nested] = span_layer[parent[nested]] == LAYERS.index("asymptotics")

    def select(name: str, top: bool = False) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(len(names), dtype=bool)
        mask = names == tracer.names.index(name)
        return mask & ~in_asymptotics if top else mask

    def per_call(name: str, scale: float) -> float:
        mask = select(name)
        calls = int(mask.sum())
        return float(dur[mask].sum()) / calls * scale if calls else 0.0

    def per_unit(name: str, scale: float) -> float:
        mask = select(name)
        total = float(units[mask].sum())
        return float(dur[mask].sum()) / total * scale if total else 0.0

    solve = select("quantizer.solve")
    sweeps = float(units[solve].sum())
    rows = int(select("asymptotics.coefficient_estimate", top=True).sum())
    row_time = sum(
        float(dur[select(f"asymptotics.{n}", top=True)].sum())
        for n in ("excess", "coefficient_estimate", "dimension_direct")
    )
    candidates = sum(float(units[select(f"oracle.brute_force_n{n}")].sum()) for n in (1, 2, 3))
    metrics = {
        "quantizer.sweeps": (sweeps / passes, "count"),
        "quantizer.sweep_us": (float(self_time[solve].sum()) / sweeps * 1e6 if sweeps else 0.0, "us"),
        "quantizer.solve_s": (float(dur[solve].sum()) / passes, "s"),
        "geometry.constraint_point_us": (per_call("geometry.constraint_point", 1e6), "us"),
        "geometry.forward_map_us": (per_call("geometry.forward_map", 1e6), "us"),
        "geometry.embed_us": (per_call("geometry.embed", 1e6), "us"),
        "geometry.inverse_map_us": (per_call("geometry.inverse_map", 1e6), "us"),
        "measure.interval_distortion_us": (per_call("measure.interval_distortion", 1e6), "us"),
        "quantizer.quantizer_init_us": (per_unit("quantizer.quantizer_init", 1e6), "us/point"),
        "quantizer.partition_of_us": (per_unit("quantizer.partition_of", 1e6), "us/point"),
        "quantizer.distortion_us": (per_unit("quantizer.distortion", 1e6), "us/point"),
        "closed_form.optimal_points_us": (per_unit("closed_form.optimal_points", 1e6), "us/point"),
        "asymptotics.curve_row_us": (row_time / rows * 1e6 if rows else 0.0, "us"),
        "asymptotics.dimension_regression_ms": (per_call("asymptotics.dimension_regression", 1e3), "ms"),
        "oracle.brute_force_n1_s": (per_call("oracle.brute_force_n1", 1.0), "s"),
        "oracle.brute_force_n2_s": (per_call("oracle.brute_force_n2", 1.0), "s"),
        "oracle.brute_force_n3_s": (per_call("oracle.brute_force_n3", 1.0), "s"),
        "oracle.candidates_computed": (candidates / passes, "count"),
        "oracle.riemann_ms": (per_call("oracle.riemann_distortion", 1e3), "ms"),
        "cli.main_ms": (per_call("cli.main", 1e3), "ms"),
    }
    layer_self = {
        layer: float(self_time[span_layer == k].sum()) for k, layer in enumerate(LAYERS)
    }
    return layer_self, metrics
