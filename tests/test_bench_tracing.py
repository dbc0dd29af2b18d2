"""The benchmark's traced run still finds every package name it wraps.

bench/tracing.py wraps the names in its TRACED table; a name deleted or
renamed in the package would otherwise fail only in the full benchmark
smoke run.  The module is loaded from bench/ and not modified.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import segquant as sq
import segquant.cli  # noqa: F401  (TRACED wraps cli.main)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_wraps_and_restores_the_package():
    tracing = load_tracing()
    originals = {name: getattr(sq, name) for name in sq.__all__}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        sq.distortion(sq.optimal_points(2))
        sq.brute_force(1)  # its span counts work through OracleConfig
    finally:
        tracing.uninstall(undo)
    spans = {"quantizer.distortion", "closed_form.optimal_points", "oracle.brute_force_n1"}
    assert spans <= set(tracer.names)
    assert all(getattr(sq, name) is fn for name, fn in originals.items())
