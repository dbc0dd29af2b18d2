"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from segquant import ConstraintPoint, Quantizer, geometry


def random_feet(rng: np.random.Generator, n: int, min_gap: float = 0.02) -> np.ndarray:
    """Strictly increasing feet in [0, 1] with a minimum spacing."""
    while True:
        feet = np.sort(rng.uniform(0.0, 1.0, n))
        if n == 1 or float(np.min(np.diff(feet))) >= min_gap:
            return feet


def random_same_constraint_quantizer(
    rng: np.random.Generator, n: int | None = None, t: int | None = None
) -> Quantizer:
    """Random valid quantizer with all points on one constraint."""
    if n is None:
        n = int(rng.integers(1, 9))
    if t is None:
        t = int(rng.integers(1, 9))
    feet = random_feet(rng, n)
    return Quantizer(
        tuple(ConstraintPoint(t, float((f - 1.0 / t) / 2.0)) for f in feet)
    )


def count_plane_calls(monkeypatch, *modules) -> list:
    """Record every constraint point that the given modules, or embed, map to
    the plane through geometry._plane."""
    calls = []

    def plane(cp):
        calls.append(cp)
        return real_plane(cp)

    real_plane = geometry._plane
    for module in (geometry, *modules):
        monkeypatch.setattr(module, "_plane", plane)
    return calls
