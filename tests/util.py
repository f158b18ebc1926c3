"""Shared helpers for building randomized test inputs, and the settings of
the generated-input tests."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

import qwrng

# a fixed example sequence keeps the suite's verdict reproducible
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_coin_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_schedule(rng: np.random.Generator, steps: int, lo: float = 0.0, hi: float = 1.0) -> qwrng.CoinSchedule:
    # one scalar draw per ratio, so seeded tests keep their data
    size = steps * (steps + 1) // 2
    return qwrng.CoinSchedule(steps, [float(rng.uniform(lo, hi)) for _ in range(size)])


def golden_ratios(steps: int) -> list[float]:
    """Golden-ratio offsets plus the exact edges 0 and 1, no RNG involved."""
    size = steps * (steps + 1) // 2
    values = [((k + 1) * 0.6180339887498949) % 1.0 for k in range(size)]
    values[3], values[size - 4] = 0.0, 1.0
    return values


def random_distribution(rng: np.random.Generator, steps: int) -> qwrng.Distribution:
    w = rng.uniform(0.05, 1.0, size=steps + 1)
    w /= w.sum()
    return qwrng.Distribution(steps, w)


def first_iteration_reaching(report: qwrng.TrainReport, goal: float) -> int | None:
    """Earliest trace index whose fidelity is at least the goal."""
    for k, _, fid in report.iterations:
        if fid >= goal:
            return k
    return None
