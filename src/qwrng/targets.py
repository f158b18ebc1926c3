"""Target distributions: uniform and discretized Gaussian.  Target CSV files
are read by :func:`qwrng.fileio.load_target`."""

from __future__ import annotations

import math

import numpy as np

from .fileio import read_distribution
from .walk import Distribution


def uniform_target(steps: int) -> Distribution:
    """Equal probability on each of the ``steps + 1`` reachable sites."""
    if steps < 1:
        raise ValueError(f"a uniform target needs at least one step, got {steps}")
    return Distribution(steps, np.full(steps + 1, 1.0 / (steps + 1)))


def gaussian_target(steps: int, mu: float = 0.0, sigma: float = 2.0) -> Distribution:
    """Pointwise-sampled Gaussian density on the walk support, normalized.

    ``T(m)`` is proportional to ``exp(-(m - mu)^2 / (2 sigma^2))`` over the
    parity-correct sites; the weights are shifted in log space before
    exponentiation so extreme parameters cannot underflow to an all-zero
    vector; a sigma whose square overflows, or so small that ``2 sigma^2``
    is 0, scales the distances first.
    Parameters so extreme that even the nearest site's log weight is still
    not finite are rejected.
    """
    if steps < 1:
        raise ValueError(f"a gaussian target needs at least one step, got {steps}")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    if not (0.0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    sites = np.arange(-steps, steps + 1, 2, dtype=float)
    spread = 2.0 * sigma * sigma
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_w = -((sites - mu) ** 2) / spread
        if not math.isfinite(log_w.max()) and (math.isinf(sigma * sigma) or spread == 0.0):
            log_w = -(((sites - mu) / sigma) ** 2) / 2
    # a far-off site may overflow to -inf and weigh 0, but the nearest must stay finite
    peak = log_w.max()
    if not math.isfinite(peak):
        raise ValueError(
            f"gaussian mu={mu!r}, sigma={sigma!r} gives no finite weight on a {steps}-step walk"
        )
    w = np.exp(log_w - peak)
    w /= w.sum()
    return Distribution(steps, w)


def target_from_spec(spec: str, steps: int | None) -> Distribution:
    """Build a target from a compact text spec.

    Accepted forms: ``uniform``, ``gaussian:MU,SIGMA`` and ``file:PATH``.
    ``steps`` may be None only for ``file:`` specs, where it is inferred.
    """
    if spec == "uniform":
        if steps is None:
            raise ValueError("a uniform target needs the number of steps")
        return uniform_target(steps)
    if spec.startswith("gaussian:"):
        if steps is None:
            raise ValueError("a gaussian target needs the number of steps")
        body = spec[len("gaussian:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected gaussian:MU,SIGMA, got {spec!r}")
        try:
            mu, sigma = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"expected numeric MU,SIGMA in {spec!r}") from None
        return gaussian_target(steps, mu, sigma)
    if spec.startswith("file:"):
        return read_distribution(spec[len("file:"):], steps)
    raise ValueError(f"unknown target spec {spec!r} (use uniform, gaussian:MU,SIGMA or file:PATH)")
