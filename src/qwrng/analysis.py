"""Statistical validation of sample streams and schedule robustness checks.

Wave-plate quantization rounds a ratio's plate angle to whole resolution
steps, k = round(degrees(arccos(sqrt(r))) / 2 / resolution), and maps k back
through r = cos^2(2 k resolution).  :func:`quantize_ratio` is that rule for
one ratio, and the reference; :func:`quantize_schedule` applies it to a whole
schedule with array code, to the same bytes, and hands a count that overflows
a float to the scalar rule as inf.  :func:`robustness_sweep` lays out the
noisy walks of every magnitude in one sequence, walks it in batches of bounded
memory whatever their magnitude, and scores each batch's rows in one
reduction; magnitude 0 is one walk.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .training import _check_same_support, _fidelity
from .walk import CoinSchedule, Distribution, WalkState, _forward, _triangle

#: Wave-plate resolution (degrees) of the modeled hardware; a half-wave
#: plate at angle phi rotates polarization by 2*phi, so this grid on phi
#: induces a grid twice as coarse on the coin angle.
DEFAULT_HWP_RESOLUTION_DEG = 0.25

#: Walks x buffer slots that one batched pass of :func:`robustness_sweep`
#: may hold.  A full batch peaks at 16-18 MiB under tracemalloc (n = 256 and
#: 64): the coin factors and the L and R buffers take about 8 MiB each.  A
#: batch's buffers go before the next batch's are built, so the sweep's
#: memory does not grow with the number of trials.
_BATCH_SLOTS = 2**18


@dataclass(frozen=True)
class ChiSquareReport:
    """Goodness-of-fit summary: statistic, degrees of freedom, p-value."""

    statistic: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class RobustnessCurve:
    """Fidelity under growing schedule perturbations.

    Each point is (perturbation magnitude, mean fidelity, min fidelity)
    across the Monte-Carlo trials at that magnitude.
    """

    points: list[tuple[float, float, float]]


def chi_square_p_value(statistic: float, dof: int) -> float:
    """Upper-tail probability of a chi-square statistic.

    Evaluated as the regularized upper incomplete gamma function at
    (dof/2, statistic/2).
    """
    if statistic < 0.0:
        raise ValueError(f"statistic must be non-negative, got {statistic}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    from scipy.special import gammaincc  # here, not at the top: only analyze pays its import

    return float(gammaincc(dof / 2.0, statistic / 2.0))


def chi_square_test(counts: np.ndarray, target: Distribution) -> ChiSquareReport:
    """Pearson chi-square test of observed counts against a target.

    ``counts`` holds one count per site of the target support, in site order
    (as :func:`qwrng.counts_by_position` returns them).  A site the target
    never reaches adds no term and no degree of freedom: dof is the number of
    sites with a non-zero expected count, less one.  The p-value is the
    regularized upper incomplete gamma function at (dof/2, statistic/2).
    """
    sites = target.steps + 1
    observed = np.asarray(counts, dtype=np.int64)
    if observed.shape != (sites,):
        raise ValueError(
            f"expected {sites} counts, one per site of the target support, got {observed.size}"
        )
    if observed.min() < 0:
        raise ValueError("counts must be non-negative")
    total = int(observed.sum())
    if total < 1:
        raise ValueError("chi-square test needs at least one observation")
    # summed term by term in site order over Python floats, so reports keep their bytes
    statistic, dof = 0.0, -1
    for j, (o, p) in enumerate(zip(observed.tolist(), target.values.tolist())):
        expected = total * p
        if expected == 0.0:
            if o:
                m = 2 * j - target.steps
                raise ValueError(f"position {m} has zero expected count but {o} observations")
            continue
        statistic += (o - expected) ** 2 / expected
        dof += 1
    # a target with one possible outcome fails here
    p_value = chi_square_p_value(float(statistic), dof)
    if total < 5 * sites:  # only once every check has passed: a rejected count shows its error alone
        warnings.warn(
            f"only {total} observations over {sites} sites;"
            " the chi-square approximation may be poor",
            stacklevel=2,
        )
    return ChiSquareReport(statistic=float(statistic), dof=dof, p_value=p_value)


def entropy_report(dist: Distribution) -> tuple[float, float]:
    """Shannon entropy and min-entropy of a distribution, in bits."""
    p = dist.values
    nz = p[p > 0.0]
    shannon = float(-(nz * np.log2(nz)).sum())
    min_entropy = float(-np.log2(p.max()))
    return shannon, min_entropy


def _check_resolution(hwp_resolution_deg: float) -> None:
    if not 0.0 < hwp_resolution_deg < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {hwp_resolution_deg}")


def _plate_ratio(k: float, hwp_resolution_deg: float) -> float:
    """The ratio cos^2(2*phi) of a plate at phi = ``k`` resolution steps."""
    return math.cos(math.radians(2.0 * (k * hwp_resolution_deg))) ** 2


#: Relative distance from a half step within which a plate-step count may
#: round apart between numpy's and ``math``'s arccos: the two counts differ
#: on ~7 % of ratios, by below 5e-16 relative in every case measured.
_TIE_RTOL = 1e-12


def quantize_ratio(ratio: float, hwp_resolution_deg: float = DEFAULT_HWP_RESOLUTION_DEG) -> float:
    """Snap one bias ratio onto the grid realizable by the wave plate.

    The coin angle theta = arccos(sqrt(r)) is produced by a half-wave plate
    at phi = theta/2; phi is rounded to the nearest multiple of the
    resolution and mapped back through r = cos^2(2*phi).
    """
    _check_resolution(hwp_resolution_deg)
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"coin bias ratio must lie in [0, 1], got {ratio}")
    theta_deg = math.degrees(math.acos(math.sqrt(ratio)))
    plate_steps = (theta_deg / 2.0) / hwp_resolution_deg
    if plate_steps == math.inf:
        raise ValueError(
            f"resolution {hwp_resolution_deg!r} is too fine: a plate angle's step count overflows"
        )
    return _plate_ratio(round(plate_steps), hwp_resolution_deg)


def quantize_schedule(
    schedule: CoinSchedule, hwp_resolution_deg: float = DEFAULT_HWP_RESOLUTION_DEG
) -> CoinSchedule:
    """Quantize every ratio of a schedule to the wave-plate grid.

    Bit for bit :func:`quantize_ratio` on each ratio.  The plate-step counts
    x are found for all ratios at once; numpy's arccos can differ from
    ``math.acos`` in the last ulp, which matters only where x rounds the
    other way, so a count within a relative 1e-12 of a half step, or too
    large to hold a fraction, is left to :func:`quantize_ratio`.  A count
    that overflows comes to that guard as inf, and the scalar rule names
    the resolution.  Each distinct rounded count is mapped back once, by
    the scalar formula.
    """
    _check_resolution(hwp_resolution_deg)
    ratios = schedule.values
    with np.errstate(over="ignore"):  # a grid too fine for a float: x = inf
        x = np.degrees(np.arccos(np.sqrt(ratios))) / 2.0 / hwp_resolution_deg
    # the window is wider than half a step from x = 5e11 up, so it also
    # takes in every x of 2**53 or more, which holds no fraction to round
    near = (np.abs(np.modf(x)[0] - 0.5) <= _TIE_RTOL * x).nonzero()[0]
    k = np.rint(x)
    k[near] = 0.0  # their ratios come from the scalar rule
    # sorted, each run of equal counts is mapped back once, then scattered
    order = k.argsort()
    k = k[order]
    first = np.empty(k.size, dtype=bool)
    first[:1] = True
    np.not_equal(k[1:], k[:-1], out=first[1:])
    table = np.array([_plate_ratio(q, hwp_resolution_deg) for q in k[first].tolist()])
    out = np.empty_like(k)
    out[order] = table[first.cumsum() - 1]
    out[near] = [quantize_ratio(r, hwp_resolution_deg) for r in ratios[near].tolist()]
    return schedule.with_array(out)


def robustness_sweep(
    schedule: CoinSchedule,
    initial: WalkState,
    target: Distribution,
    magnitudes: Sequence[float],
    trials: int,
    seed: int,
) -> RobustnessCurve:
    """Monte-Carlo fidelity under uniform ratio noise of growing size.

    For each magnitude d, every ratio is shifted by an independent uniform
    offset in [-d, d] (clamped into [0, 1]) and the perturbed walk is
    re-simulated against the target.  Each (magnitude, trial) pair with
    d > 0 gets its own child generator derived from the seed, so results are
    reproducible and independent of any evaluation order.  A magnitude of 0
    (or -0.0), which can only come first, draws nothing: every offset is
    +0.0, so it is walked once and that fidelity stands for each of its
    trials.  The walks of all magnitudes, in order, are cut into batches of
    bounded memory, one forward pass and one row-wise fidelity reduction per
    batch, so a batch may span magnitudes; each fidelity is bit-identical to
    that of its walk alone.
    """
    mags = [float(d) for d in magnitudes]
    if not mags:
        raise ValueError("need at least one perturbation magnitude")
    if not all(math.isfinite(d) for d in mags):
        raise ValueError(f"magnitudes must be finite, got {mags}")
    if any(d < 0 for d in mags):
        raise ValueError("magnitudes must be non-negative")
    huge = [d for d in mags if not math.isfinite(2 * d)]
    if huge:  # the width 2d of the noise interval must be a float
        raise ValueError(f"magnitude {huge[0]!r} is too large: its noise range [-d, d] overflows")
    if any(b <= a for a, b in zip(mags, mags[1:])):
        raise ValueError(f"magnitudes must be strictly increasing, got {mags}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    _check_same_support(schedule, target)

    base, goal = schedule.values, target.values
    rows = max(1, _BATCH_SLOTS // _triangle(schedule.steps + 1))
    zero = int(mags[0] == 0.0)  # 0 or -0.0 can only come first
    walks = itertools.chain(
        [(0, 0)] * zero, itertools.product(range(zero, len(mags)), range(trials))
    )
    fids = np.empty(zero + (len(mags) - zero) * trials)
    for first in range(0, fids.size, rows):
        noisy = np.zeros((min(rows, fids.size - first), base.size))
        for row, (i, t) in zip(noisy, itertools.islice(walks, rows)):
            if mags[i]:  # the zero walk draws nothing: its offsets stay +0.0
                rng = np.random.default_rng(np.random.SeedSequence([int(seed), i, t]))
                row[:] = rng.uniform(-mags[i], mags[i], size=base.size)
        noisy += base
        sweep, probs = _forward(np.clip(noisy, 0.0, 1.0, out=noisy), schedule.steps, initial)
        del sweep  # its buffers go before the next batch's come
        # one fidelity per row, summed along C-contiguous rows: each sum
        # keeps the pairwise order of its walk alone
        fids[first : first + len(probs)] = _fidelity(np.ascontiguousarray(probs), goal)
    per_magnitude = [np.full(trials, fids[0])] * zero + list(fids[zero:].reshape(-1, trials))
    return RobustnessCurve(
        points=[(d, float(f.mean()), float(f.min())) for d, f in zip(mags, per_magnitude)]
    )
