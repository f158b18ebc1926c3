"""Library input checks that no other test reaches: each rejects its input
with a ``ValueError`` whose wording is pinned here."""

import re

import numpy as np
import pytest

from qwrng import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    chi_square_test,
    counts_by_position,
    decode_bits,
    empirical_distribution,
    gaussian_target,
    initial_state,
    load_target,
    robustness_sweep,
    target_from_spec,
    train,
    uniform_target,
    unpack_bits,
)
from qwrng.analysis import quantize_ratio
from qwrng.oracle import dense_walk
from qwrng.sampling import bit_width


def _origin():
    return initial_state(NAMED_COIN_VECTORS["L"])


CASES = {
    "target negative row": (
        lambda: load_target("-2,0.5\n0,-0.25\n2,0.75\n"),
        "probability at position 0 is -0.25, outside [0, 1]",
    ),
    "target nan row": (
        lambda: load_target("-2,0.5\n0,nan\n2,0.5\n"),
        "probability at position 0 is nan, outside [0, 1]",
    ),
    "chi-square negative count": (
        lambda: chi_square_test(np.array([3, -1, 3]), uniform_target(2)),
        "counts must be non-negative",
    ),
    "chi-square all zero": (
        lambda: chi_square_test(np.zeros(3, dtype=np.int64), uniform_target(2)),
        "chi-square test needs at least one observation",
    ),
    "decode past the last outcome": (
        lambda: decode_bits(np.array([1, 1, 1]), 5),
        "decoded index 7 outside [0, 4]",
    ),
    "decode bits at zero width": (
        lambda: decode_bits(np.array([1], np.uint8), 1),
        "zero-width encoding cannot carry bits",
    ),
    "unpack padding 8": (
        lambda: unpack_bits(b"\x00", 8),
        "padding must be 0..7 bits, got 8",
    ),
    "unpack padding past the payload": (
        lambda: unpack_bits(b"", 3),
        "padding exceeds the stored bit count",
    ),
    "empirical of zero samples": (
        lambda: empirical_distribution(np.zeros(0, dtype=np.int64), 2),
        "cannot build an empirical distribution from zero samples",
    ),
    "bit width of no outcomes": (
        lambda: bit_width(0),
        "need at least one outcome, got 0",
    ),
    "sweep without magnitudes": (
        lambda: robustness_sweep(CoinSchedule.constant(2), _origin(), uniform_target(2), [], 1, 0),
        "need at least one perturbation magnitude",
    ),
    "sweep of a nan magnitude": (
        lambda: robustness_sweep(
            CoinSchedule.constant(2), _origin(), uniform_target(2), [float("nan")], 1, 0
        ),
        "magnitudes must be finite, got [nan]",
    ),
    "sweep of an infinite magnitude": (
        lambda: robustness_sweep(
            CoinSchedule.constant(2), _origin(), uniform_target(2), [0.0, float("inf")], 1, 0
        ),
        "magnitudes must be finite, got [0.0, inf]",
    ),
    "sweep of a magnitude whose range overflows": (
        lambda: robustness_sweep(CoinSchedule.constant(2), _origin(), uniform_target(2), [1e308], 1, 0),
        "magnitude 1e+308 is too large: its noise range [-d, d] overflows",
    ),
    "sweep against a target of other steps": (
        lambda: robustness_sweep(CoinSchedule.constant(2), _origin(), uniform_target(3), [0.1], 1, 0),
        "distributions have different supports (2 vs 3 steps)",
    ),
    "gaussian of a nan mean": (
        lambda: gaussian_target(4, mu=float("nan")),
        "mu must be finite, got nan",
    ),
    "gaussian spec of an infinite mean": (
        lambda: target_from_spec("gaussian:inf,1", 4),
        "mu must be finite, got inf",
    ),
    "train on a 0-step target": (
        lambda: train(_origin(), Distribution(0, [1.0])),
        "training needs a target over at least one step",
    ),
    "gaussian of an infinite sigma": (
        lambda: gaussian_target(4, mu=0.0, sigma=float("inf")),
        "sigma must be positive and finite, got inf",
    ),
    "gaussian whose sigma squared underflows": (
        lambda: gaussian_target(4, mu=0.5, sigma=1e-200),  # off every site
        "gaussian mu=0.5, sigma=1e-200 gives no finite weight on a 4-step walk",
    ),
    "quantize at an infinite resolution": (
        lambda: quantize_ratio(0.5, float("inf")),
        "resolution must be positive and finite, got inf",
    ),
    "target whose sum overflows": (
        lambda: load_target("-2,1e308\n0,1e308\n2,0\n"),
        "probabilities sum to inf; expected 1 within 1e-06",
    ),
    "gaussian of zero steps": (
        lambda: gaussian_target(0),
        "a gaussian target needs at least one step, got 0",
    ),
    "gaussian spec without steps": (
        lambda: target_from_spec("gaussian:0,2", None),
        "a gaussian target needs the number of steps",
    ),
    "distribution of negative steps": (
        lambda: Distribution(-1, []),
        "steps must be non-negative, got -1",
    ),
    "counts of negative steps": (
        lambda: counts_by_position(np.array([0]), -1),
        "steps must be non-negative, got -1",
    ),
    "schedule of negative steps": (
        lambda: CoinSchedule(-1, []),
        "steps must be non-negative, got -1",
    ),
    "dense walk of a three-component coin vector": (
        lambda: dense_walk(CoinSchedule.constant(1), (1, 0, 0)),
        "coin vector must have two components, got shape (3,)",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_with_its_message(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
