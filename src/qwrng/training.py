"""Gradient-descent training of coin schedules toward a target distribution.

The loss is half the summed squared error between the measured and target
probabilities.  Its exact gradient with respect to every coin bias ratio
comes from one reverse (adjoint) sweep through the coin/shift layers: the
evolution is linear with real coefficients, so the real and imaginary parts
of the amplitudes backpropagate through the transposed layers independently.

:func:`train` keeps the ratios as one flat array: each iteration is one
forward pass keeping every state, loss, fidelity and stop check, then one
adjoint sweep over the kept states and the update, clipped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .walk import CoinSchedule, Distribution, WalkState, _coin, _forward


def _check_same_support(y, target: Distribution) -> None:
    if y.steps != target.steps:
        raise ValueError(
            f"distributions have different supports ({y.steps} vs {target.steps} steps)"
        )


def _mse(p: np.ndarray, t: np.ndarray) -> float:
    return 0.5 * float(np.sum((t - p) ** 2))


def _fidelity(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.sum(y * t)) / float(np.sum(np.maximum(y, t) ** 2))


def mse_loss(output: Distribution, target: Distribution) -> float:
    """Half the summed squared probability error; zero iff the two agree."""
    _check_same_support(output, target)
    return _mse(output.values, target.values)


def fidelity(y: Distribution, target: Distribution) -> float:
    """Similarity score sum(y*T) / sum(max(y, T)^2), in [0, 1].

    Equals 1 exactly when the distributions are identical and 0 when their
    masses never overlap.  Symmetric in its arguments.
    """
    _check_same_support(y, target)
    return _fidelity(y.values, target.values)


def _gradient(forward, residual: np.ndarray) -> np.ndarray:
    """Adjoint sweep over a forward pass: d(loss)/d(ratio) in sorted-key order.

    ``residual`` is output minus target probability.  Each step back undoes
    the shift and applies the (symmetric) coin.  At r = 0 (1) the unbounded
    slope of sqrt(r) (sqrt(1-r)) is replaced by 0, so a ratio clamped onto
    the boundary keeps a finite gradient.
    """
    sr, sq, left, right = forward
    count, steps = sr.size, residual.size - 1
    adj_l, adj_r = np.zeros_like(left), np.zeros_like(right)
    adj_l[:, count:] = 2.0 * residual * left[:, count:]
    adj_r[:, count:] = 2.0 * residual * right[:, count:]
    end = count
    for t in range(steps, 0, -1):
        start = end - t
        adj_l[:, start:end], adj_r[:, start:end] = _coin(
            sr[start:end], sq[start:end], adj_l[:, end : end + t], adj_r[:, end + 1 : end + t + 1]
        )
        end = start
    # the adjoint after the coin of entry k of step t sits at k + t (L), k + t + 1 (R)
    after = np.arange(count) + np.repeat(np.arange(1, steps + 1), np.arange(1, steps + 1))
    lam_l, lam_r = adj_l[:, after], adj_r[:, after + 1]
    psi_l, psi_r = left[:, :count], right[:, :count]
    d_sr = np.divide(0.5, sr, out=np.zeros_like(sr), where=sr > 0.0)
    d_sq = np.divide(-0.5, sq, out=np.zeros_like(sq), where=sq > 0.0)
    return (d_sr * (lam_l * psi_l - lam_r * psi_r) + d_sq * (lam_l * psi_r + lam_r * psi_l)).sum(0)


def loss_gradient(
    schedule: CoinSchedule, initial: WalkState, target: Distribution
) -> dict[tuple[int, int], float]:
    """Exact partial derivatives of the loss for every schedule entry."""
    _check_same_support(schedule, target)
    forward, probs = _forward(schedule.values, schedule.steps, initial)
    return dict(zip(schedule.sorted_keys(), _gradient(forward, probs - target.values).tolist()))


def apply_update(
    schedule: CoinSchedule,
    grad: Mapping[tuple[int, int], float],
    eta: float,
) -> CoinSchedule:
    """Descend one step: r <- r - eta * grad, clipped to [0, 1]."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"learning rate must lie in (0, 1], got {eta}")
    if set(grad) != set(schedule.ratios):
        raise ValueError("gradient key set does not match the schedule")
    g = np.array([grad[key] for key in schedule.sorted_keys()], dtype=np.float64)
    return schedule.with_array(np.clip(schedule.values - eta * g, 0.0, 1.0))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run.

    The schedule starts from a constant grid at ``init_ratio`` unless
    ``init_seed`` is set, in which case every entry is drawn uniformly from
    [0, 1) with that seed.  Training stops as soon as the fidelity reaches
    ``fidelity_goal`` or the loss falls to ``loss_tol``, and gives up after
    ``max_iters`` updates.
    """

    eta: float = 0.1
    max_iters: int = 500
    fidelity_goal: float = 0.999
    loss_tol: float = 1e-8
    init_ratio: float = 0.5
    init_seed: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"learning rate must lie in (0, 1], got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not (0.0 < self.fidelity_goal <= 1.0):
            raise ValueError(f"fidelity goal must lie in (0, 1], got {self.fidelity_goal}")
        if self.loss_tol < 0.0:
            raise ValueError(f"loss tolerance must be non-negative, got {self.loss_tol}")
        if not (0.0 <= self.init_ratio <= 1.0):
            raise ValueError(f"init ratio must lie in [0, 1], got {self.init_ratio}")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of a training run.

    ``iterations`` holds one (index, loss, fidelity) triple per evaluated
    schedule, starting with the initial one at index 0; index k describes
    the schedule after k updates.  ``converged`` records whether a stopping
    goal was met before the iteration budget ran out; ``output`` is the
    distribution produced by ``final_schedule``.
    """

    iterations: list[tuple[int, float, float]]
    final_schedule: CoinSchedule
    converged: bool
    output: Distribution

    @property
    def final_fidelity(self) -> float:
        return self.iterations[-1][2]


def _initial_schedule(steps: int, config: TrainConfig) -> CoinSchedule:
    if config.init_seed is not None:
        return CoinSchedule.random(steps, config.init_seed)
    return CoinSchedule.constant(steps, config.init_ratio)


def train(
    initial: WalkState, target: Distribution, config: TrainConfig = TrainConfig()
) -> TrainReport:
    """Fit a coin schedule so the walk's output matches the target.

    Plain gradient descent on the bias ratios; fully deterministic for a
    given configuration (including the init seed).  Running out of
    iterations is not an error: the report comes back with
    ``converged=False`` and the complete trace.
    """
    if target.steps < 1:
        raise ValueError("training needs a target over at least one step")
    steps, goal = target.steps, target.values
    ratios = _initial_schedule(steps, config).values
    trace: list[tuple[int, float, float]] = []
    k = 0
    while True:
        forward, probs = _forward(ratios, steps, initial)
        loss, fid = _mse(probs, goal), _fidelity(probs, goal)
        trace.append((k, loss, fid))
        converged = fid >= config.fidelity_goal or loss <= config.loss_tol
        if converged or k == config.max_iters:
            break
        step = config.eta * _gradient(forward, probs - goal)
        ratios = np.clip(ratios - step, 0.0, 1.0)
        k += 1
    schedule, output = CoinSchedule(steps, ratios), Distribution(steps, probs)
    return TrainReport(trace, schedule, converged, output)


def train_multi_start(
    initial: WalkState,
    target: Distribution,
    config: TrainConfig,
    seeds: Sequence[int],
) -> TrainReport:
    """Run one seeded-random training per seed and keep the best report.

    Selection is by final fidelity; ties go to the earliest seed in sorted
    order, so the result does not depend on evaluation order.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    best: TrainReport | None = None
    for seed in sorted(set(int(s) for s in seeds)):
        report = train(initial, target, replace(config, init_seed=seed))
        if best is None or report.final_fidelity > best.final_fidelity:
            best = report
    assert best is not None
    return best
