"""Gradient-descent training of coin schedules toward a target distribution.

The loss is half the summed squared error between the measured and target
probabilities, so its gradient by the coin bias ratios is the adjoint sweep
that :func:`qwrng.walk._forward` returns, applied to the residual, output
minus target.

:func:`train` keeps the ratios as one flat array: each iteration is one
forward pass with loss, fidelity and stop check, then the sweep and the
update, clipped to [0, 1].  The residual is formed once per iteration, for
the loss and the sweep.  A walk of at most
:data:`qwrng.walk.FLOAT_PASS_MAX_STEPS` steps runs its pass and sweep on
Python floats, where numpy's fixed cost per call would dominate, and a
longer one on arrays; both give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import CoinSchedule, Distribution, WalkState, _forward


def _check_same_support(y, target: Distribution) -> None:
    if y.steps != target.steps:
        raise ValueError(
            f"distributions have different supports ({y.steps} vs {target.steps} steps)"
        )


def _mse(residual: np.ndarray) -> float:
    return 0.5 * float(np.add.reduce(np.square(residual)))


def _fidelity(y: np.ndarray, t: np.ndarray) -> np.ndarray | np.float64:
    return np.add.reduce(y * t, -1) / np.add.reduce(np.square(np.maximum(y, t)), -1)


def mse_loss(output: Distribution, target: Distribution) -> float:
    """Half the summed squared probability error; zero iff the two agree."""
    _check_same_support(output, target)
    return _mse(output.values - target.values)


def fidelity(y: Distribution, target: Distribution) -> float:
    """Similarity score sum(y*T) / sum(max(y, T)^2), in [0, 1].

    Equals 1 exactly when the distributions are identical and 0 when their
    masses never overlap.  Symmetric in its arguments.
    """
    _check_same_support(y, target)
    return float(_fidelity(y.values, target.values))


def loss_gradient(schedule: CoinSchedule, initial: WalkState, target: Distribution) -> np.ndarray:
    """Exact partial derivatives of the loss, one per ratio in schedule order."""
    _check_same_support(schedule, target)
    sweep, probs = _forward(schedule.values, schedule.steps, initial)
    return sweep(probs - target.values)


def apply_update(schedule: CoinSchedule, grad: np.ndarray, eta: float) -> CoinSchedule:
    """Descend one step: r <- r - eta * grad, clipped to [0, 1]."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"learning rate must lie in (0, 1], got {eta}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != schedule.values.shape:
        raise ValueError(f"gradient has shape {grad.shape}, expected {schedule.values.shape}")
    return CoinSchedule(schedule.steps, np.clip(schedule.values - eta * grad, 0.0, 1.0))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run.

    Training stops as soon as the fidelity reaches ``fidelity_goal`` or the
    loss falls to ``loss_tol``, and gives up after ``max_iters`` updates.
    """

    eta: float = 0.1
    max_iters: int = 500
    fidelity_goal: float = 0.999
    loss_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"learning rate must lie in (0, 1], got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not (0.0 < self.fidelity_goal <= 1.0):
            raise ValueError(f"fidelity goal must lie in (0, 1], got {self.fidelity_goal}")
        if self.loss_tol < 0.0:
            raise ValueError(f"loss tolerance must be non-negative, got {self.loss_tol}")


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


def train(
    initial: WalkState,
    target: Distribution,
    config: TrainConfig = TrainConfig(),
    start: CoinSchedule | None = None,
) -> TrainReport:
    """Fit a coin schedule so the walk's output matches the target.

    Plain gradient descent on the bias ratios from ``start``, by default the
    constant-0.5 grid; fully deterministic for a given start and
    configuration.  Running out of iterations is not an error: the report
    comes back with ``converged=False`` and the complete trace.
    """
    if target.steps < 1:
        raise ValueError("training needs a target over at least one step")
    steps, goal = target.steps, target.values
    if start is None:
        start = CoinSchedule.constant(steps)
    _check_same_support(start, target)
    ratios = start.values
    trace: list[tuple[int, float, float]] = []
    k = 0
    while True:
        sweep, probs = _forward(ratios, steps, initial)
        residual = probs - goal
        loss, fid = _mse(residual), float(_fidelity(probs, goal))
        trace.append((k, loss, fid))
        converged = fid >= config.fidelity_goal or loss <= config.loss_tol
        if converged or k == config.max_iters:
            break
        step = config.eta * sweep(residual)
        ratios = (ratios - step).clip(0.0, 1.0)
        k += 1
    schedule, output = CoinSchedule(steps, ratios), Distribution(steps, probs)
    return TrainReport(trace, schedule, converged, output)
