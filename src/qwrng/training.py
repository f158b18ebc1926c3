"""Gradient-descent training of coin schedules toward a target distribution.

The loss is half the summed squared error between the measured and target
probabilities, so its gradient by the coin bias ratios is the adjoint sweep
that :func:`qwrng.walk._forward` returns, applied to the residual, output
minus target.

:func:`train` decides once how it holds the ratios.  Each iteration is one
forward pass with residual, loss, fidelity and stop check, then the sweep and
the update, clipped to [0, 1].  A walk of at most
:data:`FLOAT_PASS_MAX_STEPS` steps runs the whole iteration on Python floats,
where numpy's fixed cost per call would dominate: the ratios, probabilities,
residual and gradient stay lists, which :func:`qwrng.walk._forward` walks on
its float pass, and one schedule and one distribution are built at the end.
A longer walk runs it on flat arrays.  The golden jobs ``n13-float-pass`` and
``n14-array-pass`` pin the constant.  Both loops give the same bytes, because
the float code keeps three of numpy's behaviours:

- sums take ``np.add.reduce``'s pairwise order (:func:`_pairwise_sum`), not
  the sequential one, which differs from 8 terms on;
- squares are ``x * x``, as ``np.square`` rounds them; CPython's ``x ** 2``
  rounds some of them one ulp away;
- the clip keeps a ``-0.0`` ratio, as ``np.clip`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import CoinSchedule, Distribution, WalkState, _forward

#: Longest walk that :func:`train` runs on Python floats.
FLOAT_PASS_MAX_STEPS = 13


def _check_same_support(y, target: Distribution) -> None:
    if y.steps != target.steps:
        raise ValueError(
            f"distributions have different supports ({y.steps} vs {target.steps} steps)"
        )


def _mse(residual: np.ndarray) -> float:
    return 0.5 * float(np.add.reduce(np.square(residual)))


def _fidelity(y: np.ndarray, t: np.ndarray) -> np.ndarray | np.float64:
    return np.add.reduce(y * t, -1) / np.add.reduce(np.square(np.maximum(y, t)), -1)


def _pairwise_sum(terms: list[float]) -> float:
    """``np.add.reduce`` of at most 128 ``terms`` as a float64 array, bit for
    bit: numpy's pairwise sum, added to 0.0.  Below 8 terms it adds them in
    order; from 8 on it keeps 8 accumulators over strides of 8, combines them
    as a tree and adds the tail in order.  (Past 128 numpy splits the terms
    in two; the float loop sums at most ``FLOAT_PASS_MAX_STEPS + 1``.)"""
    n = len(terms)
    if n < 8:
        total = 0.0
        for x in terms:
            total += x
        return total
    r = terms[:8]
    for i in range(8, n - n % 8, 8):
        r = [x + y for x, y in zip(r, terms[i : i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in terms[n - n % 8 :]:
        total += x
    return 0.0 + total


def _score_rows(probs: np.ndarray, goal: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Residual, loss and fidelity of one walk's probabilities."""
    residual = probs - goal
    return residual, _mse(residual), float(_fidelity(probs, goal))


def _score_floats(probs: list[float], goal: list[float]) -> tuple[list[float], float, float]:
    """:func:`_score_rows` on Python floats, bit for bit: numpy's summation
    order from :func:`_pairwise_sum`, and squares as ``x * x``, since
    ``x ** 2`` can round one ulp away from ``np.square``."""
    residual = [p - g for p, g in zip(probs, goal)]
    overlap = _pairwise_sum([p * g for p, g in zip(probs, goal)])
    peak = _pairwise_sum([p * p if p >= g else g * g for p, g in zip(probs, goal)])
    return residual, 0.5 * _pairwise_sum([x * x for x in residual]), overlap / peak


def _descend_rows(ratios: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    return (ratios - eta * grad).clip(0.0, 1.0)


def _descend_floats(ratios: list[float], grad: list[float], eta: float) -> list[float]:
    """:func:`_descend_rows` on Python floats; the clip keeps a ``-0.0`` ratio,
    as ``np.clip`` does."""
    return [
        0.0 if (x := r - eta * g) < 0.0 else 1.0 if x > 1.0 else x for r, g in zip(ratios, grad)
    ]


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
    return CoinSchedule(schedule.steps, _descend_rows(schedule.values, grad, eta))


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
    steps = target.steps
    if start is None:
        start = CoinSchedule.constant(steps)
    _check_same_support(start, target)
    if steps <= FLOAT_PASS_MAX_STEPS:  # the float pass: every iteration stays on Python floats
        ratios, goal = start.values.tolist(), target.values.tolist()
        score, descend = _score_floats, _descend_floats
    else:
        ratios, goal, score, descend = start.values, target.values, _score_rows, _descend_rows
    trace: list[tuple[int, float, float]] = []
    k = 0
    while True:
        sweep, probs = _forward(ratios, steps, initial)
        residual, loss, fid = score(probs, goal)
        trace.append((k, loss, fid))
        converged = fid >= config.fidelity_goal or loss <= config.loss_tol
        if converged or k == config.max_iters:
            break
        ratios = descend(ratios, sweep(residual), config.eta)
        k += 1
    schedule, output = CoinSchedule(steps, ratios), Distribution(steps, probs)
    return TrainReport(trace, schedule, converged, output)
