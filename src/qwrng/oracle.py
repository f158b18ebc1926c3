"""Brute-force reference implementations used to cross-check the fast paths.

Everything here trades efficiency for obviousness: the walk is evolved by
explicit dense matrix products over the full position x coin basis, and the
loss gradient is recomputed from central finite differences.  Tests compare
the production code against these, never the other way around.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .walk import (
    CoinSchedule,
    Distribution,
    WalkState,
    coin_from_ratio,
    measure,
    run_walk,
    support_positions,
)

#: Largest walk length the dense oracle accepts (basis size 2*(2n+1)).
MAX_DENSE_STEPS = 10


def _check_steps(steps: int) -> None:
    if steps > MAX_DENSE_STEPS:
        raise ValueError(f"dense oracle supports at most {MAX_DENSE_STEPS} steps, got {steps}")


def _index(x: int, coin: int, steps: int) -> int:
    # basis order: |x=-n,L>, |x=-n,R>, |x=-n+1,L>, ...
    return 2 * (x + steps) + coin


def dense_shift(steps: int) -> np.ndarray:
    """Permutation matrix moving L one site left and R one site right.

    Wraps cyclically at the ends of the truncated lattice so the matrix
    stays a permutation (hence unitary); an n-step walk from the origin
    never reaches the wrap-around transitions.
    """
    dim = 2 * (2 * steps + 1)
    s = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(-steps, steps + 1):
        left = x - 1 if x - 1 >= -steps else steps
        right = x + 1 if x + 1 <= steps else -steps
        s[_index(left, 0, steps), _index(x, 0, steps)] = 1.0
        s[_index(right, 1, steps), _index(x, 1, steps)] = 1.0
    return s


def dense_coin_layer(schedule: CoinSchedule, step_index: int) -> np.ndarray:
    """Block-diagonal coin matrix for one step; identity off the walk cone."""
    n = schedule.steps
    dim = 2 * (2 * n + 1)
    c = np.eye(dim, dtype=np.complex128)
    for m in support_positions(step_index - 1):
        i = _index(m, 0, n)
        c[i : i + 2, i : i + 2] = coin_from_ratio(schedule.ratios[(step_index, m)])
    return c


def dense_step_unitaries(schedule: CoinSchedule) -> list[np.ndarray]:
    """The full one-step operators shift @ coin, one per step."""
    _check_steps(schedule.steps)
    shift = dense_shift(schedule.steps)
    return [shift @ dense_coin_layer(schedule, t) for t in range(1, schedule.steps + 1)]


def dense_walk(schedule: CoinSchedule, coin_vector: Iterable[complex]) -> Distribution:
    """Evolve by explicit matrix products and measure.

    The initial coin vector sits at the origin; the result must agree with
    the sparse evolution to within the structural tolerance.
    """
    _check_steps(schedule.steps)
    n = schedule.steps
    vec = np.asarray(tuple(coin_vector), dtype=np.complex128)
    if vec.shape != (2,):
        raise ValueError(f"coin vector must have two components, got shape {vec.shape}")
    dim = 2 * (2 * n + 1)
    state = np.zeros(dim, dtype=np.complex128)
    state[_index(0, 0, n)] = vec[0]
    state[_index(0, 1, n)] = vec[1]
    for u in dense_step_unitaries(schedule):
        state = u @ state
    probs = [
        float(abs(state[_index(x, 0, n)]) ** 2 + abs(state[_index(x, 1, n)]) ** 2)
        for x in range(-n, n + 1)
    ]
    off_support = sum(probs[1::2])  # the sites of the wrong parity, -n + 1, -n + 3, ...
    if off_support > 1e-12:
        raise AssertionError(f"dense walk leaked {off_support} probability off the parity grid")
    return Distribution(n, probs[::2])


def _loss_at(
    schedule: CoinSchedule,
    k: int,
    value: float,
    initial: WalkState,
    target: Distribution,
) -> float:
    values = schedule.to_array()
    values[k] = value
    probs = measure(run_walk(initial, CoinSchedule(schedule.steps, values))).values
    return 0.5 * float(np.sum((probs - target.values) ** 2))  # train's loss, written out here


def fd_gradient(
    schedule: CoinSchedule,
    initial: WalkState,
    target: Distribution,
    h: float = 1e-5,
) -> np.ndarray:
    """Finite-difference loss gradient, entry by entry, in schedule order.

    Central differences in the interior; where a ratio sits within ``h`` of
    0 or 1 a second-order one-sided formula keeps every evaluation inside
    the valid range.
    """
    # 1/3 keeps the one-sided stencils (which reach 2h past a boundary
    # ratio) inside the valid range
    if not (0.0 < h <= 1.0 / 3.0):
        raise ValueError(f"step size must lie in (0, 1/3], got {h}")
    if target.steps != schedule.steps:  # a one-site target would broadcast
        raise ValueError(f"target of {target.steps} steps for a {schedule.steps}-step walk")
    grad = np.empty(schedule.values.size)
    for k, r in enumerate(schedule.values.tolist()):
        if r < h:  # forward: (-3f(r) + 4f(r+h) - f(r+2h)) / 2h
            f0 = _loss_at(schedule, k, r, initial, target)
            f1 = _loss_at(schedule, k, r + h, initial, target)
            f2 = _loss_at(schedule, k, r + 2 * h, initial, target)
            grad[k] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        elif r > 1.0 - h:  # backward mirror of the above
            f0 = _loss_at(schedule, k, r, initial, target)
            f1 = _loss_at(schedule, k, r - h, initial, target)
            f2 = _loss_at(schedule, k, r - 2 * h, initial, target)
            grad[k] = (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
        else:
            fp = _loss_at(schedule, k, r + h, initial, target)
            fm = _loss_at(schedule, k, r - h, initial, target)
            grad[k] = (fp - fm) / (2.0 * h)
    return grad
