"""Biased 1D discrete-time quantum walk: coins, evolution, measurement.

The walker lives on the integer lattice and carries a two-level coin with
basis states L and R.  One step applies a 2x2 coin at every occupied
position, then the conditional shift: the L component moves one site to the
left, the R component one site to the right.  Every coin is the real
rotation ``[[sqrt(r), sqrt(1 - r)], [sqrt(1 - r), -sqrt(r)]]`` of one bias
ratio ``r = cos^2(theta)`` (:func:`coin_from_ratio`); ``r = 0.5`` is Hadamard.

After ``t`` steps only the sites ``-t, -t+2, ..., t`` can be occupied.  A
state is slot-major: one float64 array of shape ``(t + 1, 2)`` per coin
component, a row of real and imaginary parts per site (the coins are real,
so the parts evolve independently).  The coin layer is four vectorized
multiply-adds with ``sqrt(r)`` and ``sqrt(1 - r)``; the shift appends a
zero row to L and prepends one to R.  Schedules and distributions are flat
float64 arrays.

The forward pass keeps every state of a walk in two such buffers, L and R,
of shape ``(slots, ..., 2)``, with any batch axes between a slot's row and
its real/imaginary pair.  The state before step ``t`` is then one
contiguous block of rows, and so are its coin factors, built once per pass
at shape ``(count, ..., 2)``.  Each step's ufuncs take operands of one
shape, which skip numpy's broadcasting machinery, and the shift is only
where their results land.  A stack of schedules (ratio arrays of shape
``(..., count)``) is walked at once, and every row evolves exactly as it
would alone.  :func:`_forward` also returns the pass's adjoint sweep, which
maps a cotangent ``v`` over one walk's probabilities to ``J^T v``.

:func:`_forward` dispatches on the container of its ratios.  An array takes
the array pass; a list is one walk for the float pass, which does the same
rows and float operations in the same order on Python lists and hands back
its probabilities and gradient as lists.  Both passes give the same bytes,
by the rules in :mod:`qwrng.training`'s docstring, whose trainer decides
which pass a walk takes.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

#: Structural tolerance: unitarity, norm conservation, internal identities.
NORM_TOL = 1e-12
#: Tolerance applied to user-supplied vectors that claim to be normalized.
INPUT_NORM_TOL = 1e-9
#: Tolerance on the total mass of a probability distribution.
DIST_SUM_TOL = 1e-9

#: Coin vectors selectable by name (the polarization dictionary used by the
#: command line): L and R are the coin basis states, the circular pair is the
#: balanced superposition with a +/- 90 degree relative phase.
NAMED_COIN_VECTORS: dict[str, tuple[complex, complex]] = {
    "L": (1.0 + 0.0j, 0.0 + 0.0j),
    "R": (0.0 + 0.0j, 1.0 + 0.0j),
    "circ-left": (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)),
    "circ-right": (1.0 / math.sqrt(2.0), -1.0j / math.sqrt(2.0)),
}


def coin_from_ratio(ratio: float) -> np.ndarray:
    """Return the real biased coin ``[[sr, sq], [sq, -sr]]``, ``sr = sqrt(ratio)`` and
    ``sq = sqrt(1 - ratio)``: ``[[cos, sin], [sin, -cos]]`` of theta at ``ratio = cos^2(theta)``.
    The ratio is the weight with which each coin component keeps its own label."""
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"coin bias ratio must lie in [0, 1], got {ratio}")
    sr = math.sqrt(ratio)
    sq = math.sqrt(1.0 - ratio)
    return np.array([[sr, sq], [sq, -sr]], dtype=np.complex128)


def _site_count(steps: int) -> int:
    """``steps + 1``: the sites reachable after ``steps`` steps from the origin."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return steps + 1


def support_positions(steps: int) -> list[int]:
    """Positions reachable after ``steps`` steps from the origin."""
    return list(range(-steps, _site_count(steps), 2))


def schedule_keys(steps: int) -> list[tuple[int, int]]:
    """All (step, position) pairs a schedule for ``steps`` steps must cover:
    step ``t`` (1-based) covers the sites reachable after ``t - 1`` steps."""
    return [(t, m) for t in range(1, steps + 1) for m in support_positions(t - 1)]


def _schedule_key(k: int) -> tuple[int, int]:
    """``schedule_keys(steps)[k]`` for every ``steps`` that has an entry ``k``, in O(1)."""
    t = (1 + math.isqrt(8 * k + 1)) // 2
    return t, 2 * k + 1 - t * t  # site -(t - 1) + 2j of step t's entry j = k - t(t - 1)/2


def _triangle(steps: int) -> int:
    """Entries of a ``steps``-step schedule; step ``t`` starts at ``_triangle(t - 1)``."""
    return steps * _site_count(steps) // 2


def _frozen_array(values: Iterable[float], count: int, what: str, hi: float):
    """Read-only float64 copy of ``values``, which must hold ``count`` entries,
    and the index of its first entry that is NaN or outside ``[0, hi]``."""
    arr = np.array(list(values) if isinstance(values, Iterator) else values, dtype=np.float64)
    if arr.shape != (count,):
        raise ValueError(f"expected {count} {what}, got {arr.size}")
    arr.flags.writeable = False
    bad = np.flatnonzero(~((arr >= 0.0) & (arr <= hi)))
    return arr, (int(bad[0]) if bad.size else None)


class CoinSchedule:
    """Trainable grid of ``n*(n+1)/2`` coin bias ratios, one per (step, position).

    ``ratios`` is a flat sequence in :func:`schedule_keys` order, held as the
    read-only float64 array ``values``; the ratios of step ``t`` start at
    offset ``t*(t-1)/2``.  ``.ratios`` is a read-only keyed view of it.
    """

    def __init__(self, steps: int, ratios: Iterable[float]) -> None:
        values, bad = _frozen_array(ratios, _triangle(steps), "ratios", 1.0)
        if bad is not None:
            key, r = _schedule_key(bad), float(values[bad])
            raise ValueError(f"ratio at (step, position) {key} is {r}, outside [0, 1]")
        self.steps, self.values = steps, values

    @classmethod
    def constant(cls, steps: int, ratio: float = 0.5) -> "CoinSchedule":
        """Schedule with every entry set to ``ratio``."""
        return cls(steps, np.full(_triangle(steps), ratio, dtype=np.float64))

    @classmethod
    def random(cls, steps: int, seed: int) -> "CoinSchedule":
        """Schedule with independent uniform ratios drawn from a seeded PRNG."""
        rng = np.random.default_rng(np.random.PCG64(seed))
        return cls(steps, rng.uniform(0.0, 1.0, _triangle(steps)))

    @cached_property
    def ratios(self) -> Mapping[tuple[int, int], float]:
        """Read-only view: (step, position) -> ratio."""
        return MappingProxyType(dict(zip(schedule_keys(self.steps), self.values.tolist())))

    def to_array(self) -> np.ndarray:
        """The ratios in :func:`schedule_keys` order (a writable copy)."""
        return self.values.copy()

    def with_array(self, values: Iterable[float]) -> "CoinSchedule":
        """New schedule with ratios replaced from a flat array (:func:`schedule_keys` order)."""
        return CoinSchedule(self.steps, values)

    def __repr__(self) -> str:
        return f"CoinSchedule(steps={self.steps}, ratios={self.values.tolist()!r})"


class WalkState:
    """Walker state after ``step`` steps: the slot-major arrays ``left`` and
    ``right``, each ``(step + 1, 2)``, one row of real and imaginary parts per
    site (after :func:`run_walk`, views of the walk's final rows).

    ``amplitudes`` maps occupied positions to complex ``(c_L, c_R)`` pairs
    (a read-only view).
    """

    def __init__(self, step: int, slots: tuple[np.ndarray, np.ndarray]) -> None:
        self.step, (self.left, self.right) = step, slots

    @cached_property
    def amplitudes(self) -> Mapping[int, np.ndarray]:
        parts = np.stack([self.left, self.right], axis=1)  # (site, L/R, re/im)
        pairs = zip(support_positions(self.step), parts[..., 0] + 1j * parts[..., 1])
        return MappingProxyType({m: pair for m, pair in pairs if pair.any()})

    def positions(self) -> list[int]:
        """Occupied positions, ascending."""
        return list(self.amplitudes)

    def norm(self) -> float:
        return math.sqrt(float(_probs(self.left, self.right).sum()))


def initial_state(coin_vector: Iterable[complex]) -> WalkState:
    """Walker at the origin with the given normalized coin vector.

    Raises ``ValueError`` if the vector is not unit length (within 1e-9);
    inputs are expected to be normalized by the caller, never silently
    rescaled.
    """
    vec = np.asarray(tuple(coin_vector), dtype=np.complex128)
    if vec.shape != (2,):
        raise ValueError(f"coin vector must have two components, got shape {vec.shape}")
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise ValueError("coin vector must be finite")
    with np.errstate(over="ignore"):  # a huge component squares to inf, which is rejected
        sq = float(np.abs(vec[0]) ** 2 + np.abs(vec[1]) ** 2)
    if abs(sq - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"coin vector is not normalized: |v|^2 = {sq!r}")
    left, right = vec.view(np.float64).reshape(2, 1, 2)  # (L/R, site, re/im)
    return WalkState(0, (left, right))


def _probs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-slot probability |c_L|^2 + |c_R|^2 of slot-major rows ``(..., 2)``."""
    # np.add.reduce, not np.sum, whose Python wrapper costs more per call
    return np.add.reduce(left * left, -1) + np.add.reduce(right * right, -1)


def _check_origin(initial: WalkState) -> None:
    if initial.step != 0 or initial.positions() != [0]:
        raise ValueError("the walk requires a step-0 state located at the origin")


def _forward(values: np.ndarray | list[float], steps: int, initial: WalkState):
    """Walk ratios from the origin; return the adjoint sweep of the pass that
    ran, for one unbatched walk, and the output probabilities.

    A list is one walk for the float pass, whose probabilities, cotangent and
    gradient are lists too; an array takes the array pass.
    """
    if isinstance(values, list):
        buffers, probs = _forward_floats(values, steps, initial)
        return partial(_gradient_floats, buffers), probs
    buffers, probs = _forward_rows(values, steps, initial)
    return partial(_gradient_rows, buffers), probs


def _forward_rows(values: np.ndarray, steps: int, initial: WalkState):
    """The array pass: walk ratio arrays from the origin; return
    ``(sqrt(r), sqrt(1-r), L, R)`` and the output probabilities.

    ``values`` has shape ``(..., count)``: leading axes are batch axes, one
    walk per flat ratio array, each bit-identical to its walk alone.  The
    buffers are slot-major: L and R have shape ``(slots, ..., 2)``, and the
    coin factors ``(count, ..., 2)``, each row repeated for the real and
    imaginary parts.  The state before step ``t`` fills the rows from that
    step's ratio offset, the final state those from ``count``, so step ``t``
    reads ``t`` rows and writes them ``t`` rows further on, R one row
    further still.  The probabilities have shape ``(..., steps + 1)``.
    """
    _check_origin(initial)
    *batch, count = values.shape
    coin = np.empty((2, count, *batch, 2))
    # ndarray.transpose, not np.moveaxis: a short walk's time is numpy's cost per call
    coin[0] = values.transpose(len(batch), *range(len(batch)))[..., None]
    np.subtract(1.0, coin[0], out=coin[1])
    a, b = np.sqrt(coin, out=coin)
    left, right = np.zeros((2, _triangle(steps + 1), *batch, 2))
    left[0], right[0] = initial.left[0], initial.right[0]
    start = 0
    for t in range(1, steps + 1):
        end = start + t
        sr, sq, l, r = a[start:end], b[start:end], left[start:end], right[start:end]
        # the coin's L output keeps its slot index, its R output moves up one
        np.add(sr * l, sq * r, out=left[end : end + t])
        np.subtract(sq * l, sr * r, out=right[end + 1 : end + t + 1])
        start = end
    probs = _probs(left[start:], right[start:])
    return (a, b, left, right), probs.transpose(*range(1, len(batch) + 1), 0)


def _forward_floats(ratios: list[float], steps: int, initial: WalkState):
    """The float pass: one walk, on Python floats in the array pass's row
    order; return ``(sqrt(r), sqrt(1-r), rows)`` and the output probabilities
    as a list.

    ``rows`` holds four lists of one float per slot: the real and imaginary
    parts of L, then those of R.  Each float comes from the array pass's
    operations in its order, and CPython rounds every operation on its own
    (it fuses no multiply-add), so the bytes are the array pass's.
    """
    _check_origin(initial)
    a, b = [math.sqrt(r) for r in ratios], [math.sqrt(1.0 - r) for r in ratios]
    slots = _triangle(steps + 1)
    lr, li, rr, ri = rows = [[0.0] * slots for _ in range(4)]
    (lr[0], li[0]), (rr[0], ri[0]) = initial.left.tolist()[0], initial.right.tolist()[0]
    start = 0
    for t in range(1, steps + 1):
        end = start + t
        for k in range(start, end):  # names in twos and threes: no tuple is built
            x, y, j = a[k], b[k], k + t
            p, q = lr[k], li[k]
            u, v = rr[k], ri[k]
            lr[j], li[j] = x * p + y * u, x * q + y * v
            rr[j + 1], ri[j + 1] = y * p - x * u, y * q - x * v
        start = end
    final = zip(lr[start:], li[start:], rr[start:], ri[start:])
    return (a, b, rows), [(p * p + q * q) + (u * u + v * v) for p, q, u, v in final]


@lru_cache(maxsize=8)
def _after_coin(steps: int) -> np.ndarray:
    """Rows ``k + t`` and ``slots + k + t + 1`` for entry ``k`` of step ``t``:
    where L and R, stacked ``(2 * slots, 2)``, hold the state after its coin."""
    steps_of = np.repeat(np.arange(1, steps + 1), np.arange(1, steps + 1))
    rows = np.arange(_triangle(steps)) + steps_of + [[0], [_triangle(steps + 1) + 1]]
    rows.flags.writeable = False
    return rows


def _gradient_rows(forward, cotangent: np.ndarray) -> np.ndarray:
    """The array pass's adjoint sweep over one unbatched walk: ``J^T v`` in
    schedule order for a ``cotangent`` ``v`` over its probabilities.  At r = 0
    (1) the unbounded slope of sqrt(r) (sqrt(1-r)) is replaced by 0, so a
    ratio clamped onto the boundary keeps a finite gradient.

    It runs the pass's steps backwards over slot-major adjoint buffers of the
    pass's shape ``(slots, 2)``, stacked in one array: each step back reads
    the rows the forward step wrote and applies the (symmetric) coin, as the
    forward step does.  The rows after every coin are then gathered once and
    the real and imaginary parts summed.
    """
    a, b, left, right = forward
    count, steps = len(a), cotangent.size - 1
    adj_l, adj_r = adj = np.zeros((2, *left.shape))
    np.multiply(2.0 * cotangent[:, None], (left[count:], right[count:]), out=adj[:, count:])
    end = count
    for t in range(steps, 0, -1):
        start = end - t
        sr, sq = a[start:end], b[start:end]
        l, r = adj_l[end : end + t], adj_r[end + 1 : end + t + 1]
        np.add(sr * l, sq * r, out=adj_l[start:end])
        np.subtract(sq * l, sr * r, out=adj_r[start:end])
        end = start
    # one take over L and R stacked, not two fancy-index gathers: half the calls
    lam_l, lam_r = adj.reshape(-1, 2).take(_after_coin(steps), 0)
    psi_l, psi_r = left[:count], right[:count]
    d_sr = np.divide(0.5, a[:, 0], out=np.zeros(count), where=a[:, 0] > 0.0)[:, None]
    d_sq = np.divide(-0.5, b[:, 0], out=np.zeros(count), where=b[:, 0] > 0.0)[:, None]
    parts = d_sr * (lam_l * psi_l - lam_r * psi_r) + d_sq * (lam_l * psi_r + lam_r * psi_l)
    return parts[:, 0] + parts[:, 1] + 0.0  # add.reduce's bytes: two -0.0 parts sum to +0.0


def _gradient_floats(forward, cotangent: list[float]) -> list[float]:
    """The float pass's adjoint sweep, lists in and out: :func:`_gradient_rows`'
    operations in its order, with the same slope of 0 at r = 0 and r = 1, and
    each ratio scored as soon as its step back has read the adjoint after its
    coin."""
    a, b, (lr, li, rr, ri) = forward
    count, steps = len(a), len(cotangent) - 1
    seeds, pad = [2.0 * c for c in cotangent], [0.0] * count
    adj_lr, adj_li, adj_rr, adj_ri = [
        pad + [c * x for c, x in zip(seeds, part[count:])] for part in (lr, li, rr, ri)
    ]
    grad, end = pad.copy(), count
    for t in range(steps, 0, -1):
        start = end - t
        for k in range(start, end):  # names in twos and threes, as in _forward_floats
            x, y, j = a[k], b[k], k + t
            l, m = adj_lr[j], adj_li[j]
            r, n = adj_rr[j + 1], adj_ri[j + 1]
            adj_lr[k], adj_li[k] = x * l + y * r, x * m + y * n
            adj_rr[k], adj_ri[k] = y * l - x * r, y * m - x * n
            p, s = lr[k], li[k]
            q, w = rr[k], ri[k]
            dx, dy = 0.5 / x if x > 0.0 else 0.0, -0.5 / y if y > 0.0 else 0.0
            real = dx * (l * p - r * q) + dy * (l * q + r * p)
            imag = dx * (m * s - n * w) + dy * (m * w + n * s)
            grad[k] = real + imag + 0.0  # the + 0.0 of _gradient_rows
        end = start
    return grad


def run_walk(initial: WalkState, schedule: CoinSchedule) -> WalkState:
    """Evolve an origin-start state through every step of a schedule."""
    (_, _, left, right), _ = _forward_rows(schedule.values, schedule.steps, initial)
    final = schedule.values.size
    return WalkState(schedule.steps, (left[final:], right[final:]))


class Distribution:
    """Probabilities over the full parity-correct grid ``-steps, ..., steps``;
    unreachable outcomes carry probability zero rather than being absent.

    ``probs`` is a flat sequence in site order (ascending position), held as
    the read-only float64 array ``values``.  ``.probs`` is a read-only view
    keyed by position.
    """

    def __init__(self, steps: int, probs: Iterable[float]) -> None:
        values, bad = _frozen_array(probs, _site_count(steps), "probabilities", 1.0 + NORM_TOL)
        if bad is not None:
            m, p = 2 * bad - steps, float(values[bad])
            raise ValueError(f"probability at position {m} is {p}, outside [0, 1]")
        total = float(values.sum())
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.steps, self.values = steps, values

    @cached_property
    def probs(self) -> Mapping[int, float]:
        """Read-only view: position -> probability."""
        return MappingProxyType(dict(zip(self.support(), self.values.tolist())))

    def support(self) -> list[int]:
        return support_positions(self.steps)

    def as_array(self) -> np.ndarray:
        """Probabilities ordered by ascending position (a writable copy)."""
        return self.values.copy()


def measure(state: WalkState) -> Distribution:
    """Collapse a state to outcome probabilities |c_L|^2 + |c_R|^2 per site."""
    return Distribution(state.step, _probs(state.left, state.right))
