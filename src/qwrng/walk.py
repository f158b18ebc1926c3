"""Biased 1D discrete-time quantum walk: coins, evolution, measurement.

The walker lives on the integer lattice and carries a two-level coin with
basis states L and R.  One step applies a 2x2 coin at every occupied
position, then the conditional shift: the L component moves one site to the
left, the R component one site to the right.  Coins are parameterized either
by a three-phase rotation (:func:`coin_matrix`) or by a single bias ratio
``r`` (:func:`coin_from_ratio`), where ``r = cos^2(theta)`` and ``r = 0.5``
gives the Hadamard coin.

After ``t`` steps only the sites ``-t, -t+2, ..., t`` can be occupied.  A
state holds one float64 slot array of shape ``(2, t + 1)`` per coin
component, real and imaginary rows (the coins are real, so the parts evolve
independently).  The coin layer is four vectorized multiply-adds with
``sqrt(r)`` and ``sqrt(1 - r)``; the shift appends a zero slot to L and
prepends one to R.  Schedules and distributions are flat float64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoinParams:
    """Parameters of the general three-phase coin rotation.

    ``theta`` is the mixing angle in ``[0, pi/2]``; ``diag_phase`` and
    ``offdiag_phase`` are the phases attached to the cosine (diagonal) and
    sine (off-diagonal) entries; ``global_phase`` multiplies the whole
    matrix.  The defaults reduce the coin to the single-parameter family
    used by the trainer: ``coin_matrix(CoinParams(theta))`` equals
    ``coin_from_ratio(cos(theta)**2)``.
    """

    theta: float
    diag_phase: float = -math.pi / 2.0
    offdiag_phase: float = -math.pi / 2.0
    global_phase: float = math.pi / 2.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi / 2.0):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        for name in ("diag_phase", "offdiag_phase", "global_phase"):
            object.__setattr__(self, name, getattr(self, name) % _TWO_PI)


def coin_matrix(params: CoinParams) -> np.ndarray:
    """Return the 2x2 unitary coin for the given rotation parameters.

    The matrix is ``g * [[d*c, o*s], [-conj(o)*s, conj(d)*c]]`` with
    ``c = cos(theta)``, ``s = sin(theta)`` and ``g, d, o`` the unit phases
    of ``global_phase``, ``diag_phase``, ``offdiag_phase``.
    """
    c = math.cos(params.theta)
    s = math.sin(params.theta)
    g = np.exp(1j * params.global_phase)
    d = np.exp(1j * params.diag_phase)
    o = np.exp(1j * params.offdiag_phase)
    return g * np.array(
        [[d * c, o * s], [-np.conj(o) * s, np.conj(d) * c]], dtype=np.complex128
    )


def coin_from_ratio(ratio: float) -> np.ndarray:
    """Return the real biased coin ``[[sr, sq], [sq, -sr]]``.

    ``sr = sqrt(ratio)`` and ``sq = sqrt(1 - ratio)``; the ratio is the
    weight with which each coin component keeps its own label.  Equal to
    ``coin_matrix(CoinParams(arccos(sqrt(ratio))))``.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"coin bias ratio must lie in [0, 1], got {ratio}")
    sr = math.sqrt(ratio)
    sq = math.sqrt(1.0 - ratio)
    return np.array([[sr, sq], [sq, -sr]], dtype=np.complex128)


def support_positions(steps: int) -> list[int]:
    """Positions reachable after ``steps`` steps from the origin."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    return list(range(-steps, steps + 1, 2))


def schedule_keys(steps: int) -> list[tuple[int, int]]:
    """All (step, position) pairs a schedule for ``steps`` steps must cover:
    step ``t`` (1-based) covers the sites reachable after ``t - 1`` steps."""
    return [(t, m) for t in range(1, steps + 1) for m in support_positions(t - 1)]


def _triangle(steps: int) -> int:
    """Entries of a ``steps``-step schedule; step ``t`` starts at ``_triangle(t - 1)``."""
    return steps * (steps + 1) // 2


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

    ``ratios`` is a mapping keyed by (step, position) or a flat sequence in
    sorted-key order, held as the read-only float64 array ``values``; the
    ratios of step ``t`` start at offset ``t*(t-1)/2``.
    """

    def __init__(self, steps: int, ratios: Mapping | Iterable[float]) -> None:
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if isinstance(ratios, Mapping):
            expected = schedule_keys(steps)
            keys, want = set(ratios), set(expected)
            if keys != want:
                missing, extra = sorted(want - keys), sorted(keys - want)
                raise ValueError(
                    f"schedule key set does not match a {steps}-step walk"
                    f" (missing {missing[:4]}{'...' if len(missing) > 4 else ''},"
                    f" unexpected {extra[:4]}{'...' if len(extra) > 4 else ''})"
                )
            ratios = [ratios[key] for key in expected]
        values, bad = _frozen_array(ratios, _triangle(steps), "ratios", 1.0)
        if bad is not None:
            key, r = schedule_keys(steps)[bad], float(values[bad])
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

    def step_ratios(self, step_index: int) -> dict[int, float]:
        """Ratios for one step, keyed by position."""
        return {m: self.ratios[(step_index, m)] for m in support_positions(step_index - 1)}

    def sorted_keys(self) -> list[tuple[int, int]]:
        return schedule_keys(self.steps)

    def to_array(self) -> np.ndarray:
        """Ratios flattened in sorted (step, position) order (a writable copy)."""
        return self.values.copy()

    def with_array(self, values: Iterable[float]) -> "CoinSchedule":
        """New schedule with ratios replaced from a flat array (sorted-key order)."""
        return CoinSchedule(self.steps, values)

    def __repr__(self) -> str:
        return f"CoinSchedule(steps={self.steps}, ratios={dict(self.ratios)!r})"


class WalkState:
    """Walker state after ``step`` steps: the slot arrays ``left`` and ``right``,
    each ``(2, step + 1)`` (real and imaginary rows, one column per site).

    ``amplitudes`` maps occupied positions to complex ``(c_L, c_R)`` pairs
    (a read-only view).
    """

    def __init__(self, step: int, slots: tuple[np.ndarray, np.ndarray]) -> None:
        self.step, (self.left, self.right) = step, slots

    @cached_property
    def amplitudes(self) -> Mapping[int, np.ndarray]:
        parts = np.stack([self.left, self.right], axis=-1)  # (re/im, site, L/R)
        pairs = zip(support_positions(self.step), parts[0] + 1j * parts[1])
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
    sq = float(np.abs(vec[0]) ** 2 + np.abs(vec[1]) ** 2)
    if abs(sq - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"coin vector is not normalized: |v|^2 = {sq!r}")
    parts = np.array([vec.real, vec.imag])  # (re/im, L/R)
    return WalkState(0, (parts[:, :1], parts[:, 1:]))


def _coin(sr: np.ndarray, sq: np.ndarray, left: np.ndarray, right: np.ndarray):
    """The biased coin ``[[sr, sq], [sq, -sr]]`` (its own transpose), slot by slot."""
    return sr * left + sq * right, sq * left - sr * right


def _probs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-slot probability |c_L|^2 + |c_R|^2."""
    return (left * left).sum(0) + (right * right).sum(0)


def _forward(values: np.ndarray, steps: int, initial: WalkState):
    """Walk a flat ratio array from the origin; return ``(sqrt(r), sqrt(1-r),
    L, R)`` and the output probabilities.  In the L and R buffers the state
    before step ``t`` sits at that step's ratio offset, the final state at
    offset ``values.size``."""
    if initial.step != 0 or initial.positions() != [0]:
        raise ValueError("the walk requires a step-0 state located at the origin")
    sr, sq = np.sqrt(values), np.sqrt(1.0 - values)
    size = _triangle(steps + 1)
    left, right = np.zeros((2, size)), np.zeros((2, size))
    left[:, :1], right[:, :1] = initial.left, initial.right
    start = 0
    for t in range(1, steps + 1):
        end = start + t
        # the coin's L output keeps its slot index, its R output moves up one
        left[:, end : end + t], right[:, end + 1 : end + t + 1] = _coin(
            sr[start:end], sq[start:end], left[:, start:end], right[:, start:end]
        )
        start = end
    return (sr, sq, left, right), _probs(left[:, start:], right[:, start:])


def run_walk(initial: WalkState, schedule: CoinSchedule) -> WalkState:
    """Evolve an origin-start state through every step of a schedule."""
    (_, _, left, right), _ = _forward(schedule.values, schedule.steps, initial)
    final = schedule.values.size
    return WalkState(schedule.steps, (left[:, final:], right[:, final:]))


class Distribution:
    """Probabilities over the full parity-correct grid ``-steps, ..., steps``;
    unreachable outcomes carry probability zero rather than being absent.

    ``probs`` is a mapping keyed by site or a flat sequence in site order,
    held as the read-only float64 array ``values``.
    """

    def __init__(self, steps: int, probs: Mapping[int, float] | Iterable[float]) -> None:
        sites = support_positions(steps)
        if isinstance(probs, Mapping):
            if set(probs) != set(sites):
                raise ValueError(
                    f"distribution support must be exactly {sites}, got {sorted(probs)}"
                )
            probs = [probs[m] for m in sites]
        values, bad = _frozen_array(probs, len(sites), "probabilities", 1.0 + NORM_TOL)
        if bad is not None:
            m, p = sites[bad], float(values[bad])
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

    @classmethod
    def from_array(cls, steps: int, values: Iterable[float]) -> "Distribution":
        return cls(steps, values)


def measure(state: WalkState) -> Distribution:
    """Collapse a state to outcome probabilities |c_L|^2 + |c_R|^2 per site."""
    return Distribution(state.step, _probs(state.left, state.right))
