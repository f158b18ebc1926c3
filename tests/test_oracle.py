import numpy as np
import pytest

from qwrng import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    initial_state,
    loss_gradient,
    measure,
    run_walk,
    uniform_target,
)
from qwrng.oracle import (
    MAX_DENSE_STEPS,
    dense_step_unitaries,
    dense_walk,
    fd_gradient,
)
from qwrng.walk import _forward

from util import golden_ratios, random_coin_vector, random_distribution, random_schedule


class TestDenseWalk:
    def test_agrees_with_sparse_evolution(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            sched = random_schedule(rng, n)
            v = random_coin_vector(rng)
            fast = measure(run_walk(initial_state(v), sched))
            dense = dense_walk(sched, v)
            assert max(abs(fast.probs[m] - dense.probs[m]) for m in fast.support()) <= 1e-12

    def test_ballistic_case(self):
        dense = dense_walk(CoinSchedule.constant(5, 1.0), (1.0, 0.0))
        assert abs(dense.probs[-5] - 1.0) <= 1e-12

    def test_step_operators_are_unitary(self):
        rng = np.random.default_rng(11)
        sched = random_schedule(rng, 4)
        total = np.eye(2 * (2 * 4 + 1), dtype=complex)
        for u in dense_step_unitaries(sched):
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12
            total = u @ total
        assert np.max(np.abs(total.conj().T @ total - np.eye(total.shape[0]))) <= 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError, match="at most"):
            dense_walk(CoinSchedule.constant(MAX_DENSE_STEPS + 1, 0.5), (1.0, 0.0))

    def test_hadamard_helper(self):
        d = dense_walk(CoinSchedule.constant(4, 0.5), (1.0, 0.0))
        assert abs(d.probs[-2] - 10 / 16) <= 1e-12


def _reference_probs(ratios, steps, coin_vector, exact=False):
    """Site probabilities, ascending, of a walk on a dict of 40-digit
    amplitudes: at every site the coin [[sqrt(r), sqrt(1-r)], [sqrt(1-r),
    -sqrt(r)]] from the exact ratio, then L moves one site left and R one
    site right.  Ratios (floats or mpmath numbers) come in step order,
    ascending position within a step; nothing from the package runs.  The
    probabilities are floats, or with ``exact`` 40-digit mpmath numbers."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        state, ratio = {0: [mpmath.mpc(c) for c in coin_vector]}, iter(ratios)
        for t in range(1, steps + 1):
            moved = {m: [mpmath.mpc(0), mpmath.mpc(0)] for m in range(-t, t + 1, 2)}
            for m in range(-(t - 1), t, 2):
                r = mpmath.mpf(next(ratio))
                a, b = mpmath.sqrt(r), mpmath.sqrt(1 - r)
                left, right = state[m]
                moved[m - 1][0] = a * left + b * right
                moved[m + 1][1] = b * left - a * right
            state = moved
        probs = [abs(left) ** 2 + abs(right) ** 2 for left, right in state.values()]
        return probs if exact else [float(p) for p in probs]


class TestReferenceWalk:
    """Past the dense oracle's cap, every site against a 40-digit walk."""

    @pytest.mark.parametrize("start", ["circ-left", "L"])
    @pytest.mark.parametrize("steps, as_list", [(13, True), (13, False), (40, False), (64, False)])
    def test_forward_matches_a_40_digit_walk(self, steps, as_list, start):
        vector, ratios = NAMED_COIN_VECTORS[start], golden_ratios(steps)
        reference = np.array(_reference_probs(ratios, steps, vector))
        assert abs(reference.sum() - 1.0) <= 1e-15
        values = ratios if as_list else np.array(ratios)  # a list takes the float pass
        probs = np.array(_forward(values, steps, initial_state(vector))[1])
        assert probs.shape == reference.shape
        assert np.max(np.abs(probs - reference)) <= 1e-15


class TestReferenceGradient:
    """The adjoint gradient past the dense oracle's cap, against a 40-digit
    central difference of the reference walk's loss."""

    @pytest.mark.parametrize("start", ["circ-left", "L"])
    def test_directional_gradient_matches_a_40_digit_difference(self, start):
        mpmath = pytest.importorskip("mpmath")
        steps = 64
        vector, ratios = NAMED_COIN_VECTORS[start], golden_ratios(steps)
        rng = np.random.default_rng(64)
        goal = rng.uniform(0.1, 1.0, steps + 1)
        goal /= goal.sum()
        # interior ratios only: at r = 0 or 1 a central difference leaves [0, 1]
        direction = rng.normal(size=len(ratios)) * np.array([0.0 < r < 1.0 for r in ratios])
        with mpmath.workdps(40):
            h = mpmath.mpf("1e-15")

            def loss(sign):
                moved = [mpmath.mpf(r) + sign * h * v for r, v in zip(ratios, direction.tolist())]
                probs = _reference_probs(moved, steps, vector, exact=True)
                return sum((p - mpmath.mpf(g)) ** 2 for p, g in zip(probs, goal)) / 2

            reference = float((loss(1) - loss(-1)) / (2 * h))
        schedule, target = CoinSchedule(steps, ratios), Distribution(steps, goal)
        grad = loss_gradient(schedule, initial_state(vector), target)
        assert abs(grad @ direction - reference) <= 1e-12 * abs(reference)


class TestFiniteDifferenceGradient:
    def test_single_step_closed_form(self):
        sched = CoinSchedule(1, [0.3])
        target = Distribution(1, [0.5, 0.5])
        grad = fd_gradient(sched, initial_state((1.0, 0.0)), target, h=1e-5)
        # the loss is quadratic in r here, so the value is accurate to O(h^2)
        assert abs(grad[0] - (-0.4)) <= 1e-8

    def test_zero_at_perfect_fit(self):
        rng = np.random.default_rng(12)
        sched = random_schedule(rng, 3, 0.2, 0.8)
        state = initial_state(random_coin_vector(rng))
        target = measure(run_walk(state, sched))
        grad = fd_gradient(sched, state, target, h=1e-5)
        assert np.max(np.abs(grad)) <= 1e-9

    def test_second_order_convergence(self):
        # halving h should quarter the deviation from the analytic gradient
        rng = np.random.default_rng(13)
        ratios = []
        for _ in range(20):
            sched = random_schedule(rng, 4, 0.2, 0.8)
            state = initial_state(random_coin_vector(rng))
            target = random_distribution(rng, 4)
            exact = loss_gradient(sched, state, target)
            errs = []
            for h in (1e-2, 5e-3):
                approx = fd_gradient(sched, state, target, h=h)
                errs.append(np.max(np.abs(exact - approx)))
            if errs[1] > 1e-12:
                ratios.append(errs[0] / errs[1])
        assert 3.0 <= float(np.median(ratios)) <= 5.0

    def test_boundary_ratios_use_one_sided_stencils(self):
        sched = CoinSchedule(2, [0.0, 1.0, 0.5])
        grad = fd_gradient(sched, initial_state((1.0, 0.0)), uniform_target(2), h=1e-4)
        assert all(np.isfinite(g) for g in grad)

    def test_step_size_validated(self):
        sched = CoinSchedule.constant(1, 0.5)
        target = uniform_target(1)
        with pytest.raises(ValueError, match="step size"):
            fd_gradient(sched, initial_state((1.0, 0.0)), target, h=0.0)
        with pytest.raises(ValueError, match="step size"):
            fd_gradient(sched, initial_state((1.0, 0.0)), target, h=0.4)

    @pytest.mark.parametrize("target_steps", [0, 1])
    def test_target_of_another_walk_length_rejected(self, target_steps):
        # a one-site target would broadcast against any walk's output
        target = Distribution(target_steps, [1.0] + [0.0] * target_steps)
        with pytest.raises(ValueError, match=f"target of {target_steps} steps for a 2-step walk"):
            fd_gradient(CoinSchedule.constant(2, 0.5), initial_state((1.0, 0.0)), target)
