import math

import numpy as np
import pytest

import qwrng
from qwrng import (
    CoinSchedule,
    Distribution,
    TrainConfig,
    apply_update,
    fidelity,
    initial_state,
    loss_gradient,
    measure,
    mse_loss,
    run_walk,
    train,
    uniform_target,
)
from qwrng.oracle import fd_gradient

from util import first_iteration_reaching, random_coin_vector, random_distribution, random_schedule


def _dist(steps, values):
    return Distribution(steps, values)


class TestLoss:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        d = random_distribution(rng, 4)
        assert mse_loss(d, d) == 0.0

    def test_one_step_example(self):
        out = _dist(1, [1.0, 0.0])
        target = _dist(1, [0.5, 0.5])
        assert abs(mse_loss(out, target) - 0.25) <= 1e-15

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            mse_loss(_dist(1, [1.0, 0.0]), _dist(2, [0.5, 0.25, 0.25]))


class TestFidelity:
    def test_identical_distributions_score_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = random_distribution(rng, int(rng.integers(1, 7)))
            assert fidelity(d, d) == 1.0

    def test_disjoint_mass_scores_zero(self):
        assert fidelity(_dist(1, [1.0, 0.0]), _dist(1, [0.0, 1.0])) == 0.0

    def test_half_overlap_value(self):
        assert abs(fidelity(_dist(1, [0.5, 0.5]), _dist(1, [1.0, 0.0])) - 0.4) <= 1e-12

    def test_bounds_symmetry_and_equality_detection(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            y = random_distribution(rng, n)
            t = random_distribution(rng, n)
            f = fidelity(y, t)
            assert 0.0 <= f <= 1.0
            assert abs(f - fidelity(t, y)) <= 1e-12
            if f == 1.0:
                assert np.max(np.abs(y.as_array() - t.as_array())) <= 1e-12

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            fidelity(_dist(1, [0.5, 0.5]), _dist(3, [0.25] * 4))


class TestGradient:
    def test_single_step_closed_form(self):
        # one step from pure L: P(-1) = r, P(+1) = 1 - r, so the loss slope
        # against a 50/50 target at r = 0.3 is -0.4
        sched = CoinSchedule(1, [0.3])
        grad = loss_gradient(sched, initial_state((1.0, 0.0)), _dist(1, [0.5, 0.5]))
        assert abs(grad[0] - (-0.4)) <= 1e-12

    def test_zero_at_perfect_fit(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sched = random_schedule(rng, 4, 0.1, 0.9)
            state = initial_state(random_coin_vector(rng))
            target = measure(run_walk(state, sched))
            grad = loss_gradient(sched, state, target)
            assert np.max(np.abs(grad)) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(30):
            sched = random_schedule(rng, 4, 0.05, 0.95)
            state = initial_state(random_coin_vector(rng))
            target = random_distribution(rng, 4)
            analytic = loss_gradient(sched, state, target)
            numeric = fd_gradient(sched, state, target, h=1e-5)
            worst = max(worst, np.max(np.abs(analytic - numeric)))
        assert worst <= 1e-6

    def test_key_set_matches_schedule(self):
        rng = np.random.default_rng(5)
        sched = random_schedule(rng, 5)
        grad = loss_gradient(sched, initial_state((1.0, 0.0)), uniform_target(5))
        assert grad.shape == sched.values.shape and grad.dtype == np.float64
        assert all(math.isfinite(g) for g in grad)

    def test_negative_gradient_is_descent_direction(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(20):
            sched = random_schedule(rng, 4, 0.1, 0.9)
            state = initial_state(random_coin_vector(rng))
            target = random_distribution(rng, 4)
            g = loss_gradient(sched, state, target)
            norm = np.linalg.norm(g)
            if norm == 0.0:
                continue
            d = -g / norm
            base = sched.to_array()
            lp = mse_loss(measure(run_walk(state, sched.with_array(base + h * d))), target)
            lm = mse_loss(measure(run_walk(state, sched.with_array(base - h * d))), target)
            assert (lp - lm) / (2 * h) < 0.0

    def test_finite_at_boundary_ratios(self):
        sched = CoinSchedule(2, [0.0, 1.0, 0.5])
        grad = loss_gradient(sched, initial_state((1.0, 0.0)), uniform_target(2))
        assert all(math.isfinite(g) for g in grad)


class TestApplyUpdate:
    def test_plain_step(self):
        sched = CoinSchedule(1, [0.3])
        out = apply_update(sched, np.array([-0.4]), eta=0.1)
        assert abs(out.ratios[(1, 0)] - 0.34) <= 1e-15

    def test_clamps_to_unit_interval(self):
        sched = CoinSchedule(1, [0.99])
        out = apply_update(sched, np.array([-0.5]), eta=0.1)  # raw step +0.05
        assert out.ratios[(1, 0)] == 1.0

    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(7)
        sched = random_schedule(rng, 3)
        out = apply_update(sched, np.zeros(sched.values.size), eta=0.7)
        assert out.ratios == sched.ratios

    def test_key_mismatch_rejected(self):
        sched = CoinSchedule.constant(2, 0.5)
        with pytest.raises(ValueError, match="gradient has shape"):
            apply_update(sched, np.array([0.1]), eta=0.1)

    def test_eta_range_enforced(self):
        sched = CoinSchedule.constant(1, 0.5)
        grad = np.zeros(1)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="learning rate"):
                apply_update(sched, grad, eta=bad)


class TestTrainConfig:
    def test_learning_rate_validated(self):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(eta=1.5)
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(eta=0.0)

    def test_other_fields_validated(self):
        with pytest.raises(ValueError, match="max_iters"):
            TrainConfig(max_iters=0)
        with pytest.raises(ValueError, match="fidelity goal"):
            TrainConfig(fidelity_goal=0.0)
        with pytest.raises(ValueError, match="loss tolerance"):
            TrainConfig(loss_tol=-1.0)


class TestTrain:
    def test_uniform_target_converges(self, trained_uniform, uniform4):
        assert trained_uniform.converged
        assert trained_uniform.final_fidelity >= 0.999
        # the report's output is exactly the final schedule's distribution
        sim = measure(
            run_walk(
                initial_state(qwrng.NAMED_COIN_VECTORS["circ-left"]),
                trained_uniform.final_schedule,
            )
        )
        assert sim.probs == trained_uniform.output.probs
        assert fidelity(sim, uniform4) >= 0.999

    def test_gaussian_target_reaches_high_fidelity(self, trained_gaussian):
        assert first_iteration_reaching(trained_gaussian, 0.95) is not None
        assert trained_gaussian.final_fidelity >= 0.99

    def test_point_target_drives_ballistic_path(self):
        # all mass at the far left: the coins along the leftmost path must
        # saturate; coins that no amplitude reaches stay unconstrained
        state = initial_state((1.0, 0.0))
        target = Distribution(4, [1.0, 0.0, 0.0, 0.0, 0.0])
        report = train(state, target)
        assert report.converged
        assert report.final_fidelity >= 0.999
        path = [(1, 0), (2, -1), (3, -2), (4, -3)]
        assert min(report.final_schedule.ratios[k] for k in path) >= 0.99
        assert report.output.probs[-4] >= 0.999

    def test_trace_shape_and_monotone_loss(self, trained_uniform):
        ks = [k for k, _, _ in trained_uniform.iterations]
        assert ks == list(range(len(ks)))
        losses = [l for _, l, _ in trained_uniform.iterations]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        fids = [f for _, _, f in trained_uniform.iterations]
        assert all(0.0 <= f <= 1.0 for f in fids)
        assert all(l >= 0.0 for l in losses)

    def test_deterministic_given_config(self, circ_left, uniform4):
        cfg = TrainConfig(max_iters=40, fidelity_goal=1.0)
        a = train(circ_left, uniform4, cfg)
        b = train(circ_left, uniform4, cfg)
        assert a.iterations == b.iterations
        assert a.final_schedule.ratios == b.final_schedule.ratios

    def test_seeded_random_init_deterministic(self, circ_left, uniform4):
        cfg = TrainConfig(max_iters=25, fidelity_goal=1.0)
        a = train(circ_left, uniform4, cfg, CoinSchedule.random(4, 99))
        b = train(circ_left, uniform4, cfg, CoinSchedule.random(4, 99))
        assert a.iterations == b.iterations
        assert a.iterations[0] != train(circ_left, uniform4, cfg).iterations[0]

    def test_default_start_is_the_constant_half_grid(self, circ_left, uniform4):
        cfg = TrainConfig(max_iters=5)
        a = train(circ_left, uniform4, cfg)
        b = train(circ_left, uniform4, cfg, CoinSchedule.constant(4, 0.5))
        assert a.iterations == b.iterations

    def test_start_of_another_walk_length_rejected(self, circ_left, uniform4):
        with pytest.raises(ValueError, match=r"different supports \(3 vs 4 steps\)"):
            train(circ_left, uniform4, start=CoinSchedule.constant(3))

    def test_non_convergence_reports_instead_of_raising(self, circ_left, uniform4):
        report = train(circ_left, uniform4, TrainConfig(max_iters=3))
        assert not report.converged
        assert len(report.iterations) == 4
        assert report.final_schedule.steps == 4

    def test_every_iterate_is_a_valid_schedule(self, circ_left, uniform4):
        # walk the loop manually and let the schedule validator see each step
        sched = CoinSchedule.constant(4, 0.5)
        for _ in range(50):
            grad = loss_gradient(sched, circ_left, uniform4)
            sched = apply_update(sched, grad, eta=0.1)
            assert all(0.0 <= r <= 1.0 for r in sched.ratios.values())
            assert set(sched.ratios) == set(CoinSchedule.constant(4).ratios)

    def test_immediate_goal_stops_at_iteration_zero(self, circ_left, uniform4):
        report = train(circ_left, uniform4, TrainConfig(fidelity_goal=0.1))
        assert report.converged
        assert len(report.iterations) == 1

