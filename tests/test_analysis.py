import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qwrng
from qwrng import analysis
from qwrng import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    chi_square_p_value,
    chi_square_test,
    entropy_report,
    fidelity,
    initial_state,
    measure,
    quantize_ratio,
    quantize_schedule,
    robustness_sweep,
    run_walk,
    uniform_target,
)
from qwrng.analysis import _BATCH_SLOTS

from util import PROPERTY, random_coin_vector, random_schedule


class TestChiSquarePValue:
    def test_textbook_point(self):
        # the classic 5%-tail statistic for four degrees of freedom
        assert abs(chi_square_p_value(9.488, 4) - 0.050) <= 1e-3

    def test_one_percent_critical_value(self):
        assert abs(chi_square_p_value(13.276704135987622, 4) - 0.01) <= 1e-6

    def test_matches_independent_gamma_evaluation(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for dof in (1, 2, 4, 7, 12):
            for stat in (0.0, 0.5, 3.3, 9.488, 25.0, 60.0):
                ref = float(mp.gammainc(dof / 2, stat / 2, mp.inf, regularized=True))
                assert abs(chi_square_p_value(stat, dof) - ref) <= 1e-10

    def test_monotone_decreasing_in_statistic(self):
        stats = np.linspace(0.0, 40.0, 81)
        ps = [chi_square_p_value(float(s), 4) for s in stats]
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="statistic"):
            chi_square_p_value(-1.0, 4)
        with pytest.raises(ValueError, match="freedom"):
            chi_square_p_value(1.0, 0)


class TestChiSquareTest:
    def test_exact_match_scores_zero(self):
        counts = np.full(5, 20)
        report = chi_square_test(counts, uniform_target(4))
        assert report.statistic == 0.0
        assert report.dof == 4
        assert report.p_value == 1.0

    def test_statistic_value(self):
        counts = np.array([232, 184, 200, 200, 184])
        report = chi_square_test(counts, uniform_target(4))
        assert abs(report.statistic - 7.68) <= 1e-12

    def test_missing_sites_count_as_zero(self):
        report = chi_square_test(np.array([10, 0]), uniform_target(1))
        assert abs(report.statistic - 10.0) <= 1e-12

    def test_wrong_support_rejected(self):
        with pytest.raises(ValueError, match="support"):
            chi_square_test(np.array([5, 0, 5]), uniform_target(1))

    def test_zero_expected_with_observations_rejected(self):
        target = Distribution(1, [1.0, 0.0])
        with pytest.raises(ValueError, match="zero expected"):
            chi_square_test(np.array([50, 1]), target)

    def test_zero_expected_without_observations_is_fine(self):
        target = Distribution(1, [1.0, 0.0])
        report = chi_square_test(np.array([50, 0]), target)
        assert report.statistic == 0.0

    def test_small_sample_warns(self):
        with pytest.warns(UserWarning, match="observations"):
            chi_square_test(np.array([2, 2]), uniform_target(1))

    def test_rejected_small_sample_raises_without_warning(self):
        # the small-sample warning comes only with a result, never before an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero expected"):
                chi_square_test(np.array([1, 1]), Distribution(1, [1.0, 0.0]))

    def test_permutation_invariance(self):
        counts = [37, 12, 25, 16, 10]
        probs = [0.3, 0.1, 0.25, 0.2, 0.15]
        base = chi_square_test(np.array(counts), Distribution(4, probs))
        perm = [3, 0, 4, 1, 2]
        shuffled = chi_square_test(
            np.array(counts)[perm], Distribution(4, np.array(probs)[perm])
        )
        assert abs(base.statistic - shuffled.statistic) <= 1e-12


class TestEntropy:
    def test_uniform_five_sites(self):
        shannon, min_h = entropy_report(uniform_target(4))
        assert abs(shannon - math.log2(5)) <= 1e-12
        assert abs(min_h - math.log2(5)) <= 1e-12

    def test_degenerate(self):
        d = Distribution(2, [0.0, 1.0, 0.0])
        assert entropy_report(d) == (0.0, 0.0)

    def test_dyadic_case(self):
        d = Distribution(2, [0.5, 0.25, 0.25])
        shannon, min_h = entropy_report(d)
        assert abs(shannon - 1.5) <= 1e-12
        assert abs(min_h - 1.0) <= 1e-12

    def test_bounds_and_uniform_maximality(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            w = rng.uniform(0.01, 1.0, size=n + 1)
            w /= w.sum()
            shannon, min_h = entropy_report(Distribution(n, w))
            assert 0.0 <= min_h <= shannon <= math.log2(n + 1) + 1e-12
        u_shannon, _ = entropy_report(uniform_target(4))
        assert u_shannon == pytest.approx(math.log2(5), abs=1e-12)


class TestQuantize:
    def test_on_grid_angle_unchanged(self):
        # 45 degrees on the coin angle sits exactly on the half-degree grid
        r = math.cos(math.radians(45.0)) ** 2
        assert abs(quantize_ratio(r, 0.25) - r) <= 1e-12

    def test_worked_example(self):
        # theta = 45.3 deg -> plate angle 22.65 deg -> rounds to 22.75 deg,
        # so the realized ratio is cos^2(45.5 deg)
        r = math.cos(math.radians(45.3)) ** 2
        expected = math.cos(math.radians(45.5)) ** 2
        assert abs(quantize_ratio(r, 0.25) - expected) <= 1e-15
        assert abs(expected - 0.49127379678135824) <= 1e-15

    def test_vanishing_resolution_limit(self):
        # grid displacement is ~0.017 * resolution in ratio units, so a
        # 1e-11 degree grid pins the ratio to well below the tolerance
        rng = np.random.default_rng(1)
        for r in rng.uniform(0, 1, size=50):
            assert abs(quantize_ratio(float(r), 1e-11) - float(r)) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        sched = random_schedule(rng, 5)
        once = quantize_schedule(sched)
        twice = quantize_schedule(once)
        assert once.ratios == twice.ratios

    def test_endpoints_are_fixed_points(self):
        assert abs(quantize_ratio(0.0)) <= 1e-12  # cos(90 deg) rounds to ~6e-17
        assert quantize_ratio(1.0) == 1.0
        assert quantize_ratio(quantize_ratio(0.0)) == quantize_ratio(0.0)

    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError, match="resolution"):
            quantize_ratio(0.5, 0.0)

    @pytest.mark.parametrize("resolution", [0.0, -0.25, math.inf, math.nan])
    def test_schedule_resolution_checked_before_any_ratio(self, resolution):
        # a walk of no steps has no ratio to quantize, and is still refused
        message = f"resolution must be positive and finite, got {resolution}"
        for sched in (CoinSchedule(0, []), CoinSchedule.constant(3)):
            with pytest.raises(ValueError) as err:
                quantize_schedule(sched, resolution)
            assert str(err.value) == message

    def test_grid_too_fine_for_a_float_names_the_resolution(self):
        # 45 degrees of plate angle (a ratio of 0) over these steps overflows
        # a float; the last is the coarsest such grid
        for res in (5e-324, 1e-310, math.nextafter(2.503208090820602e-307, 0.0)):
            message = re.escape(f"resolution {res!r} is too fine")
            with pytest.raises(ValueError, match=message):
                quantize_ratio(0.0, res)
            with pytest.raises(ValueError, match=message):
                quantize_schedule(CoinSchedule(2, [0.3, 0.0, 0.7]), res)
            # a ratio of 1 is zero steps from the origin at every resolution
            assert quantize_ratio(1.0, res) == 1.0
            assert quantize_schedule(CoinSchedule.constant(3, 1.0), res).values.tolist() == [1.0] * 6

    def test_ratio_outside_the_unit_interval_rejected(self):
        for ratio in (math.nan, math.inf, 2.0, -0.5):
            with pytest.raises(ValueError) as err:
                quantize_ratio(ratio)
            assert str(err.value) == f"coin bias ratio must lie in [0, 1], got {ratio}"
        # the ends, with either sign of zero, stay valid
        assert quantize_ratio(-0.0) == quantize_ratio(0) == quantize_ratio(0.0)
        assert quantize_ratio(1) == 1.0

    def test_schedule_quantization_is_elementwise(self):
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, 4)
        q = quantize_schedule(sched, 0.25)
        for key, r in sched.ratios.items():
            assert q.ratios[key] == quantize_ratio(r, 0.25)

    @pytest.mark.parametrize("resolution", [0.3, 0.01])
    def test_schedule_quantization_is_the_scalar_rule_on_many_ratios(self, resolution):
        # np.arccos and math.acos can differ in the last ulp, which moves the
        # rounded plate angle of a few ratios at these resolutions: a
        # vectorized quantizer must equal quantize_ratio on a large schedule
        sched = CoinSchedule.random(64, 5)
        expected = [quantize_ratio(r, resolution) for r in sched.values.tolist()]
        assert quantize_schedule(sched, resolution).values.tolist() == expected

    @pytest.mark.parametrize("resolution", [0.25, 0.1, 0.3, 1.0, 0.01])
    def test_array_rule_is_the_scalar_rule_at_half_steps(self, resolution):
        # np.arccos puts these ratios' plate angles just below a half step
        # (61.5 steps of 0.25 deg, 83.5 of 0.1 deg) and math.acos just above
        flips = [0.7385793801298043, 0.9174239316317033]
        ratios = flips + [math.nextafter(r, d) for r in flips for d in (0.0, 1.0)]
        assert_scalar_rule(ratios, resolution)

    # 45 / sys.float_info.max puts a ratio of 0 at the largest finite step count
    @pytest.mark.parametrize("resolution", [2.503208090820602e-307, 1e-11, 0.25, 1e300])
    def test_array_rule_is_the_scalar_rule_at_the_ends(self, resolution):
        assert_scalar_rule([0.0, 1.0, -0.0], resolution)

    def test_schedule_quantization_takes_the_scalar_rule_rarely(self, monkeypatch):
        calls = []
        scalar = analysis.quantize_ratio

        def counted(ratio, resolution):
            calls.append(ratio)
            return scalar(ratio, resolution)

        monkeypatch.setattr(analysis, "quantize_ratio", counted)
        sched = CoinSchedule.random(64, 5)
        quantize_schedule(sched, 0.25)
        assert len(calls) < 0.01 * sched.values.size

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.01, 0.1, 0.25, 0.3, 1.0, 7.5e-7]))
    def test_array_rule_is_the_scalar_rule(self, seed, resolution):
        # uniform ratios, and ratios whose plate angle is a half step give or take an ulp
        rng = np.random.default_rng(seed)
        ks = rng.integers(0, int(45 / resolution), 100).tolist()
        halves = [math.cos(math.radians(2.0 * ((k + 0.5) * resolution))) ** 2 for k in ks]
        near = [math.nextafter(r, d) for r in halves for d in (0.0, 1.0)]
        assert_scalar_rule(rng.uniform(0.0, 1.0, 100).tolist() + halves + near, resolution)


def assert_scalar_rule(ratios, resolution):
    """quantize_schedule on these ratios is quantize_ratio on each, bit for bit."""
    steps = math.ceil((math.sqrt(8 * len(ratios) + 1) - 1) / 2)  # the fewest that hold them
    values = list(ratios) + [0.5] * (steps * (steps + 1) // 2 - len(ratios))
    got = quantize_schedule(CoinSchedule(steps, values), resolution).values[: len(ratios)]
    expected = np.array([quantize_ratio(r, resolution) for r in ratios])
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestRobustnessSweep:
    def test_zero_magnitude_reproduces_unperturbed_fidelity(self, circ_left, uniform4, trained_uniform):
        sched = trained_uniform.final_schedule
        base = fidelity(measure(run_walk(circ_left, sched)), uniform4)
        curve = robustness_sweep(sched, circ_left, uniform4, [0.0], trials=10, seed=1)
        d, mean_f, min_f = curve.points[0]
        assert d == 0.0
        assert min_f == base  # every trial is bitwise identical to the clean run
        assert abs(mean_f - base) <= 1e-12  # averaging identical floats can move an ulp

    def test_unsorted_magnitudes_rejected(self, circ_left, uniform4, trained_uniform):
        with pytest.raises(ValueError, match="increasing"):
            robustness_sweep(
                trained_uniform.final_schedule, circ_left, uniform4, [0.01, 0.005], 5, 0
            )

    def test_negative_magnitude_rejected(self, circ_left, uniform4, trained_uniform):
        with pytest.raises(ValueError, match="non-negative"):
            robustness_sweep(
                trained_uniform.final_schedule, circ_left, uniform4, [-0.01, 0.005], 5, 0
            )

    def test_wrong_target_fails_before_any_noise_is_drawn(
        self, circ_left, trained_uniform, monkeypatch
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="different supports"):
            robustness_sweep(
                trained_uniform.final_schedule, circ_left, uniform_target(5), [0.01], 5, 0
            )

    def test_trials_must_be_positive(self, circ_left, uniform4, trained_uniform):
        with pytest.raises(ValueError, match="trials"):
            robustness_sweep(
                trained_uniform.final_schedule, circ_left, uniform4, [0.01], 0, 0
            )

    def test_deterministic_given_seed(self, circ_left, uniform4, trained_uniform):
        sched = trained_uniform.final_schedule
        a = robustness_sweep(sched, circ_left, uniform4, [0.01, 0.05], 50, seed=33)
        b = robustness_sweep(sched, circ_left, uniform4, [0.01, 0.05], 50, seed=33)
        assert a.points == b.points

    def test_mean_fidelity_decays_with_noise(self, circ_left, uniform4, trained_uniform):
        sched = trained_uniform.final_schedule
        curve = robustness_sweep(
            sched, circ_left, uniform4, [0.0, 0.02, 0.05, 0.1], trials=200, seed=7
        )
        means = [m for _, m, _ in curve.points]
        # non-increasing in expectation; allow a small sampling-noise slack
        assert all(b <= a + 0.01 for a, b in zip(means, means[1:]))
        assert means[-1] < means[0]
        mins = [mn for _, _, mn in curve.points]
        assert all(mn <= m + 1e-12 for m, mn in zip(means, mins))

    def test_quantization_scale_noise_regression_guard(self, circ_left, uniform4, trained_uniform):
        # Noise comparable to the wave-plate rounding scale: the worst of
        # 1000 trials stays within a frozen margin of the clean fidelity
        # (first measured at 0.011; guarded at 0.015).
        sched = trained_uniform.final_schedule
        base = fidelity(measure(run_walk(circ_left, sched)), uniform4)
        curve = robustness_sweep(sched, circ_left, uniform4, [0.005], trials=1000, seed=20240811)
        _, mean_f, min_f = curve.points[0]
        assert min_f >= base - 0.015
        assert mean_f >= base - 0.008


def _sweep_one_walk_at_a_time(schedule, initial, target, magnitudes, trials, seed):
    """The sweep as one perturbed schedule, walk and fidelity per trial."""
    points = []
    for i, d in enumerate(magnitudes):
        fids = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i, t]))
            offsets = rng.uniform(-d, d, size=schedule.values.size)
            noisy = CoinSchedule(schedule.steps, np.clip(schedule.values + offsets, 0.0, 1.0))
            fids[t] = fidelity(measure(run_walk(initial, noisy)), target)
        points.append((d, float(fids.mean()), float(fids.min())))
    return points


class TestSweepEqualsOneWalkAtATime:
    """The batched sweep returns exactly the curve of per-trial walks."""

    def check(self, schedule, initial, target, magnitudes, trials, seed):
        curve = robustness_sweep(schedule, initial, target, magnitudes, trials, seed)
        expected = _sweep_one_walk_at_a_time(schedule, initial, target, magnitudes, trials, seed)
        assert curve.points == expected

    def test_trained_schedule(self, circ_left, uniform4, trained_uniform):
        self.check(trained_uniform.final_schedule, circ_left, uniform4, [0.0, 0.01, 0.05], 30, 5)

    def test_random_schedule(self):
        rng = np.random.default_rng(16)
        sched, state = random_schedule(rng, 16), initial_state(random_coin_vector(rng))
        self.check(sched, state, uniform_target(16), [0.0, 0.02, 0.2], 25, 11)

    def test_single_trial(self, circ_left, uniform4, trained_uniform):
        self.check(trained_uniform.final_schedule, circ_left, uniform4, [0.0, 0.1], 1, 2)

    def test_trials_spanning_several_batches(self):
        steps = 256
        rows = _BATCH_SLOTS // ((steps + 1) * (steps + 2) // 2)
        sched, state = CoinSchedule.random(steps, 3), initial_state(NAMED_COIN_VECTORS["circ-left"])
        target = measure(run_walk(state, sched))
        self.check(sched, state, target, [0.0, 0.01], 2 * rows + 1, 8)


class TestQuantizedScheduleFidelity:
    def test_wave_plate_rounding_barely_moves_the_trained_output(
        self, circ_left, uniform4, trained_uniform
    ):
        sched = trained_uniform.final_schedule
        base = fidelity(measure(run_walk(circ_left, sched)), uniform4)
        quant = fidelity(measure(run_walk(circ_left, quantize_schedule(sched))), uniform4)
        assert abs(base - quant) <= 0.01
