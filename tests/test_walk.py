import math
import tracemalloc
import warnings

import numpy as np
import pytest

import qwrng
from qwrng import (
    CoinSchedule,
    Distribution,
    coin_from_ratio,
    initial_state,
    measure,
    run_walk,
)
from qwrng.fileio import schedule_from_text
from qwrng.oracle import dense_walk
from qwrng.training import FLOAT_PASS_MAX_STEPS
from qwrng.walk import (
    _forward,
    _gradient_floats,
    _gradient_rows,
    _schedule_key,
    schedule_keys,
)

from util import random_coin_vector, random_schedule

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


class TestCoinFromRatio:
    def test_half_ratio_is_hadamard(self):
        assert np.allclose(coin_from_ratio(0.5), HADAMARD, atol=1e-12)

    def test_full_bias_keeps_labels(self):
        assert np.allclose(coin_from_ratio(1.0), np.diag([1.0, -1.0]), atol=0)

    def test_zero_bias_swaps_labels(self):
        assert np.allclose(coin_from_ratio(0.0), np.array([[0, 1], [1, 0]]), atol=0)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="ratio"):
            coin_from_ratio(bad)

    def test_always_orthogonal(self):
        for r in np.linspace(0, 1, 101):
            c = coin_from_ratio(float(r))
            assert np.max(np.abs(c.conj().T @ c - np.eye(2))) <= 1e-12

    def test_equals_the_explicit_rotation(self):
        # r = cos^2(theta): the angle-ratio rule that quantize_schedule's plates follow
        for theta in np.linspace(0.0, math.pi / 2, 41).tolist():
            c, s = math.cos(theta), math.sin(theta)
            rotation = np.array([[c, s], [s, -c]])
            assert np.max(np.abs(coin_from_ratio(c * c) - rotation)) <= 1e-12


class TestInitialState:
    def test_pure_left_component(self):
        s = initial_state((1.0, 0.0))
        assert s.step == 0
        assert s.positions() == [0]
        assert np.allclose(s.amplitudes[0], [1.0, 0.0])

    def test_circular_state_accepted(self):
        s = initial_state((1 / math.sqrt(2), 1j / math.sqrt(2)))
        assert abs(s.norm() - 1.0) <= 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError) as info:
            initial_state((0.6, 0.9))
        assert str(info.value) == f"coin vector is not normalized: |v|^2 = {0.6**2 + 0.9**2!r}"

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="two components"):
            initial_state((1.0, 0.0, 0.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            initial_state((float("nan"), 0.0))

    def test_huge_component_rejected_without_a_warning(self):
        # its square overflows to inf, which is reported, not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not normalized: \|v\|\^2 = inf$"):
                initial_state((1e308, 0.0))


def one_step(vector, ratio):
    """State after a single walk step (coin at ``ratio``, then shift)."""
    return run_walk(initial_state(vector), CoinSchedule.constant(1, ratio))


def prefix(sched, t):
    """The first ``t`` steps of a schedule."""
    return CoinSchedule(t, sched.values[: t * (t + 1) // 2])


class TestCoinLayer:
    # one step from site 0: the coin's L output lands on -1, its R output on +1
    def test_half_ratio_on_pure_left(self):
        out = one_step((1.0, 0.0), 0.5)
        assert np.allclose(out.amplitudes[-1], [1 / math.sqrt(2), 0.0], atol=1e-12)
        assert np.allclose(out.amplitudes[1], [0.0, 1 / math.sqrt(2)], atol=1e-12)

    def test_full_bias_negates_right_component(self):
        rng = np.random.default_rng(5)
        v = random_coin_vector(rng)
        out = one_step(v, 1.0)
        assert np.allclose(out.amplitudes[-1], [v[0], 0.0], atol=0)
        assert np.allclose(out.amplitudes[1], [0.0, -v[1]], atol=0)

    def test_partial_bias_values(self):
        out = one_step((1.0, 0.0), 0.3)
        assert np.allclose(out.amplitudes[-1], [math.sqrt(0.3), 0.0], atol=1e-15)
        assert np.allclose(out.amplitudes[1], [0.0, math.sqrt(0.7)], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        out = one_step(random_coin_vector(rng), 0.37)
        assert abs(out.norm() - 1.0) <= 1e-12


class TestShift:
    def test_left_component_moves_left(self):
        out = one_step((1.0, 0.0), 1.0)
        assert out.step == 1
        assert out.positions() == [-1]
        assert np.allclose(out.amplitudes[-1], [1.0, 0.0])

    def test_right_component_moves_right(self):
        out = one_step((0.0, 1.0), 1.0)  # r = 1 keeps the labels, negates R
        assert out.step == 1
        assert out.positions() == [1]
        assert np.allclose(out.amplitudes[1], [0.0, -1.0])

    def test_disjoint_relabeling_merges_slots(self):
        # circ-left through a Hadamard step puts L' = (1+i)/2 on -1 and
        # R' = (1-i)/2 on +1; step 2 (r = 0.36 at -1, 0.64 at +1) sends R'
        # from +1 and L' from -1 into site 0: (0.6 R', 0.8 L')
        v = qwrng.NAMED_COIN_VECTORS["circ-left"]
        out = run_walk(initial_state(v), CoinSchedule(2, [0.5, 0.36, 0.64]))
        assert out.step == 2
        assert out.positions() == [-2, 0, 2]
        assert np.allclose(out.amplitudes[-2], [0.3 + 0.3j, 0.0], atol=1e-12)
        assert np.allclose(out.amplitudes[0], [0.3 - 0.3j, 0.4 + 0.4j], atol=1e-12)
        assert np.allclose(out.amplitudes[2], [0.0, -0.4 + 0.4j], atol=1e-12)
        assert abs(out.norm() - 1.0) <= 1e-12


class TestStep:
    def test_hadamard_split(self):
        out = one_step((1.0, 0.0), 0.5)
        assert out.positions() == [-1, 1]
        assert np.allclose(out.amplitudes[-1], [1 / math.sqrt(2), 0.0], atol=1e-12)
        assert np.allclose(out.amplitudes[1], [0.0, 1 / math.sqrt(2)], atol=1e-12)

    def test_ballistic(self):
        assert one_step((1.0, 0.0), 1.0).positions() == [-1]

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            state = initial_state(random_coin_vector(rng))
            sched = random_schedule(rng, 3)
            for t in range(1, 4):
                assert abs(run_walk(state, prefix(sched, t)).norm() - 1.0) <= 1e-12


class TestRunWalk:
    def test_full_bias_is_ballistic(self):
        final = run_walk(initial_state((1.0, 0.0)), CoinSchedule.constant(4, 1.0))
        assert final.step == 4
        assert final.positions() == [-4]
        assert abs(abs(final.amplitudes[-4][0]) - 1.0) <= 1e-12

    def test_zero_steps_returns_initial(self):
        s = initial_state((0.0, 1.0))
        out = run_walk(s, CoinSchedule(0, []))
        assert out.step == 0
        assert np.allclose(out.amplitudes[0], s.amplitudes[0])

    def test_unbiased_walk_matches_dense_oracle(self, circ_left):
        sched = CoinSchedule.constant(4, 0.5)
        fast = measure(run_walk(circ_left, sched))
        dense = dense_walk(sched, qwrng.NAMED_COIN_VECTORS["circ-left"])
        for m in fast.support():
            assert abs(fast.probs[m] - dense.probs[m]) <= 1e-12

    def test_requires_origin_start(self):
        shifted = one_step((1.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="origin"):
            run_walk(shifted, CoinSchedule.constant(2, 0.5))


class TestPassChoice:
    """The ratios' container picks the pass: a list is one walk for the float
    pass, an array of any shape takes the array pass, and each pass hands back
    its own sweep.  ``train`` hands a walk of at most FLOAT_PASS_MAX_STEPS
    steps over as a list."""

    @staticmethod
    def _sweep(values, steps, initial):
        return _forward(values, steps, initial)[0].func

    @pytest.mark.parametrize("steps", [0, 1, FLOAT_PASS_MAX_STEPS])
    def test_one_short_walk_runs_on_floats_and_a_batch_on_arrays(self, circ_left, steps):
        size = steps * (steps + 1) // 2
        assert self._sweep([0.5] * size, steps, circ_left) is _gradient_floats
        for shape in (size, (1, size), (2, 3, size)):
            assert self._sweep(np.full(shape, 0.5), steps, circ_left) is _gradient_rows

    def test_a_longer_walk_runs_on_arrays(self, circ_left):
        steps = FLOAT_PASS_MAX_STEPS + 1
        size = steps * (steps + 1) // 2
        for shape in (size, (1, size)):
            assert self._sweep(np.full(shape, 0.5), steps, circ_left) is _gradient_rows

    @pytest.mark.parametrize("steps", [2, FLOAT_PASS_MAX_STEPS + 1])
    def test_both_passes_require_an_origin_start(self, steps):
        shifted, values = one_step((1.0, 0.0), 1.0), np.full(steps * (steps + 1) // 2, 0.5)
        for form in (values.tolist(), values):
            with pytest.raises(ValueError, match="origin"):
                _forward(form, steps, shifted)


class TestMeasure:
    def test_single_step_even_split(self):
        dist = measure(one_step((1.0, 0.0), 0.5))
        assert abs(dist.probs[-1] - 0.5) <= 1e-12
        assert abs(dist.probs[1] - 0.5) <= 1e-12

    def test_ballistic_distribution_has_full_support_grid(self):
        dist = measure(run_walk(initial_state((1.0, 0.0)), CoinSchedule.constant(4, 1.0)))
        assert dist.support() == [-4, -2, 0, 2, 4]
        assert abs(dist.probs[-4] - 1.0) <= 1e-12
        assert all(dist.probs[m] == 0.0 for m in (-2, 0, 2, 4))

    def test_unbiased_walk_from_left_matches_hand_computed_values(self):
        # four-step unbiased walk amplitudes worked out on paper
        dist = measure(run_walk(initial_state((1.0, 0.0)), CoinSchedule.constant(4, 0.5)))
        expected = {-4: 1 / 16, -2: 10 / 16, 0: 2 / 16, 2: 2 / 16, 4: 1 / 16}
        for m, p in expected.items():
            assert abs(dist.probs[m] - p) <= 1e-12


class TestWalkInvariants:
    def test_norm_conserved_along_random_walks(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            sched = random_schedule(rng, n)
            state = initial_state(random_coin_vector(rng))
            for t in range(1, n + 1):
                assert abs(run_walk(state, prefix(sched, t)).norm() - 1.0) <= 1e-12

    def test_support_parity_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            state = run_walk(initial_state(random_coin_vector(rng)), random_schedule(rng, n))
            for x in state.positions():
                assert abs(x) <= n
                assert (x - n) % 2 == 0
            dist = measure(state)
            assert len(dist.support()) == n + 1
            assert abs(sum(dist.probs.values()) - 1.0) <= 1e-9

    def test_mirror_symmetry_with_compensated_coin_swap(self):
        # The biased coin carries its sign on the R->R entry, so a spatial
        # reflection maps the coin vector (a, b) to (b, -a); with the
        # schedule reflected position-wise the distribution reflects exactly.
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            sched = random_schedule(rng, n)
            v = random_coin_vector(rng)
            mirrored = CoinSchedule(n, [sched.ratios[(t, -m)] for t, m in schedule_keys(n)])
            dist = measure(run_walk(initial_state(v), sched))
            dist_m = measure(run_walk(initial_state((v[1], -v[0])), mirrored))
            for m in dist.support():
                assert abs(dist.probs[m] - dist_m.probs[-m]) <= 1e-12

    def test_mirror_symmetry_plain_swap_for_circular_states(self):
        # For the circular pair the plain component swap is enough: the
        # extra sign is a global phase there.
        rng = np.random.default_rng(6)
        left = qwrng.NAMED_COIN_VECTORS["circ-left"]
        right = qwrng.NAMED_COIN_VECTORS["circ-right"]
        for _ in range(20):
            sched = random_schedule(rng, 4)
            mirrored = CoinSchedule(4, [sched.ratios[(t, -m)] for t, m in schedule_keys(4)])
            dist = measure(run_walk(initial_state(left), sched))
            dist_m = measure(run_walk(initial_state((left[1], left[0])), mirrored))
            for m in dist.support():
                assert abs(dist.probs[m] - dist_m.probs[-m]) <= 1e-12
            # and the two circular inputs give identical statistics outright
            dist_r = measure(run_walk(initial_state(right), sched))
            for m in dist.support():
                assert abs(dist.probs[m] - dist_r.probs[m]) <= 1e-12


class TestCoinSchedule:
    def test_key_set_enforced(self):
        # keyed (step, position) rows become a schedule only through the file reader
        with pytest.raises(ValueError, match="key set"):
            schedule_from_text("steps=2\n1,0,0.5\n")
        good = "steps=2\n1,0,0.5\n2,-1,0.5\n2,1,0.5\n"
        schedule_from_text(good)
        with pytest.raises(ValueError, match="key set"):
            schedule_from_text(good + "3,0,0.5\n")
        with pytest.raises(TypeError):  # the constructor takes no mapping
            CoinSchedule(2, {(1, 0): 0.5, (2, -1): 0.5, (2, 1): 0.5})

    def test_ratio_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            CoinSchedule(1, [1.5])

    @pytest.mark.parametrize("steps", [1, 2, 5, 13, 64, 200])
    def test_one_key_is_its_place_in_the_key_list(self, steps):
        keys = schedule_keys(steps)
        assert [_schedule_key(k) for k in range(len(keys))] == keys

    def test_last_key_of_a_long_walk(self):
        n = 10**6
        assert _schedule_key(n * (n + 1) // 2 - 1) == (n, n - 1)

    def test_a_bad_ratio_is_named_without_the_key_list(self):
        # the list of n(n+1)/2 key tuples peaks near 49 MiB at n = 1024; the ratios are 4 MiB
        values = np.full(1024 * 1025 // 2, 0.5)
        values[-1] = 2.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\(1024, 1023\) is 2.0, outside"):
                CoinSchedule(1024, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_repr_is_pinned(self):
        # the benchmark's digest of every quantize_schedule op hashes this text
        assert repr(CoinSchedule(2, [0.25, 0.5, 1.0])) == "CoinSchedule(steps=2, ratios=[0.25, 0.5, 1.0])"

    def test_entry_count_is_triangular(self):
        assert len(CoinSchedule.constant(4).ratios) == 10
        assert len(CoinSchedule.constant(6).ratios) == 21

    def test_random_is_seed_deterministic(self):
        a = CoinSchedule.random(4, 9)
        b = CoinSchedule.random(4, 9)
        c = CoinSchedule.random(4, 10)
        assert a.ratios == b.ratios
        assert a.ratios != c.ratios

    def test_array_round_trip(self):
        sched = CoinSchedule.random(5, 0)
        again = sched.with_array(sched.to_array())
        assert again.ratios == sched.ratios

    @pytest.mark.parametrize("steps, seed", [(1, 0), (4, 9), (16, 123), (64, 2**40 + 7)])
    def test_random_matches_one_scalar_draw_per_key(self, steps, seed):
        # rand:SEED inits must keep drawing the stream they always drew
        rng = np.random.default_rng(np.random.PCG64(seed))
        keys = schedule_keys(steps)
        scalar = np.array([rng.uniform(0.0, 1.0) for _ in keys])
        assert np.array_equal(CoinSchedule.random(steps, seed).to_array(), scalar)

    def test_nan_and_out_of_range_rejected_from_arrays(self):
        base = CoinSchedule.constant(2, 0.5).to_array()
        for bad, shown in ((float("nan"), "nan"), (-0.25, "-0.25"), (1.5, "1.5")):
            values = base.copy()
            values[2] = bad
            with pytest.raises(ValueError, match=rf"\(2, 1\) is {shown}, outside \[0, 1\]"):
                CoinSchedule(2, values)
        with pytest.raises(ValueError, match="outside"):
            CoinSchedule(1, [float("nan")])
        with pytest.raises(ValueError, match="expected 3 ratios, got 2"):
            CoinSchedule(2, [0.5, 0.5])

    def test_views_are_read_only(self):
        sched = CoinSchedule.random(3, 1)
        with pytest.raises(TypeError):
            sched.ratios[(1, 0)] = 0.5
        with pytest.raises(ValueError):
            sched.values[0] = 0.5
        sched.to_array()[:] = 0.5  # a copy, not the schedule's storage
        assert np.array_equal(sched.values, CoinSchedule.random(3, 1).values)
        dist = Distribution(1, [0.25, 0.75])
        with pytest.raises(TypeError):
            dist.probs[-1] = 0.5


class TestDistribution:
    def test_support_must_be_exact(self):
        with pytest.raises(ValueError, match="expected 3 probabilities, got 2"):
            Distribution(2, [0.5, 0.5])

    def test_mass_must_total_one(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution(2, [0.5, 0.1, 0.1])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Distribution(2, [-0.1, 0.6, 0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"position -1 is nan, outside \[0, 1\]"):
            Distribution(1, [float("nan"), 1.0])

    def test_array_round_trip(self):
        d = Distribution(3, [0.1, 0.2, 0.3, 0.4])
        assert d.support() == [-3, -1, 1, 3]
        assert np.allclose(d.as_array(), [0.1, 0.2, 0.3, 0.4])
