import warnings

import numpy as np
import pytest

from qwrng import gaussian_target, load_target, target_from_spec, uniform_target
from qwrng.fileio import distribution_to_text


class TestUniform:
    def test_four_steps(self):
        t = uniform_target(4)
        assert t.support() == [-4, -2, 0, 2, 4]
        assert all(p == 0.2 for p in t.probs.values())

    def test_single_step(self):
        assert uniform_target(1).probs == {-1: 0.5, 1: 0.5}

    def test_seven_steps(self):
        t = uniform_target(7)
        assert len(t.probs) == 8
        assert all(p == 0.125 for p in t.probs.values())

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="step"):
            uniform_target(0)


class TestGaussian:
    def test_flat_limit_approaches_uniform(self):
        wide = gaussian_target(4, mu=3.0, sigma=1e6)
        flat = uniform_target(4)
        for m in flat.support():
            assert abs(wide.probs[m] - flat.probs[m]) <= 1e-9

    def test_frozen_regression_vector(self):
        # values of the default bell target, pinned once and kept
        t = gaussian_target(4, mu=0.0, sigma=2.0)
        expected = [
            0.054488684549642938,
            0.24420134200323332,
            0.4026199468942474,
            0.24420134200323332,
            0.054488684549642938,
        ]
        assert np.max(np.abs(t.as_array() - expected)) <= 1e-15

    def test_normalization_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            t = gaussian_target(n, mu=rng.normal(scale=3), sigma=rng.uniform(0.2, 5))
            assert abs(sum(t.probs.values()) - 1.0) <= 1e-12

    def test_symmetric_about_on_lattice_mean(self):
        t = gaussian_target(4, mu=0.0, sigma=1.3)
        for d in (2, 4):
            assert abs(t.probs[d] - t.probs[-d]) <= 1e-12
        t2 = gaussian_target(4, mu=2.0, sigma=1.3)
        assert abs(t2.probs[0] - t2.probs[4]) <= 1e-12

    def test_extreme_parameters_stay_normalized(self):
        t = gaussian_target(4, mu=500.0, sigma=0.5)
        assert abs(sum(t.probs.values()) - 1.0) <= 1e-12
        assert t.probs[4] == max(t.probs.values())
        # a sigma this small puts all mass on the site at mu; far sites overflow to weight 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma in (1e-150, 1e-160):
                assert gaussian_target(4, mu=0.0, sigma=sigma).values.tolist() == [0, 0, 1, 0, 0]

    def test_a_sigma_too_large_to_square_gives_the_flat_target(self):
        # uniform to double precision, as a 60-digit evaluation confirms
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu, sigma in [(1e200, 1e200), (1e160, 1e155)]:
                assert gaussian_target(4, mu, sigma).values.tolist() == [0.2] * 5
        # no scaling gives these a finite weight
        for mu, sigma in [(0.5, 1e-200), (1e200, 1.0)]:
            with pytest.raises(ValueError, match="gives no finite weight"):
                gaussian_target(4, mu, sigma)

    def test_a_sigma_whose_double_square_underflows_gives_a_point_mass_on_mu(self):
        # 2 sigma^2 is 0, so unscaled the site at mu would weigh 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_target(4, 0.0, 1e-200).values.tolist() == [0, 0, 1, 0, 0]
            assert gaussian_target(4, 2.0, 1e-170).values.tolist() == [0, 0, 0, 1, 0]
        # off the lattice even the nearest site is infinitely far in units of sigma
        message = "gaussian mu=0.5, sigma=1e-200 gives no finite weight on a 4-step walk"
        with pytest.raises(ValueError, match=message):
            gaussian_target(4, 0.5, 1e-200)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_target(4, sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            gaussian_target(4, sigma=-1.0)


class TestLoadTarget:
    def test_valid_two_step_file(self):
        text = "-2,0.25\n0,0.5\n2,0.25\n"
        t = load_target(text, 2)
        assert t.probs == {-2: 0.25, 0: 0.5, 2: 0.25}

    def test_typographic_minus_accepted(self):
        text = "−2,0.25\n0,0.5\n2,0.25\n"
        assert load_target(text, 2).probs[-2] == 0.25

    def test_header_line_tolerated(self):
        text = "position,probability\n-1,0.5\n1,0.5\n"
        assert load_target(text, 1).probs == {-1: 0.5, 1: 0.5}

    def test_under_normalized_rejected(self):
        text = "-1,0.4\n1,0.4\n"
        with pytest.raises(ValueError, match="sum"):
            load_target(text, 1)

    def test_near_normalized_is_rescaled_exactly(self):
        eps = 5e-7
        text = f"-1,{0.5 + eps}\n1,0.5\n"
        t = load_target(text, 1)
        assert abs(sum(t.probs.values()) - 1.0) <= 1e-15

    def test_wrong_parity_site_rejected(self):
        text = "-2,0.25\n1,0.5\n2,0.25\n"
        with pytest.raises(ValueError, match="sites"):
            load_target(text, 2)

    def test_missing_site_rejected(self):
        text = "-2,0.5\n2,0.5\n"
        with pytest.raises(ValueError, match="missing"):
            load_target(text, 2)

    def test_duplicate_site_rejected(self):
        text = "-1,0.25\n-1,0.25\n1,0.5\n"
        with pytest.raises(ValueError, match="duplicate"):
            load_target(text, 1)

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError, match="line"):
            load_target("-1;0.5\n1;0.5\n", 1)
        with pytest.raises(ValueError, match="line"):
            load_target("-1,abc\n1,0.5\n", 1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            load_target("", 1)

    def test_round_trip_through_writer_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            w = rng.uniform(0.01, 1.0, size=n + 1)
            w /= w.sum()
            from qwrng import Distribution

            d = Distribution(n, w)
            again = load_target(distribution_to_text(d), n)
            assert np.max(np.abs(again.as_array() - d.as_array())) <= 1e-12

    def test_auto_steps_inference(self):
        text = "-2,0.25\n0,0.5\n2,0.25\n"
        assert load_target(text).steps == 2


class TestTargetSpec:
    def test_uniform_spec(self):
        assert target_from_spec("uniform", 4).probs == uniform_target(4).probs

    def test_gaussian_spec(self):
        d = target_from_spec("gaussian:0,2", 4)
        assert d.probs == gaussian_target(4, 0.0, 2.0).probs

    def test_file_spec(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("-1,0.5\n1,0.5\n")
        assert target_from_spec(f"file:{p}", 1).probs == {-1: 0.5, 1: 0.5}
        assert target_from_spec(f"file:{p}", None).steps == 1

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            target_from_spec("triangle", 4)
        with pytest.raises(ValueError, match="MU,SIGMA"):
            target_from_spec("gaussian:1", 4)
        with pytest.raises(ValueError, match="numeric"):
            target_from_spec("gaussian:a,b", 4)
        with pytest.raises(ValueError, match="steps"):
            target_from_spec("uniform", None)
