import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringe_denoise.phase import Constant, PhaseSpec, fig3_phase_spec
from fringe_denoise.speckle import (
    SimulationParams,
    add_awgn,
    normalize_to_range,
    phase_field,
    render_clean,
    render_noisy,
    sample_ned,
)

from oracles import speckle_noise_term

FIG3 = fig3_phase_spec()


def fig3_params(ned_lambda: float) -> SimulationParams:
    return SimulationParams(a0c_sq=45.0, ned_lambda=ned_lambda, width=400, height=400)


def constant_phase(value: float) -> PhaseSpec:
    return PhaseSpec(terms=((1.0, Constant(value)),))


class _ForcedUniform:
    """Generator stand-in returning a fixed uniform draw."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None, out=None):
        if out is not None:
            out.fill(self.value)
            return out
        if size is None:
            return self.value
        return np.full(size, self.value)


class TestSampleNed:
    def test_zero_expectation_is_degenerate(self):
        rng = np.random.default_rng(0)
        assert sample_ned(0.0, rng) == 0.0
        assert not sample_ned(0.0, rng, (64,)).any()

    def test_inverse_cdf_at_half(self):
        forced = _ForcedUniform(0.5)
        assert sample_ned(10.0, forced) == pytest.approx(-10 * math.log(0.5), rel=1e-12)
        assert sample_ned(10.0, forced) == pytest.approx(6.9315, abs=1e-4)

    def test_sample_mean_statistics(self):
        rng = np.random.default_rng(1)
        draws = sample_ned(50.0, rng, 1_000_000)
        # 3 sigma of the sample mean: 3 * 50 / 1000
        assert abs(draws.mean() - 50.0) < 0.15

    def test_negative_expectation_rejected(self):
        with pytest.raises(ValueError):
            sample_ned(-1.0, np.random.default_rng(0))


class TestRenderClean:
    def test_zero_phase_is_destructive(self):
        params = SimulationParams(a0c_sq=1.0, ned_lambda=0.0, width=8, height=6)
        img = render_clean(params, constant_phase(0.0))
        np.testing.assert_allclose(img, 0.0, atol=1e-12)

    def test_pi_phase_is_constructive(self):
        params = SimulationParams(a0c_sq=1.0, ned_lambda=0.0, width=8, height=6)
        img = render_clean(params, constant_phase(np.pi))
        np.testing.assert_allclose(img, 8.0, rtol=1e-12)

    def test_range_invariant(self):
        params = SimulationParams(a0c_sq=45.0, ned_lambda=0.0, width=64, height=64)
        img = render_clean(params, FIG3)
        assert img.min() >= 0.0
        assert img.max() <= 8 * 45.0

    def test_column_100_mean_matches_brute_force_oracle(self):
        img = render_clean(fig3_params(0.0), FIG3)
        # brute force: per-pixel formula summed in plain Python (1-based i, j)
        i = 100
        total = 0.0
        for j in range(1, 401):
            dphi = (
                10 * math.exp(-((i - 110) ** 2) / 50000)
                + 180 * math.exp(-((j - 10) ** 2) / 50000)
                - math.pi
            )
            total += 4 * 45 * (1 + math.cos(dphi + math.pi))
        oracle_mean = total / 400
        column_mean = img[:, 99].mean()  # 100th column, image stored row-major
        assert column_mean == pytest.approx(oracle_mean, rel=1e-12)
        # reported noise-free reference value, index-origin tolerance
        assert abs(column_mean - 185.33) < 3.0


class TestRenderNoisy:
    def test_zero_phase_difference_kills_noise_term(self):
        params = SimulationParams(a0c_sq=45.0, ned_lambda=5.0, width=16, height=16)
        img = render_noisy(params, constant_phase(0.0), np.random.default_rng(3))
        np.testing.assert_allclose(img, 0.0, atol=1e-10)

    def test_single_pixel_hand_formula(self):
        # lambda = 0 and a forced speckle phase of pi/2 at phase difference pi
        params = SimulationParams(a0c_sq=45.0, ned_lambda=0.0, width=1, height=1)
        forced = _ForcedUniform(0.25)  # phi0 = pi - 2*pi*0.25 = pi/2
        img = render_noisy(params, constant_phase(np.pi), forced)
        a0_sq = 45.0
        phi0 = np.pi / 2
        dphi = np.pi
        base = 4 * a0_sq + 4 * a0_sq * math.cos(dphi + math.pi)
        n = speckle_noise_term(a0_sq, 1.0, dphi, phi0)
        assert n == pytest.approx(-4 * a0_sq * 2 * math.cos(2 * phi0 + dphi), rel=1e-12)
        assert img[0, 0] == pytest.approx(base + n, rel=1e-12)

    def test_bit_reproducible_for_fixed_seed(self):
        params = fig3_params(10.0)
        a = render_noisy(params, FIG3, np.random.default_rng(77))
        b = render_noisy(params, FIG3, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_evaluated_field_renders_as_its_spec(self):
        params = SimulationParams(a0c_sq=45.0, ned_lambda=10.0, width=48, height=40)
        field = phase_field(params, FIG3)
        assert phase_field(params, field) is field
        assert render_clean(params, field).tobytes() == render_clean(params, FIG3).tobytes()
        a = render_noisy(params, field, np.random.default_rng(5))
        b = render_noisy(params, FIG3, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()

    def test_normalized_contrast_decreases_with_lambda(self):
        # contrast degradation: normalized column means drop as the noise
        # expectation grows, on every seed
        for seed in range(10):
            means = []
            for lam in (0.0, 5.0, 10.0):
                rng = np.random.default_rng(seed)
                img = render_noisy(fig3_params(lam), FIG3, rng)
                means.append(normalize_to_range(img)[:, 99].mean())
            assert means[0] > means[1] > means[2]


class TestNormalize:
    def test_constant_maps_to_zeros(self):
        out = normalize_to_range(np.full((4, 4), 7.25))
        np.testing.assert_array_equal(out, 0.0)

    def test_two_point_scaling(self):
        out = normalize_to_range(np.array([0.0, 510.0]))
        np.testing.assert_array_equal(out, [0.0, 255.0])

    def test_affine_midpoint(self):
        out = normalize_to_range(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 127.5, 255.0])

    def test_extremes_exact(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(-37.3, 911.7, (40, 40))
        out = normalize_to_range(img)
        assert out.min() == 0.0
        assert out.max() == 255.0

    @pytest.mark.parametrize("img", [np.full((3, 5), 7.25), np.array([[2.0, 9.5, 9.5], [-4.0, 9.5, 1.0]])])
    def test_in_place_equals_a_fresh_result(self, img):
        want = normalize_to_range(img)
        got = img.copy()
        assert normalize_to_range(got, out=got) is got
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 10_000))
    def test_idempotent_on_normalized_images(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.uniform(0, 255, (6, 6))
        once = normalize_to_range(img)
        twice = normalize_to_range(once)
        np.testing.assert_array_equal(once, twice)


class TestAddAwgn:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 255, (16, 16))
        np.testing.assert_array_equal(add_awgn(img, 0.0, np.random.default_rng(0)), img)

    def test_noise_statistics(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 255, (512, 512))
        out = add_awgn(img, 10.0, np.random.default_rng(7))
        delta = out - img
        assert 9.9 <= delta.std() <= 10.1
        assert abs(delta.mean()) <= 0.1

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros((2, 2)), -1.0, np.random.default_rng(0))


class TestSimulationParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SimulationParams(a0c_sq=0.0, ned_lambda=0.0, width=8, height=8)
        with pytest.raises(ValueError):
            SimulationParams(a0c_sq=1.0, ned_lambda=-2.0, width=8, height=8)
        with pytest.raises(ValueError):
            SimulationParams(a0c_sq=1.0, ned_lambda=0.0, width=0, height=8)
