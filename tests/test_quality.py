import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fringe_denoise.layers import ShapeError
from fringe_denoise.quality import (
    binarize,
    mae,
    otsu_threshold,
    psnr,
    ssim_mean,
    thin,
)

from oracles import count_components_8, exhaustive_otsu, naive_ssim_mean, naive_zhang_suen


def fringe_binary(seed: int, size: int = 48) -> np.ndarray:
    """Synthetic banded pattern: thick smooth stripes, like binarized fringes."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[:size, :size].astype(np.float64)
    fx, fy = rng.uniform(0.05, 0.35, 2)
    phase = fx * x + fy * y + rng.uniform(0, 3) * np.sin(x / 17) + rng.uniform(0, 2 * np.pi)
    return (np.cos(phase) > 0).astype(np.uint8)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.full((8, 8), 40.0)
        assert psnr(img, img) == math.inf

    def test_full_scale_error_is_zero_db(self):
        a = np.zeros((16, 16))
        b = np.full((16, 16), 255.0)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_twenty_db_point(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 25.5)  # MSE = peak^2 / 100
        assert psnr(a, b) == pytest.approx(20.0, rel=1e-12)

    @given(st.integers(0, 10_000))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, (6, 6))
        b = rng.uniform(0, 255, (6, 6))
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(50, 200, (32, 32))
        for seed in range(10):
            r = np.random.default_rng(100 + seed)
            noise = r.standard_normal(base.shape)
            values = [psnr(base, base + s * noise) for s in (2.0, 8.0, 32.0)]
            assert values[0] > values[1] > values[2]

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, (20, 20))
        assert ssim_mean(img, img) == 1.0

    def test_constant_images_luminance_only(self):
        a = np.full((15, 15), 100.0)
        b = np.full((15, 15), 150.0)
        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 150 + c1) / (100**2 + 150**2 + c1)
        assert ssim_mean(a, b) == pytest.approx(expected, abs=1e-12)
        assert ssim_mean(b, a) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_independent_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, (16, 18))
        b = np.clip(a + rng.normal(0, 20, a.shape), 0, 255)
        assert ssim_mean(a, b) == pytest.approx(naive_ssim_mean(a, b), abs=1e-6)

    @pytest.mark.parametrize("shape", [(11, 11), (11, 37), (37, 11), (40, 40)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    def test_separable_filter_matches_reference(self, shape, dtype):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.uniform(0, 255, shape)
        b = np.clip(a + rng.normal(0, 30, shape), 0, 255)
        a, b = a.astype(dtype), b.astype(dtype)
        assert ssim_mean(a, b) == pytest.approx(naive_ssim_mean(a, b), rel=0, abs=1e-9)

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            ssim_mean(np.zeros((8, 8)), np.zeros((8, 8)))


class TestMae:
    def test_identical(self):
        img = np.arange(12.0).reshape(3, 4)
        assert mae(img, img) == 0.0

    def test_constant_offset(self):
        img = np.arange(12.0).reshape(3, 4)
        assert mae(img, img + 5) == 5.0

    def test_swapped_values(self):
        assert mae(np.array([[0.0, 10.0]]), np.array([[10.0, 0.0]])) == 10.0

    @given(st.integers(0, 10_000))
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, (5, 5))
        b = rng.uniform(0, 255, (5, 5))
        assert mae(a, b) == mae(b, a)


class TestBinarize:
    def test_two_level_image(self):
        img = np.zeros((10, 10))
        img[:, 5:] = 255.0
        out = binarize(img)
        assert not out[:, :5].any()
        assert out[:, 5:].all()

    def test_constant_maps_to_zeros(self):
        out = binarize(np.full((6, 6), 42.0))
        assert not out.any()
        assert out.dtype == np.uint8

    @pytest.mark.parametrize("seed", range(5))
    def test_otsu_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.normal(60, 12, 600)
        hi = rng.normal(190, 20, 400)
        img = np.clip(np.concatenate([lo, hi]), 0, 255).reshape(25, 40)
        assert otsu_threshold(img) == exhaustive_otsu(img)


class TestThin:
    def test_thin_line_unchanged(self):
        img = np.zeros((5, 9), dtype=np.uint8)
        img[2, 1:8] = 1
        np.testing.assert_array_equal(thin(img), img)

    def test_empty_image(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        np.testing.assert_array_equal(thin(img), img)

    def test_bar_reduces_to_reference_oracle_output(self):
        bar = np.zeros((5, 12), dtype=np.uint8)
        bar[1:4, 1:11] = 1
        out = thin(bar)
        np.testing.assert_array_equal(out, naive_zhang_suen(bar))
        # frozen oracle result: a single 1-pixel-wide path on the middle row
        expected = np.zeros((5, 12), dtype=np.uint8)
        expected[2, 2:9] = 1
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_fringe_suite_properties(self, seed):
        img = fringe_binary(seed)
        skel = thin(img)
        # never adds pixels
        assert not (skel & ~img).any()
        # idempotent
        np.testing.assert_array_equal(thin(skel), skel)
        # preserves 8-connected component count
        assert count_components_8(skel) == count_components_8(img)

    @given(
        arrays(
            np.uint8,
            st.tuples(st.integers(4, 12), st.integers(4, 12)),
            elements=st.integers(0, 1),
        )
    )
    def test_subset_and_idempotent_on_random_binaries(self, img):
        skel = thin(img)
        assert not (skel & ~img).any()
        np.testing.assert_array_equal(thin(skel), skel)

    def test_matches_naive_oracle_on_fringe_suite(self):
        for seed in (0, 3, 7):
            img = fringe_binary(seed, size=24)
            np.testing.assert_array_equal(thin(img), naive_zhang_suen(img))

    def test_matches_naive_oracle_on_every_3x3_neighbourhood(self):
        # Each of the 512 binary 3x3 images, zero-padded to 5x5, gives the
        # centre pixel every one of the 256 neighbour codes in the first
        # subiteration.  The second subiteration sees only 74 of them here.
        for bits in range(512):
            img = np.zeros((5, 5), dtype=np.uint8)
            img[1:4, 1:4] = (bits >> np.arange(9).reshape(3, 3)) & 1
            np.testing.assert_array_equal(thin(img), naive_zhang_suen(img), err_msg=str(bits))

    def test_matches_naive_oracle_on_random_8x8(self):
        # These images give set pixels all 256 neighbour codes in both
        # subiterations.  Flipping any one deletion-table entry changes some
        # output here, except codes 131 and 224 of the second table: they
        # changed none of 3000 random 10x10 images either.
        rng = np.random.default_rng(0)
        for i in range(600):
            img = (rng.random((8, 8)) < rng.uniform(0.3, 0.9)).astype(np.uint8)
            np.testing.assert_array_equal(thin(img), naive_zhang_suen(img), err_msg=str(i))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            thin(np.full((4, 4), 3))
