import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringe_denoise.phase import (
    Constant,
    Gaussian2D,
    PhaseSpec,
    PhaseSpecError,
    Poly2,
    Product,
    eval_phase,
    fig3_phase_spec,
    phase_grid,
    random_phase_spec,
    spec_from_dict,
    spec_to_dict,
)


class TestEvalPhase:
    def test_zero_coefficients(self):
        spec = PhaseSpec(
            terms=(
                (0.0, Gaussian2D(amplitude=10, center_i=5, denom_i=100)),
                (0.0, Constant(3.0)),
            )
        )
        assert eval_phase(spec, 3, 4) == 0.0

    def test_reference_phase_at_gaussian_centers(self):
        # both bumps at full height: 10 + 180 - pi
        spec = fig3_phase_spec()
        assert eval_phase(spec, 110, 10) == pytest.approx(190 - math.pi, abs=1e-12)
        assert eval_phase(spec, 110, 10) == pytest.approx(186.8584, abs=1e-4)

    def test_gaussian_half_amplitude_point(self):
        spec = fig3_phase_spec()
        j_half = 10 + math.sqrt(50000 * math.log(2))
        val = eval_phase(spec, 110, j_half)
        # second term halves to 90; first stays 10
        assert val == pytest.approx(10 + 90 - math.pi, abs=1e-9)
        assert j_half == pytest.approx(196.2, abs=0.1)

    def test_poly_and_product_terms(self):
        poly = Poly2(scale_i=4.0, center_i=77.5, denom_i=300.0, scale_j=1.0, center_j=45.0, denom_j=200.0)
        # (2i - 155)^2 / 300 + (j - 45)^2 / 200 at i=80, j=50
        assert poly(80.0, 50.0) == pytest.approx((2 * 80 - 155) ** 2 / 300 + 25 / 200)
        gauss = Gaussian2D(amplitude=2.0, center_i=0, center_j=0, denom_i=100.0, denom_j=100.0)
        prod = Product(poly=poly, gauss=gauss)
        assert prod(3.0, 4.0) == pytest.approx(poly(3.0, 4.0) * gauss(3.0, 4.0))

    def test_grid_in_given_arrays_equals_the_written_out_sum(self):
        gauss = Gaussian2D(amplitude=2.0, center_i=3.0, center_j=9.0, denom_i=40.0, denom_j=70.0)
        poly = Poly2(scale_i=1.5, center_i=4.0, denom_i=30.0, scale_j=0.5, center_j=2.0, denom_j=10.0)
        spec = PhaseSpec(
            terms=((0.7, gauss), (1.3, poly), (0.9, Product(poly, gauss)), (1.0, Constant(-2.5)))
        )
        h, w = 13, 21
        j = np.arange(1, h + 1, dtype=np.float64)[:, None]
        i = np.arange(1, w + 1, dtype=np.float64)[None, :]
        g = 2.0 * np.exp(-np.square(i - 3.0) / 40.0 - np.square(j - 9.0) / 70.0)
        p = 1.5 * np.square(i - 4.0) / 30.0 + (0.5 * np.square(j - 2.0) / 10.0)
        want = np.zeros((h, w))
        for term in (0.7 * g, 1.3 * p, 0.9 * (p * g), 1.0 * (-2.5 * np.ones_like(i))):
            want += term
        out, value, spare = (np.full((h, w), np.nan) for _ in range(3))
        got = phase_grid(spec, h, w, out=out, scratch=(value, spare))
        assert got is out
        assert got.tobytes() == want.tobytes() == phase_grid(spec, h, w).tobytes()

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_grid_matches_scalar_evaluation(self, i, j):
        spec = fig3_phase_spec()
        grid = phase_grid(spec, height=4, width=4, origin=1)
        r, c = j % 4, i % 4
        assert grid[r, c] == pytest.approx(eval_phase(spec, c + 1, r + 1), rel=1e-15)

    def test_empty_spec_rejected(self):
        with pytest.raises(PhaseSpecError):
            PhaseSpec(terms=())

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(PhaseSpecError):
            Gaussian2D(amplitude=1.0, denom_i=0.0)
        with pytest.raises(PhaseSpecError):
            Poly2(denom_j=-5.0)

    def test_infinite_denominator_makes_axis_constant(self):
        g = Gaussian2D(amplitude=7.0, center_i=3.0, denom_i=100.0)
        assert g(3.0, -1e6) == pytest.approx(7.0)
        assert g(3.0, 1e6) == pytest.approx(7.0)


class TestRandomSpec:
    def test_deterministic_and_serializable(self):
        a = random_phase_spec(np.random.default_rng(42), 64, 64)
        b = random_phase_spec(np.random.default_rng(42), 64, 64)
        assert spec_to_dict(a) == spec_to_dict(b)
        round_tripped = spec_from_dict(spec_to_dict(a))
        grid_a = phase_grid(a, 16, 16)
        grid_rt = phase_grid(round_tripped, 16, 16)
        np.testing.assert_array_equal(grid_a, grid_rt)

    @pytest.mark.parametrize("seed", range(8))
    def test_fringe_density_spans_useful_range(self, seed):
        spec = random_phase_spec(np.random.default_rng(seed), 128, 128)
        grid = phase_grid(spec, 128, 128)
        gy, gx = np.gradient(grid)
        slope = np.hypot(gy, gx)
        # some fringes present, and the finest stay resolvable (>= ~4 px period)
        assert np.median(slope) > 0.01
        assert np.percentile(slope, 99) < 2.0 * np.pi / 4


class TestSpecFromDict:
    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"terms": 5},
            {"terms": [{"coeff": 1.0}]},
            {"terms": [{"term": {"kind": "constant", "value": 1.0}}]},
            {"terms": [{"coeff": "x", "term": {"kind": "constant", "value": 1.0}}]},
            {"terms": [{"coeff": 1.0, "term": {"kind": "constant", "valeu": 1.0}}]},
            {"terms": [{"coeff": 1.0, "term": {"value": 1.0}}]},
            {"terms": [{"coeff": 1.0, "term": {"kind": ["constant"], "value": 1.0}}]},
            {"terms": [{"coeff": 1.0, "term": {"kind": "product", "poly": {}}}]},
            {"terms": [{"coeff": 1.0, "term": {"kind": "gaussian2d", "amplitude": 1,
                                               "denom_i": "wide"}}]},
            {"terms": ["constant"]},
            [],
        ],
        ids=["empty", "terms-not-a-list", "no-term", "no-coeff", "coeff-not-a-number",
             "unknown-field", "no-kind", "kind-not-a-string", "product-without-gauss",
             "denom-not-a-number", "entry-not-an-object", "not-an-object"],
    )
    def test_malformed_record_is_phase_spec_error(self, data):
        with pytest.raises(PhaseSpecError):
            spec_from_dict(data)
