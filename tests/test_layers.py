import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringe_denoise import layers
from fringe_denoise.layers import (
    INFER,
    TRAIN,
    BatchNormParams,
    ConvParams,
    ShapeError,
    batchnorm_affine,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    he_init,
    leaky_relu_backward,
    leaky_relu_forward,
)

from oracles import finite_diff_grad, naive_conv2d, rel_err


def make_conv(rng, m, c, k, dtype=np.float64):
    return ConvParams(
        weights=rng.standard_normal((m, c, k, k)).astype(dtype),
        bias=rng.standard_normal(m).astype(dtype),
    )


def make_bn(c, dtype=np.float64):
    return BatchNormParams(
        gamma=np.ones(c, dtype=dtype),
        beta=np.zeros(c, dtype=dtype),
        running_mean=np.zeros(c, dtype=dtype),
        running_var=np.ones(c, dtype=dtype),
    )


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` allocates at its high-water, above what it
    starts with; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


class TestConvForward:
    def test_all_ones_overlap_counts(self):
        x = np.ones((1, 1, 3, 3))
        p = ConvParams(weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1))
        out = conv2d_forward(x, p)[0, 0]
        assert out[1, 1] == 9
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 1, 6, 7))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d_forward(x, ConvParams(weights=w, bias=np.zeros(1)))
        np.testing.assert_array_equal(out, x)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 8, 8))
        p = make_conv(rng, 4, 3, 5)
        fast = conv2d_forward(x, p)
        slow = naive_conv2d(x, p.weights, p.bias)
        assert rel_err(fast, slow) < 1e-12

    def test_channel_mismatch_names_both_shapes(self):
        rng = np.random.default_rng(3)
        p = make_conv(rng, 2, 3, 3)
        with pytest.raises(ShapeError, match="2, 1, 4, 4"):
            conv2d_forward(np.zeros((2, 1, 4, 4)), p)


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 5, 5))
        p = make_conv(rng, 3, 2, 3)
        gx, gw, gb = conv2d_backward(x, p, np.zeros((2, 3, 5, 5)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_channel_mismatch_rejected(self):
        # Weights (4, 3, 3, 3) against a 5-channel input: the grad_out shape
        # check alone would pass.
        rng = np.random.default_rng(4)
        p = make_conv(rng, 4, 3, 3)
        with pytest.raises(ShapeError, match="2, 5, 6, 6"):
            conv2d_backward(np.zeros((2, 5, 6, 6)), p, np.zeros((2, 4, 6, 6)))

    def test_non_4d_input_rejected(self):
        rng = np.random.default_rng(4)
        p = make_conv(rng, 4, 3, 3)
        with pytest.raises(ShapeError, match="4-D"):
            conv2d_backward(np.zeros((3, 6, 6)), p, np.zeros((1, 4, 6, 6)))

    def test_identity_kernel_adjoint_is_identity(self):
        x = np.zeros((1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        g = np.zeros((1, 1, 5, 5))
        g[0, 0, 2, 3] = 1.0
        gx, _, _ = conv2d_backward(x, ConvParams(weights=w, bias=np.zeros(1)), g)
        np.testing.assert_array_equal(gx, g)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 6, 6))
        p = make_conv(rng, 3, 2, 3)
        r = rng.standard_normal((2, 3, 6, 6))  # fixed projection to a scalar
        gx, gw, gb = conv2d_backward(x, p, r)

        fd_x = finite_diff_grad(lambda a: float(np.vdot(conv2d_forward(a, p), r)), x)
        assert rel_err(gx, fd_x) < 1e-6

        def loss_w(wa):
            q = ConvParams(weights=wa, bias=p.bias)
            return float(np.vdot(conv2d_forward(x, q), r))

        assert rel_err(gw, finite_diff_grad(loss_w, p.weights)) < 1e-6

        def loss_b(ba):
            q = ConvParams(weights=p.weights, bias=ba)
            return float(np.vdot(conv2d_forward(x, q), r))

        assert rel_err(gb, finite_diff_grad(loss_b, p.bias)) < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_adjoint_dot_product_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, c, m, k = 2, 3, 4, 5
        x = rng.standard_normal((n, c, 7, 6))
        p = ConvParams(
            weights=rng.standard_normal((m, c, k, k)), bias=np.zeros(m)
        )
        y = rng.standard_normal((n, m, 7, 6))
        lhs = float(np.vdot(conv2d_forward(x, p), y))
        gx, _, _ = conv2d_backward(x, p, y)
        rhs = float(np.vdot(x, gx))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10


# (n, c, m, k, h, w): one-channel input or output, kernel sizes 1, 3 and 5,
# non-square images and images narrower or shorter than the kernel.
CONV_CASES = [
    (2, 1, 3, 3, 5, 7),
    (2, 3, 1, 3, 6, 4),
    (1, 1, 1, 5, 4, 6),
    (2, 2, 3, 1, 3, 5),
    (2, 3, 2, 5, 7, 3),
    (1, 2, 2, 5, 2, 2),
    (3, 4, 5, 3, 1, 6),
]
# Largest relative error accepted against a float64 oracle, per dtype.
CONV_TOL = {np.float32: 1e-5, np.float64: 1e-10}


def conv_case(case, dtype, seed):
    n, c, m, k, h, w = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    p = make_conv(rng, m, c, k, dtype)
    r = rng.standard_normal((n, m, h, w)).astype(dtype)
    return x, p, r


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CONV_CASES)
class TestConvShapeMatrix:
    def test_forward_matches_naive_loop_oracle(self, case, dtype):
        x, p, _ = conv_case(case, dtype, 300)
        out = conv2d_forward(x, p)
        assert out.dtype == dtype and out.flags.c_contiguous
        ref = naive_conv2d(x.astype(np.float64), p.weights.astype(np.float64), p.bias)
        assert rel_err(out, ref) < CONV_TOL[dtype]

    def test_gradients_match_finite_differences(self, case, dtype):
        x, p, r = conv_case(case, dtype, 301)
        gx, gw, gb = conv2d_backward(x, p, r)
        assert gx.dtype == gw.dtype == gb.dtype == dtype
        # Central differences of the float64 map at the same point.
        x64, r64 = x.astype(np.float64), r.astype(np.float64)
        p64 = ConvParams(p.weights.astype(np.float64), p.bias.astype(np.float64))
        fd_x = finite_diff_grad(lambda a: float(np.vdot(conv2d_forward(a, p64), r64)), x64)
        assert rel_err(gx, fd_x) < CONV_TOL[dtype] + 1e-6

        def loss_w(wa):
            return float(np.vdot(conv2d_forward(x64, ConvParams(wa, p64.bias)), r64))

        fd_w = finite_diff_grad(loss_w, p64.weights.copy())
        assert rel_err(gw, fd_w) < CONV_TOL[dtype] + 1e-6
        assert rel_err(gb, r64.sum(axis=(0, 2, 3))) < CONV_TOL[dtype]

    def test_adjoint_dot_product_identity(self, case, dtype):
        x, p, y = conv_case(case, dtype, 302)
        p.bias[:] = 0
        gx, _, _ = conv2d_backward(x, p, y)
        lhs = float(np.vdot(conv2d_forward(x, p).astype(np.float64), y.astype(np.float64)))
        rhs = float(np.vdot(x.astype(np.float64), gx.astype(np.float64)))
        assert abs(lhs - rhs) <= CONV_TOL[dtype] * np.linalg.norm(x) * np.linalg.norm(gx)

    def test_skipping_input_grad_keeps_weight_grads(self, case, dtype):
        x, p, r = conv_case(case, dtype, 303)
        _, gw, gb = conv2d_backward(x, p, r)
        skipped = conv2d_backward(x, p, r, need_input_grad=False)
        assert skipped[0] is None
        np.testing.assert_array_equal(skipped[1], gw)
        np.testing.assert_array_equal(skipped[2], gb)


def test_float64_input_promotes_float32_filters():
    """Inference on float64 data with float32 weights computes in float64."""
    x, p, _ = conv_case((2, 3, 4, 5, 6, 7), np.float64, 304)
    p32 = ConvParams(weights=p.weights.astype(np.float32), bias=p.bias.astype(np.float32))
    out = conv2d_forward(x, p32)
    assert out.dtype == np.float64
    assert rel_err(out, naive_conv2d(x, p32.weights.astype(np.float64), p32.bias)) < 1e-12


def one_block_shifted_conv(rows, taps, n, h, w):
    """``_shifted_conv`` with all output rows in one block: for each residue
    rho modulo k, kernel row u's k taps are one GEMM of the (rows, k*C)
    matrix that starts u*Wp + rho rows in, added in order of u."""
    k, _, c, m = taps.shape
    r, _ = layers._tap_geometry(n, h, w, k)
    wp, kc = w + k - 1, k * c
    flat = rows.reshape(-1)
    out = np.empty((n * (h + k - 1) * wp, m), dtype=rows.dtype)
    for rho in range(k):
        acc = out[rho:r:k]
        j = len(acc)
        for u, slab in enumerate(taps.reshape(k, kc, m)):
            lo = (rho + u * wp) * c
            product = flat[lo : lo + j * kc].reshape(j, kc) @ slab
            if u == 0:
                acc[...] = product
            else:
                acc += product
    return out.reshape(n, h + k - 1, wp, m)[:, :h, :w].transpose(0, 3, 1, 2)


class TestBlockedTapProducts:
    # 64 filters on 4 x 72 x 72: R = 22796 output rows of 256 bytes, one
    # past a multiple of k, which the product budget splits into two row
    # blocks.  FWD_PEAK and BWD_PEAK are the bytes conv2d_forward and
    # conv2d_backward allocated at their high-water with one GEMM per tap,
    # rounded up to a KiB (small Python objects move them by tens of bytes).
    # With the product buffer and the residue accumulator the traced peaks
    # are 14 199 and 14 999 KiB (k = 3: 14 699 and 14 772 KiB).
    N, C, M, K, H, W = 4, 64, 64, 5, 72, 72
    FWD_PEAK, BWD_PEAK = 16_563 << 10, 17_365 << 10

    def case(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((self.N, self.C, self.H, self.W)).astype(np.float32)
        p = make_conv(rng, self.M, self.C, self.K, np.float32)
        g = rng.standard_normal((self.N, self.M, self.H, self.W)).astype(np.float32)
        r, _ = layers._tap_geometry(self.N, self.H, self.W, self.K)
        assert r % self.K != 0
        assert r * self.M * 4 > layers.PRODUCT_BYTES  # two blocks or more
        return x, p, g

    def test_forward_bitwise_equal_to_one_block(self):
        x, p, _ = self.case()
        rows = layers._padded_rows(x, self.K // 2, np.float32)
        taps = p.weights.transpose(2, 3, 1, 0).astype(np.float32)
        expect = np.add(
            one_block_shifted_conv(rows, taps, self.N, self.H, self.W),
            p.bias[None, :, None, None],
            order="C",
        )
        np.testing.assert_array_equal(conv2d_forward(x, p).view(np.uint32), expect.view(np.uint32))

    def test_input_gradient_bitwise_equal_to_one_block(self):
        x, p, g = self.case()
        grad_rows = layers._padded_rows(g, self.K // 2, np.float32)
        adjoint = p.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).astype(np.float32)
        expect = np.ascontiguousarray(
            one_block_shifted_conv(grad_rows, adjoint, self.N, self.H, self.W)
        )
        gx, _, _ = conv2d_backward(x, p, g)
        assert gx.flags.c_contiguous
        np.testing.assert_array_equal(gx.view(np.uint32), expect.view(np.uint32))

    def test_forward_allocates_no_more_than_one_gemm_per_tap(self):
        x, p, _ = self.case()
        assert traced_peak(conv2d_forward, x, p) <= self.FWD_PEAK

    def test_backward_allocates_no_more_than_one_gemm_per_tap(self):
        x, p, g = self.case()
        assert traced_peak(conv2d_backward, x, p, g) <= self.BWD_PEAK


class TestBlockedTapProductsK3(TestBlockedTapProducts):
    # A 3 x 3 kernel: R = 45902 rows of 128 bytes, two past a multiple of k,
    # in two row blocks.
    N, C, M, K, H, W = 2, 32, 32, 3, 150, 150
    FWD_PEAK, BWD_PEAK = 16_199 << 10, 16_272 << 10


class TestOneBlockShiftedConv:
    """At a desk-like shape that fits one row block, the conv output and
    the input gradient equal ``one_block_shifted_conv`` bit for bit, also
    with one output channel, where each residue's strided rows are one
    column."""

    N, H, W, K = 2, 40, 40, 5

    def case(self, m, c):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((self.N, c, self.H, self.W)).astype(np.float32)
        p = make_conv(rng, m, c, self.K, np.float32)
        g = rng.standard_normal((self.N, m, self.H, self.W)).astype(np.float32)
        r, _ = layers._tap_geometry(self.N, self.H, self.W, self.K)
        assert r * max(m, c) * 4 <= layers.PRODUCT_BYTES  # one block
        return x, p, g

    @pytest.mark.parametrize("m,c", [(1, 16), (16, 16)])
    def test_forward_bitwise_equal_to_one_block(self, m, c):
        x, p, _ = self.case(m, c)
        rows = layers._padded_rows(x, self.K // 2, np.float32)
        taps = p.weights.transpose(2, 3, 1, 0)
        expect = np.add(
            one_block_shifted_conv(rows, taps, self.N, self.H, self.W),
            p.bias[None, :, None, None],
            order="C",
        )
        np.testing.assert_array_equal(conv2d_forward(x, p).view(np.uint32), expect.view(np.uint32))

    def test_one_channel_input_gradient_bitwise_equal_to_one_block(self):
        x, p, g = self.case(16, 1)
        grad_rows = layers._padded_rows(g, self.K // 2, np.float32)
        adjoint = p.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
        expect = one_block_shifted_conv(grad_rows, adjoint, self.N, self.H, self.W)
        gx, _, _ = conv2d_backward(x, p, g)
        assert gx.shape == (self.N, 1, self.H, self.W)
        np.testing.assert_array_equal(gx.view(np.uint32), np.ascontiguousarray(expect).view(np.uint32))


class TestLeakyRelu:
    def test_negative_halved(self):
        assert leaky_relu_forward(np.array([[[[-2.0]]]]), 0.5) == -1.0

    def test_positive_passthrough(self):
        for alpha in (0.0, 0.3, 1.0):
            assert leaky_relu_forward(np.array([[[[3.0]]]]), alpha) == 3.0

    def test_alpha_zero_is_relu(self):
        assert leaky_relu_forward(np.array([[[[-5.0]]]]), 0.0) == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
    def test_alpha_one_is_identity(self, values):
        x = np.array(values).reshape(1, 1, 1, -1)
        np.testing.assert_array_equal(leaky_relu_forward(x, 1.0), x)

    def test_backward_cases(self):
        g = np.full((1, 1, 1, 1), 2.0)
        assert leaky_relu_backward(np.array([[[[4.0]]]]) >= 0, 0.5, g) == 2.0
        assert leaky_relu_backward(np.array([[[[-4.0]]]]) >= 0, 0.5, g) == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 4, 4))
        x[np.abs(x) < 1e-3] = 0.5  # keep samples away from the kink
        r = rng.standard_normal(x.shape)
        alpha = 0.25
        g = leaky_relu_backward(x >= 0, alpha, r)
        fd = finite_diff_grad(
            lambda a: float(np.vdot(leaky_relu_forward(a, alpha), r)), x
        )
        assert rel_err(g, fd) < 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.0])
    def test_bitwise_equal_to_two_branch_formula(self, alpha, dtype):
        """max(x, alpha*x) against where(x > 0, x, alpha*x), bit for bit,
        on finite values including signed zeros and, for alpha > 0, on
        NaN and both infinities.  At alpha = 0 the +inf case is pinned too:
        it stays +inf even though 0 * inf is NaN."""
        info = np.finfo(dtype)
        x = np.concatenate([
            np.random.default_rng(5).standard_normal(64) * 100,
            [0.0, -0.0, info.tiny, -info.tiny, info.smallest_subnormal,
             -info.smallest_subnormal, info.max, -info.max, 1.0, -1.0],
            [np.nan, np.inf, -np.inf] if alpha > 0 else [np.nan, np.inf],
        ]).astype(dtype).reshape(1, 1, 1, -1)
        with np.errstate(invalid="ignore"):  # 0 * inf
            expect = np.where(x > 0, x, np.asarray(alpha, dtype=dtype) * x)
            out = leaky_relu_forward(x, alpha)
        assert out.dtype == dtype
        bits = np.uint32 if dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(out.view(bits), expect.view(bits))

    @pytest.mark.parametrize(
        "x_dtype,g_dtype",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 1.0])
    def test_backward_bitwise_equal_to_where_formula(self, alpha, x_dtype, g_dtype):
        """The slope lookup on the mask x >= 0 against
        grad_out * np.where(x >= 0, 1, alpha) in grad_out's dtype, bit for
        bit, on signed zeros, NaN, both infinities and random values, over
        three samples; then the same values as 2-D, 1-D and 0-D inputs."""
        rng = np.random.default_rng(6)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf]
        x = np.concatenate([rng.standard_normal(64) * 100, special]).astype(x_dtype)
        g = np.concatenate([special, rng.standard_normal(64) * 100]).astype(g_dtype)
        x, g = x.reshape(3, 1, 1, -1), g.reshape(3, 1, 1, -1)
        with np.errstate(invalid="ignore"):  # 0 * inf
            expect = g * np.where(x >= 0, g.dtype.type(1.0), g.dtype.type(alpha))
            out = leaky_relu_backward(x >= 0, alpha, g)
        assert out.dtype == expect.dtype == g_dtype
        bits = np.uint32 if out.dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(out.view(bits), expect.view(bits))
        flat_x, flat_g = x.ravel(), g.ravel()
        cases = [(x.reshape(3, -1), g.reshape(3, -1)), (flat_x, flat_g)]
        cases += [(flat_x[i, ...], flat_g[i, ...]) for i in range(flat_x.size)]  # 0-D
        for xs, gs in cases:
            with np.errstate(invalid="ignore"):
                want = np.asarray(gs * np.where(xs >= 0, gs.dtype.type(1.0), gs.dtype.type(alpha)))
                got = leaky_relu_backward(xs >= 0, alpha, gs)
            assert got.shape == xs.shape and got.dtype == out.dtype
            np.testing.assert_array_equal(got.view(bits), want.view(bits))

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            leaky_relu_forward(np.zeros((1, 1, 1, 1)), 1.5)

    def test_forward_allocates_one_activation(self):
        # The result is written into the alpha*x array.  A quarter of an
        # activation of 1 MiB is left for numpy's ufunc buffers.
        x = np.random.default_rng(7).standard_normal((8, 16, 32, 32))
        peak = traced_peak(leaky_relu_forward, x, 0.5)
        assert peak <= 1.25 * x.nbytes, f"peak {peak / x.nbytes:.2f} activations"


class TestBatchNormForward:
    def test_standardizes_two_values(self):
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        out, _ = batchnorm_forward(x, make_bn(1), TRAIN)
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0], atol=1e-4)

    def test_scale_and_shift(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 2, 5, 5))
        bn = make_bn(2)
        bn.gamma[:] = 2.0
        bn.beta[:] = 5.0
        out, _ = batchnorm_forward(x, bn, TRAIN)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), [5.0, 5.0], atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), [2.0, 2.0], atol=1e-3)

    def test_infer_with_unit_stats_is_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 4))
        out, cache = batchnorm_forward(x, make_bn(3), INFER)
        assert cache is None
        # 1/sqrt(1 + eps) deviates from 1 by eps/2
        np.testing.assert_allclose(out, x, rtol=1e-5, atol=1e-12)

    def test_train_statistics_are_standardized(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 4, 10, 10)) * 7 + 3
        out, _ = batchnorm_forward(x, make_bn(4), TRAIN)
        mu = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mu).max() < 1e-6
        assert np.abs(var - 1).max() < 1e-4

    def test_running_stats_update(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 1, 3, 3)) * 2 + 1
        bn = make_bn(1)
        batchnorm_forward(x, bn, TRAIN)
        count = x.size
        expected_mean = 0.9 * 0.0 + 0.1 * x.mean()
        expected_var = 0.9 * 1.0 + 0.1 * x.var() * count / (count - 1)
        np.testing.assert_allclose(bn.running_mean, [expected_mean], rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, [expected_var], rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_is_the_affine_map_of_the_running_x_hat(self, dtype):
        """INFER normalizes as TRAIN does, with the running statistics in
        place of the batch's, and ends in ``batchnorm_affine``: bit for bit."""
        rng = np.random.default_rng(15)
        x = (rng.standard_normal((3, 4, 9, 7)) * 20 + 5).astype(dtype)
        bn = make_bn(4, dtype)
        bn.gamma[:] = rng.uniform(0.3, 2.0, 4)
        bn.beta[:] = rng.standard_normal(4) * 3
        bn.running_mean[:] = rng.standard_normal(4) * 4
        bn.running_var[:] = rng.uniform(0.5, 400.0, 4)
        inv_std = 1.0 / np.sqrt(bn.running_var + dtype(bn.epsilon))
        x_hat = (x - bn.running_mean[None, :, None, None]) * inv_std[None, :, None, None]
        expect = batchnorm_affine(x_hat, bn.gamma, bn.beta)
        out, cache = batchnorm_forward(x, bn, INFER)
        assert cache is None and out.dtype == dtype
        bits = np.uint32 if dtype == np.float32 else np.uint64
        np.testing.assert_array_equal(out.view(bits), expect.view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_variance_bitwise_equal_to_numpy_var(self, dtype):
        """The batch variance, taken from the centred array, has the bits of
        ``x.var``: seen through inv_std and, with momentum 0, through the
        running variance (the unbiased estimate), channel by channel."""
        rng = np.random.default_rng(17)
        scale = rng.uniform(0.01, 50.0, 32)[None, :, None, None]
        x = (rng.standard_normal((6, 32, 13, 11)) * scale + 3 * scale).astype(dtype)
        bn = make_bn(32, dtype)
        bn.momentum = 0.0
        _, (_, inv_std, _, count) = batchnorm_forward(x, bn, TRAIN)
        var = x.var(axis=(0, 2, 3))
        bits = np.uint32 if dtype == np.float32 else np.uint64
        expect = 1.0 / np.sqrt(var + dtype(bn.epsilon))
        np.testing.assert_array_equal(inv_std.view(bits), expect.view(bits))
        unbiased = var * (count / (count - 1))
        np.testing.assert_array_equal(bn.running_var.view(bits), unbiased.view(bits))

    def test_train_allocates_two_activations(self):
        # x_hat, built in place in the subtraction's array, and the output;
        # the variance's scratch array is freed before the output is made.  A quarter
        # of an activation of 1 MiB is left for numpy's ufunc buffers (64 KiB
        # per broadcast operand) and the per-channel vectors.
        x = np.random.default_rng(16).standard_normal((8, 16, 32, 32))
        peak = traced_peak(batchnorm_forward, x, make_bn(16), TRAIN)
        assert peak <= 2.25 * x.nbytes, f"peak {peak / x.nbytes:.2f} activations"

    def test_single_element_statistics_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            batchnorm_forward(np.zeros((1, 2, 1, 1)), make_bn(2), TRAIN)


class TestBatchNormBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 2, 4, 4))
        _, cache = batchnorm_forward(x, make_bn(2), TRAIN)
        gx, gg, gb = batchnorm_backward(cache, np.zeros_like(x))
        assert not gx.any() and not gg.any() and not gb.any()

    def test_grad_beta_is_sum(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 2, 4, 4))
        g = rng.standard_normal(x.shape)
        _, cache = batchnorm_forward(x, make_bn(2), TRAIN)
        _, _, gb = batchnorm_backward(cache, g)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.standard_normal((2, 2, 3, 4))
        gamma = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        r = rng.standard_normal(x.shape)

        def forward(xa, ga, ba):
            bn = make_bn(2)
            bn.gamma[:] = ga
            bn.beta[:] = ba
            out, cache = batchnorm_forward(xa, bn, TRAIN)
            return out, cache

        out, cache = forward(x, gamma, beta)
        gx, gg, gb = batchnorm_backward(cache, r)
        assert rel_err(gx, finite_diff_grad(lambda a: float(np.vdot(forward(a, gamma, beta)[0], r)), x.copy())) < 1e-5
        assert rel_err(gg, finite_diff_grad(lambda a: float(np.vdot(forward(x, a, beta)[0], r)), gamma.copy())) < 1e-5
        assert rel_err(gb, finite_diff_grad(lambda a: float(np.vdot(forward(x, gamma, a)[0], r)), beta.copy())) < 1e-5

    @pytest.mark.parametrize(
        "x_dtype,g_dtype",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    )
    def test_bitwise_equal_to_expression(self, x_dtype, g_dtype):
        """The in-place backward against the plain expression it replaces,
        gamma * inv_std * (dy - (sum(dy) + x_hat * sum(dy * x_hat)) / count)
        with the division by count taken on the sums, bit for bit and in the
        same dtypes; grad_out is left as it was."""

        def expression(cache, grad_out):
            x_hat, inv_std, gamma, count = cache
            grad_beta = grad_out.sum(axis=(0, 2, 3))
            grad_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
            c = (None, slice(None), None, None)
            grad_x = (gamma * inv_std)[c] * (
                grad_out - (x_hat * (grad_gamma / count)[c] + (grad_beta / count)[c])
            )
            return grad_x, grad_gamma, grad_beta

        rng = np.random.default_rng(14)
        x = (rng.standard_normal((4, 3, 6, 5)) * 30 + 7).astype(x_dtype)
        bn = make_bn(3, x_dtype)
        bn.gamma[:] = rng.uniform(0.5, 1.5, 3)
        _, cache = batchnorm_forward(x, bn, TRAIN)
        g = rng.standard_normal(x.shape).astype(g_dtype)
        g_before = g.copy()
        for out, expect in zip(batchnorm_backward(cache, g), expression(cache, g)):
            assert out.dtype == expect.dtype
            bits = np.uint32 if out.dtype == np.float32 else np.uint64
            np.testing.assert_array_equal(out.view(bits), expect.view(bits))
        np.testing.assert_array_equal(g, g_before)

    def test_infer_cache_rejected(self):
        with pytest.raises(ValueError, match="TRAIN"):
            batchnorm_backward(None, np.zeros((1, 1, 2, 2)))

    def test_allocates_one_activation(self):
        # The input gradient is built in the dy * x_hat array.  A quarter of
        # an activation of 1 MiB is left for numpy's ufunc buffers and the
        # per-channel vectors.
        x = np.random.default_rng(18).standard_normal((8, 16, 32, 32))
        _, cache = batchnorm_forward(x, make_bn(16), TRAIN)
        g = np.random.default_rng(19).standard_normal(x.shape)
        peak = traced_peak(batchnorm_backward, cache, g)
        assert peak <= 1.25 * x.nbytes, f"peak {peak / x.nbytes:.2f} activations"


class TestHeInit:
    def test_sample_variance_near_two_over_fan_in(self):
        rng = np.random.default_rng(14)
        w = he_init((100000,), fan_in=25, rng=rng, dtype=np.float64)
        assert 0.076 <= w.var() <= 0.084

    def test_deterministic_for_fixed_seed(self):
        a = he_init((4, 1, 5, 5), 25, np.random.default_rng(42))
        b = he_init((4, 1, 5, 5), 25, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_fan_in_rejected(self):
        with pytest.raises(ValueError):
            he_init((3,), 0, np.random.default_rng(0))
