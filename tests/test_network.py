import tracemalloc

import numpy as np
import pytest

from fringe_denoise import network
from fringe_denoise.layers import (
    ShapeError,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    leaky_relu_backward,
    leaky_relu_forward,
)
from fringe_denoise.network import (
    INFER,
    TRAIN,
    NetworkConfig,
    build_network,
    denoise,
    iter_tensors,
    network_backward,
    network_forward,
)
from fringe_denoise.training import euclid_loss, evaluate_patches

from oracles import finite_diff_grad, grads_close, rel_err


def zero_weights(params):
    for _, arr in iter_tensors(params, trainable_only=True):
        arr[:] = 0
    for stage in params.layers:
        for layer in stage:
            if layer.bn is not None:
                layer.bn.gamma[:] = 1.0


def build_f64(config, seed=0):
    return build_network(config, np.random.default_rng(seed), dtype=np.float64)


def with_statistics(params, seed=34):
    """Give every batch norm a scale, shift and running statistics away
    from their initial 1, 0, 0 and 1."""
    rng = np.random.default_rng(seed)
    for stage in params.layers:
        for layer in stage:
            if layer.bn is not None:
                c = layer.bn.channels
                layer.bn.gamma[:] = rng.uniform(0.5, 1.5, c)
                layer.bn.beta[:] = rng.standard_normal(c)
                layer.bn.running_mean[:] = rng.standard_normal(c)
                layer.bn.running_var[:] = rng.uniform(0.2, 5.0, c)
    return params


class TestBuild:
    def test_minimal_network_shapes(self):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=1, kernel=1)
        params = build_f64(cfg)
        (stage,) = params.layers
        assert [l.conv.weights.shape for l in stage] == [(1, 1, 1, 1)] * 3
        assert stage[0].bn is None and stage[2].bn is None
        assert stage[1].bn is not None and stage[1].bn.gamma.shape == (1,)
        for layer in stage:
            assert not layer.conv.bias.any()
        assert stage[1].bn.gamma.tolist() == [1.0]
        assert not stage[1].bn.beta.any()

    def test_default_parameter_count_closed_form(self):
        cfg = NetworkConfig()  # S=3, D=8, 64 filters, 5x5
        params = build_network(cfg, np.random.default_rng(0))
        f, k, s, d = 64, 5, 3, 8
        closed_form = s * (
            (f * k * k + f)
            + (d - 2) * (f * f * k * k + f + 2 * f)
            + (f * k * k + 1)
        )
        assert closed_form == 1_856_451
        assert sum(a.size for _, a in iter_tensors(params, trainable_only=True)) == closed_form

    def test_same_seed_same_parameters(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=4)
        a = build_f64(cfg, seed=5)
        b = build_f64(cfg, seed=5)
        for (pa, ta), (pb, tb) in zip(iter_tensors(a), iter_tensors(b)):
            assert pa == pb
            np.testing.assert_array_equal(ta, tb)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(stages=0)
        with pytest.raises(ValueError):
            NetworkConfig(layers_per_stage=2)
        with pytest.raises(ValueError):
            NetworkConfig(kernel=4)


class TestForward:
    def test_zero_network_outputs_zero(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=4, filters=3, kernel=3)
        params = build_f64(cfg)
        zero_weights(params)
        z = np.random.default_rng(0).standard_normal((2, 1, 10, 10))
        v, _ = network_forward(z, params, cfg, mode=INFER)
        assert not v.any()

    @pytest.mark.parametrize("shape", [(80, 80), (105, 140)])
    def test_spatial_dims_preserved(self, shape):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2)
        params = build_f64(cfg)
        z = np.random.default_rng(1).standard_normal((1, 1) + shape)
        v, _ = network_forward(z, params, cfg, mode=INFER)
        assert v.shape == z.shape

    def test_single_stage_equals_stage_in_isolation(self):
        cfg2 = NetworkConfig(stages=2, layers_per_stage=3, filters=3, kernel=3)
        params2 = build_f64(cfg2, seed=3)
        cfg1 = NetworkConfig(stages=1, layers_per_stage=3, filters=3, kernel=3)
        stage1 = build_f64(cfg1, seed=99)
        stage1.layers[0] = params2.layers[0]

        z = np.random.default_rng(4).standard_normal((2, 1, 9, 9))
        v1, _ = network_forward(z, stage1, cfg1, mode=INFER)
        # feeding stage 1's output through stage 2 manually reproduces the chain
        stage2 = build_f64(cfg1, seed=99)
        stage2.layers[0] = params2.layers[1]
        v2, _ = network_forward(v1, stage2, cfg1, mode=INFER)
        v_full, _ = network_forward(z, params2, cfg2, mode=INFER)
        np.testing.assert_array_equal(v_full, v2)

    def test_multichannel_input_rejected(self):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2)
        params = build_f64(cfg)
        with pytest.raises(ShapeError):
            network_forward(np.zeros((1, 2, 8, 8)), params, cfg)

    def test_infer_independent_of_batch_composition(self):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=6)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((1, 1, 8, 8))
        b = rng.standard_normal((1, 1, 8, 8))
        v_single, _ = network_forward(a, params, cfg, mode=INFER)
        v_batch, _ = network_forward(np.concatenate([a, b]), params, cfg, mode=INFER)
        np.testing.assert_array_equal(v_batch[:1], v_single)

    def test_shift_covariance_in_interior(self):
        # The layer stack commutes with translations away from the border.
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=3, kernel=3)
        params = build_f64(cfg, seed=8)
        rng = np.random.default_rng(9)
        img = rng.standard_normal((1, 1, 24, 24))
        shift = 3
        shifted = np.roll(img, shift, axis=3)
        v, _ = network_forward(img, params, cfg, mode=INFER)
        v_shifted, _ = network_forward(shifted, params, cfg, mode=INFER)
        margin = cfg.receptive_radius + shift
        inner = (slice(None), slice(None), slice(margin, -margin), slice(margin, -margin))
        np.testing.assert_allclose(
            np.roll(v, shift, axis=3)[inner], v_shifted[inner], atol=1e-6
        )

    def test_receptive_field_radius_exact(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=10)
        rng = np.random.default_rng(11)
        z = rng.standard_normal((1, 1, 32, 32))
        z2 = z.copy()
        z2[0, 0, 16, 16] += 1.0
        v, _ = network_forward(z, params, cfg, mode=INFER)
        v2, _ = network_forward(z2, params, cfg, mode=INFER)
        diff = np.abs(v2 - v)[0, 0]
        radius = cfg.receptive_radius
        assert radius == 6
        yy, xx = np.mgrid[:32, :32]
        outside = np.maximum(np.abs(yy - 16), np.abs(xx - 16)) > radius
        assert not diff[outside].any()
        assert diff[16, 16] != 0

    def test_unknown_mode_rejected_before_any_conv(self, monkeypatch):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2)
        params = build_f64(cfg)
        calls = []
        monkeypatch.setattr(network, "conv2d_forward", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="mode must be"):
            network_forward(np.zeros((1, 1, 8, 8)), params, cfg, mode="Infer")
        assert calls == []

    def test_infer_folds_in_the_input_dtype(self):
        """Float32 parameters on a float64 input give the forward of their
        float64 copies: batch norm is folded in float64, not in float32."""
        cfg = NetworkConfig(stages=2, layers_per_stage=4, filters=3, kernel=3)
        params32 = with_statistics(build_network(cfg, np.random.default_rng(30)))
        params64 = build_f64(cfg)
        for (_, a64), (_, a32) in zip(iter_tensors(params64), iter_tensors(params32)):
            a64[:] = a32
        z = np.random.default_rng(31).standard_normal((2, 1, 12, 12)) * 50
        v32, _ = network_forward(z, params32, cfg, mode=INFER)
        v64, _ = network_forward(z, params64, cfg, mode=INFER)
        assert v32.dtype == np.float64
        assert rel_err(v32, v64) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_leaves_parameters_unchanged(self, dtype):
        cfg = NetworkConfig(stages=2, layers_per_stage=4, filters=3, kernel=3)
        params = with_statistics(build_network(cfg, np.random.default_rng(32), dtype=dtype))
        before = [(path, a.copy()) for path, a in iter_tensors(params)]
        rng = np.random.default_rng(33)
        z = rng.standard_normal((2, 1, 12, 12))
        patches = [tuple(rng.uniform(0, 255, (2, 16, 16))) for _ in range(3)]
        network_forward(z, params, cfg, mode=INFER)
        evaluate_patches(patches, np.arange(3), params, cfg, batch_size=2)
        denoise(rng.standard_normal((20, 18)), params, cfg)
        after = list(iter_tensors(params))
        assert [path for path, _ in after] == [path for path, _ in before]
        for (path, a), (_, b) in zip(before, after):
            assert a.dtype == b.dtype, path
            np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8), err_msg=path)


class TestBackward:
    def test_zero_grad_v(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=12)
        z = np.random.default_rng(13).standard_normal((2, 1, 8, 8))
        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        grads = network_backward(caches, np.zeros_like(v), params, cfg)
        assert all(not g.any() for g in grads.values())

    def test_infer_cache_rejected(self):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2)
        params = build_f64(cfg)
        z = np.zeros((1, 1, 8, 8))
        v, caches = network_forward(z, params, cfg, mode=INFER)
        with pytest.raises(ValueError, match="TRAIN"):
            network_backward(caches, v, params, cfg)

    def test_caches_consumed(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=12)
        z = np.random.default_rng(13).standard_normal((2, 1, 8, 8))
        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        network_backward(caches, np.ones_like(v), params, cfg)
        assert caches == []

    def test_consumed_caches_rejected(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=12)
        z = np.random.default_rng(13).standard_normal((2, 1, 8, 8))
        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        network_backward(caches, np.ones_like(v), params, cfg)
        with pytest.raises(ValueError, match="one cache entry per layer"):
            network_backward(caches, np.ones_like(v), params, cfg)

    def test_stage_one_receives_gradient(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=14)
        rng = np.random.default_rng(15)
        z = rng.standard_normal((2, 1, 8, 8))
        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        grads = network_backward(caches, np.ones_like(v), params, cfg)
        assert np.abs(grads["s00.l00.conv.weights"]).max() > 0

    def test_full_loss_gradients_match_finite_differences(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=4, kernel=5)
        params = build_f64(cfg, seed=16)
        rng = np.random.default_rng(17)
        z = rng.standard_normal((2, 1, 12, 12))
        x = rng.standard_normal((2, 1, 12, 12))

        def total_loss() -> float:
            snapshot = [
                (layer.bn.running_mean.copy(), layer.bn.running_var.copy())
                for stage in params.layers
                for layer in stage
                if layer.bn is not None
            ]
            v, _ = network_forward(z, params, cfg, mode=TRAIN)
            it = iter(snapshot)
            for stage in params.layers:
                for layer in stage:
                    if layer.bn is not None:
                        rm, rv = next(it)
                        layer.bn.running_mean[:] = rm
                        layer.bn.running_var[:] = rv
            return euclid_loss(v, z, x)[0]

        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        _, grad_v = euclid_loss(v, z, x)
        grads = network_backward(caches, grad_v, params, cfg)

        checked = 0
        for path, arr in iter_tensors(params, trainable_only=True):
            fd = finite_diff_grad(lambda _a: total_loss(), arr)
            assert grads_close(grads[path], fd, rtol=1e-4), path
            checked += 1
        assert checked == 16  # 2 stages x (3 convs w+b, 1 bn gamma+beta)


def three_tensor_grads(z, grad_v, params):
    """Gradients from a tape that keeps every layer's conv input, batch-norm
    cache and pre-activation, chained through the public layer kernels."""
    tape = []
    x = z
    for s, stage in enumerate(params.layers):
        for d, layer in enumerate(stage):
            conv_in = x
            pre = conv2d_forward(x, layer.conv)
            bn_cache = None
            if layer.bn is not None:
                pre, bn_cache = batchnorm_forward(pre, layer.bn)
            x = pre if layer.alpha is None else leaky_relu_forward(pre, layer.alpha)
            tape.append((f"s{s:02d}.l{d:02d}", layer, conv_in, bn_cache, pre))
    grads = {}
    g = grad_v
    for prefix, layer, conv_in, bn_cache, pre in reversed(tape):
        if layer.alpha is not None:
            g = leaky_relu_backward(pre >= 0, layer.alpha, g)
        if bn_cache is not None:
            g, grads[f"{prefix}.bn.gamma"], grads[f"{prefix}.bn.beta"] = batchnorm_backward(
                bn_cache, g
            )
        g, grads[f"{prefix}.conv.weights"], grads[f"{prefix}.conv.bias"] = conv2d_backward(
            conv_in, layer.conv, g
        )
    return x, grads


class TestTrainCache:
    CONFIGS = [
        NetworkConfig(stages=2, layers_per_stage=3, filters=3, kernel=3, alpha_first=0.0),
        NetworkConfig(stages=3, layers_per_stage=5, filters=4, kernel=5),
    ]

    @staticmethod
    def build_with_affine(cfg, dtype):
        """A network whose batch-norm scales and shifts are not 1 and 0, so
        that a recomputed affine map that dropped either would show."""
        params = build_network(cfg, np.random.default_rng(23), dtype=dtype)
        rng = np.random.default_rng(26)
        for stage in params.layers:
            for layer in stage:
                if layer.bn is not None:
                    layer.bn.gamma[:] = rng.uniform(0.5, 1.5, layer.bn.channels)
                    layer.bn.beta[:] = rng.standard_normal(layer.bn.channels)
        return params

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["2x3-alpha0", "3x5"])
    def test_gradients_equal_three_tensor_tape_bitwise(self, cfg, dtype):
        # Recomputing x_hat's affine map and the leaky ReLU in backward must
        # give exactly the gradients of a tape that cached them.
        rng = np.random.default_rng(22)
        z = (rng.standard_normal((3, 1, 11, 11)) * 40).astype(dtype)
        grad_v = rng.standard_normal(z.shape).astype(dtype)
        params, ref_params = (self.build_with_affine(cfg, dtype) for _ in range(2))
        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        grads = network_backward(caches, grad_v, params, cfg)
        ref_v, ref_grads = three_tensor_grads(z, grad_v, ref_params)
        np.testing.assert_array_equal(v, ref_v)
        assert grads.keys() == ref_grads.keys()
        for path, g in grads.items():
            assert g.dtype == dtype, path
            np.testing.assert_array_equal(g, ref_grads[path], err_msg=path)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["2x3-alpha0", "3x5"])
    def test_one_activation_per_layer_with_an_activation(self, cfg):
        # Distinct arrays, counted as the benchmark's train-cache metric
        # counts them: every ndarray in (conv_in, act_in, *bn_cache).
        n, h, w = 4, 9, 7
        params = build_network(cfg, np.random.default_rng(24))
        z = np.random.default_rng(25).standard_normal((n, 1, h, w)).astype(np.float32)
        _, caches = network_forward(z, params, cfg, mode=TRAIN)
        held = {}
        for conv_in, bn_cache, act_in in caches:
            for item in (conv_in, act_in, *(bn_cache or ())):
                if isinstance(item, np.ndarray):
                    held[id(item)] = item.nbytes
        layers = [layer for stage in params.layers for layer in stage]
        activation = n * cfg.filters * h * w * 4
        stage_input = n * h * w * 4
        per_channel = 2 * cfg.filters * 4  # inv_std and gamma of each BN layer
        bound = (
            sum(layer.alpha is not None for layer in layers) * activation
            + cfg.stages * stage_input
            + sum(layer.bn is not None for layer in layers) * per_channel
        )
        assert sum(held.values()) <= bound
        assert len(caches) == len(layers)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["2x3-alpha0", "3x5"])
    def test_one_activation_per_batchnorm_layer(self, cfg):
        # Exactly x_hat, inv_std and gamma per batch-norm layer and the
        # one-channel input of each stage: a stage's first layer rebuilds
        # its pre-activation from that input instead of caching it.
        n, h, w = 4, 9, 7
        params = build_network(cfg, np.random.default_rng(24))
        z = np.random.default_rng(25).standard_normal((n, 1, h, w)).astype(np.float32)
        _, caches = network_forward(z, params, cfg, mode=TRAIN)
        held = {}
        for conv_in, bn_cache, act_in in caches:
            assert act_in is None
            for item in (conv_in, *(bn_cache or ())):
                if isinstance(item, np.ndarray):
                    held[id(item)] = item.nbytes
        bn_layers = sum(layer.bn is not None for stage in params.layers for layer in stage)
        activation = n * cfg.filters * h * w * 4
        per_channel = 2 * cfg.filters * 4
        stage_input = n * h * w * 4
        expected = bn_layers * (activation + per_channel) + cfg.stages * stage_input
        assert sum(held.values()) == expected


    @pytest.mark.parametrize("cfg", CONFIGS, ids=["2x3-alpha0", "3x5"])
    def test_backward_rebuilds_each_pre_activation_once(self, cfg, monkeypatch):
        # One rebuild per activated layer serves both the conv input above
        # it and its own leaky-ReLU slope: a stage's first layer runs its
        # one-channel conv once more, a batch-norm layer its affine map once.
        params = build_network(cfg, np.random.default_rng(27))
        z = np.random.default_rng(28).standard_normal((3, 1, 9, 7)).astype(np.float32)
        v, caches = network_forward(z, params, cfg, mode=TRAIN)
        calls = {}
        for name in ("conv2d_forward", "batchnorm_affine", "leaky_relu_forward"):
            def counted(*args, _name=name, _fn=getattr(network, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(network, name, counted)
        network_backward(caches, np.ones_like(v), params, cfg)
        layers = [layer for stage in params.layers for layer in stage]
        assert calls == {
            "conv2d_forward": cfg.stages,
            "batchnorm_affine": sum(layer.bn is not None for layer in layers),
            "leaky_relu_forward": sum(layer.alpha is not None for layer in layers),
        }


class TestBackwardMemory:
    def test_peak_above_entry_in_activation_sizes(self):
        # One network_backward of a 2 x 4 net, 32 filters, batch 4 at 48^2,
        # measured with tracemalloc (numpy reports its buffers to it), so the
        # count repeats exactly.  Let A be one activation and P one padded
        # to the conv's (H+4, W+4) grid.  Backward frees each tensor at its
        # last use, so its high-water is a middle conv's adjoint pass: the
        # incoming gradient and the conv input (2A), the padded gradient
        # rows, the adjoint's output grid, its tap-product buffer and its
        # accumulator (at most 3P).  On top come every gradient returned,
        # three weight-sized tap arrays of the conv in flight, and a quarter
        # of an activation for small objects.  A backward that kept its input
        # rows through the adjoint, or the pre-activation across the conv,
        # holds one more P or A and exceeds this.
        cfg = NetworkConfig(stages=2, layers_per_stage=4, filters=32)
        n, h, w, f, k = 4, 48, 48, cfg.filters, cfg.kernel
        params = build_network(cfg, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        z = (rng.standard_normal((n, 1, h, w)) * 40).astype(np.float32)
        grad_v = rng.standard_normal(z.shape).astype(np.float32)
        _, caches = network_forward(z, params, cfg, mode=TRAIN)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            grads = network_backward(caches, grad_v, params, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        a = n * f * h * w * 4
        padded = n * f * (h + k - 1) * (w + k - 1) * 4
        weights = f * f * k * k * 4
        bound = 2 * a + 3 * padded + 3 * weights + sum(g.nbytes for g in grads.values()) + a // 4
        assert peak <= bound, f"peak {peak / a:.2f} activations, bound {bound / a:.2f}"

    def test_step_peak_in_activation_sizes(self):
        # One TRAIN forward and its backward of the same 2 x 4 net, measured
        # together.  The high-water of the step is a conv in flight beside
        # the cache: at most the whole cache (one activation A per
        # batch-norm layer, the stage inputs and per-channel vectors), the
        # conv's input and its output or incoming gradient (2A), its padded
        # rows, output grid, tap-product buffer and accumulator (3P), plus
        # the returned gradients and A/4 for small objects.  Backward pops
        # each entry as it passes it, so its convs run beside a shrinking
        # cache.  A backward that kept the whole cache to its end, or a
        # cache that held the first layers' pre-activations, exceeds this.
        cfg = NetworkConfig(stages=2, layers_per_stage=4, filters=32)
        n, h, w, f, k = 4, 48, 48, cfg.filters, cfg.kernel
        params = build_network(cfg, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        z = (rng.standard_normal((n, 1, h, w)) * 40).astype(np.float32)
        grad_v = rng.standard_normal(z.shape).astype(np.float32)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _, caches = network_forward(z, params, cfg, mode=TRAIN)
            grads = network_backward(caches, grad_v, params, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        a = n * f * h * w * 4
        padded = n * f * (h + k - 1) * (w + k - 1) * 4
        bn_layers = cfg.stages * (cfg.layers_per_stage - 2)
        cache = bn_layers * (a + 2 * f * 4) + cfg.stages * n * h * w * 4
        bound = cache + 2 * a + 3 * padded + sum(g.nbytes for g in grads.values()) + a // 4
        assert peak <= bound, f"peak {peak / a:.2f} activations, bound {bound / a:.2f}"


class TestDenoise:
    def test_zero_network_is_identity_bitwise(self):
        cfg = NetworkConfig(stages=2, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=18)
        zero_weights(params)
        img = np.random.default_rng(19).standard_normal((16, 20)) * 100
        np.testing.assert_array_equal(denoise(img, params, cfg), img)

    def test_constant_noise_estimate_subtracts_exactly(self):
        # Zero all weights but set the final reconstruction bias: the noise
        # estimate is a known constant; its subtraction must be exact.
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2, kernel=3)
        params = build_f64(cfg, seed=20)
        zero_weights(params)
        params.layers[0][-1].conv.bias[:] = 2.5
        img = np.random.default_rng(21).standard_normal((12, 12))
        np.testing.assert_array_equal(denoise(img, params, cfg), img - 2.5)

    def test_image_below_kernel_size_rejected(self):
        cfg = NetworkConfig(stages=1, layers_per_stage=3, filters=2, kernel=5)
        params = build_f64(cfg)
        with pytest.raises(ShapeError, match="smaller"):
            denoise(np.zeros((4, 30)), params, cfg)
