"""Multi-stage residual denoising network built from the layer kernels.

Each stage is a fixed ladder of convolutional layers: the first layer maps
the single-channel input to the feature width and applies a leaky
rectifier, the middle layers add batch normalization between convolution
and activation, and the last layer collapses back to one channel with no
activation.  Stage 1 consumes the noisy image; each later stage consumes
the previous stage's noise estimate, and the final stage's output is the
network's noise estimate.  Denoising subtracts that estimate from the
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_fields
from .layers import (
    BatchNormParams,
    ConvParams,
    ShapeError,
    batchnorm_affine,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    fold_batchnorm,
    he_init,
    leaky_relu_backward,
    leaky_relu_forward,
)

TRAIN = "train"
INFER = "infer"


@dataclass(frozen=True)
class NetworkConfig:
    stages: int = 3
    layers_per_stage: int = 8
    filters: int = 64
    kernel: int = 5
    alpha_first: float = 0.05
    alpha_rest: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self)
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        if self.layers_per_stage < 3:
            raise ValueError(
                f"layers_per_stage must be >= 3 so that first, middle and last "
                f"layer kinds all exist, got {self.layers_per_stage}"
            )
        if self.filters < 1:
            raise ValueError(f"filters must be >= 1, got {self.filters}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        for name in ("alpha_first", "alpha_rest"):
            a = getattr(self, name)
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {a}")

    @property
    def receptive_radius(self) -> int:
        """Pixels an input perturbation can reach in the output."""
        return self.stages * self.layers_per_stage * (self.kernel // 2)


@dataclass
class LayerParams:
    conv: ConvParams
    bn: BatchNormParams | None
    alpha: float | None  # activation slope; None on the reconstruction layer


@dataclass
class NetworkParams:
    layers: list[list[LayerParams]] = field(default_factory=list)  # [stage][layer]


def _init_bn(channels: int, dtype) -> BatchNormParams:
    return BatchNormParams(
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
    )


def build_network(
    config: NetworkConfig, rng: np.random.Generator, dtype=np.float32
) -> NetworkParams:
    """Allocate and initialize all learnable parameters.

    Filter weights are N(0, 2/fan_in), biases start at zero, batch-norm
    scales at one and shifts at zero.  Deterministic for a fixed generator
    state.
    """
    k = config.kernel
    f = config.filters
    params = NetworkParams()
    for _ in range(config.stages):
        stage: list[LayerParams] = []
        for d in range(config.layers_per_stage):
            if d == 0:
                c_in, c_out, alpha, with_bn = 1, f, config.alpha_first, False
            elif d == config.layers_per_stage - 1:
                c_in, c_out, alpha, with_bn = f, 1, None, False
            else:
                c_in, c_out, alpha, with_bn = f, f, config.alpha_rest, True
            conv = ConvParams(
                weights=he_init((c_out, c_in, k, k), c_in * k * k, rng, dtype),
                bias=np.zeros(c_out, dtype=dtype),
            )
            bn = _init_bn(c_out, dtype) if with_bn else None
            stage.append(LayerParams(conv=conv, bn=bn, alpha=alpha))
        params.layers.append(stage)
    return params


def iter_tensors(params: NetworkParams, trainable_only: bool = False):
    """Yield (path, array) pairs in a fixed structural order."""
    for s, stage in enumerate(params.layers):
        for d, layer in enumerate(stage):
            prefix = f"s{s:02d}.l{d:02d}"
            yield f"{prefix}.conv.weights", layer.conv.weights
            yield f"{prefix}.conv.bias", layer.conv.bias
            if layer.bn is not None:
                yield f"{prefix}.bn.gamma", layer.bn.gamma
                yield f"{prefix}.bn.beta", layer.bn.beta
                if not trainable_only:
                    yield f"{prefix}.bn.running_mean", layer.bn.running_mean
                    yield f"{prefix}.bn.running_var", layer.bn.running_var


def network_forward(
    z: np.ndarray,
    params: NetworkParams,
    config: NetworkConfig,
    mode: str = INFER,
) -> tuple[np.ndarray, list | None]:
    """Run all stages on a single-channel batch; returns the noise estimate.

    TRAIN mode also returns one ``(conv_in, bn_cache, act_in)`` entry per
    layer for ``network_backward``, with ``None`` wherever backward rebuilds
    instead: a batch-norm layer keeps its batch-norm cache (with x_hat), a
    stage's first layer the one-channel input its conv read, and the
    reconstruction layer nothing.  ``act_in`` is always ``None``; the slot
    is kept only because the benchmark's train-cache hook unpacks 3-tuples.
    INFER mode returns ``None`` caches and runs each conv and its batch norm
    as one conv that ``fold_batchnorm`` makes per layer, in the working dtype.
    """
    if mode not in (TRAIN, INFER):
        raise ValueError(f"mode must be {TRAIN!r} or {INFER!r}, got {mode!r}")
    if z.ndim != 4 or z.shape[1] != 1:
        raise ShapeError(f"network input must be (N,1,H,W), got {z.shape}")
    caches: list | None = [] if mode == TRAIN else None
    x = z
    x_is_activation = False  # x is the leaky ReLU output of the layer before
    for stage in params.layers:
        for layer in stage:
            conv, bn_cache = layer.conv, None
            if layer.bn is not None and caches is None:
                conv = fold_batchnorm(conv, layer.bn, np.result_type(x, conv.weights))
            pre = conv2d_forward(x, conv)
            if layer.bn is not None and caches is not None:
                pre, bn_cache = batchnorm_forward(pre, layer.bn)
            if caches is not None:
                caches.append((None if x_is_activation else x, bn_cache, None))
            x_is_activation = layer.alpha is not None
            x = leaky_relu_forward(pre, layer.alpha) if x_is_activation else pre
    return x, caches


def network_backward(
    caches: list,
    grad_v: np.ndarray,
    params: NetworkParams,
    config: NetworkConfig,
) -> dict[str, np.ndarray]:
    """Chain gradients of the noise estimate back through every stage.

    A conv input that the forward pass did not cache, the leaky-ReLU output
    of the layer below, is rebuilt once from that layer's pre-activation,
    remade by the forward pass's own calls on the same operands (the affine
    map of its x_hat, or its one-channel conv), so the gradients equal those
    of a cache of every tensor bit for bit.  The rebuild keeps ``pre >= 0``
    as a one-byte mask for the layer below's leaky-ReLU gradient.  The
    batch-norm shift and the first layers' filters are read from ``params``,
    so call this before the parameters are updated.  Returns a dict keyed
    like ``iter_tensors(..., trainable_only=True)``.

    ``caches`` is consumed: each layer pops its entry, and drops its
    batch-norm cache right after the batch-norm gradient, so the list is
    empty on return.  A list whose length does not match the network, such
    as one already consumed, raises ``ValueError``.

    Beyond the entries not yet popped, a layer holds only the gradient
    flowing in, what its next kernel reads and the mask of the layer
    below.  A rebuilt pre-activation is dropped once its mask and its
    activation are made, the mask after the leaky-ReLU gradient, the conv
    input after its conv, each gradient when the next replaces it.
    """
    if caches is None:
        raise ValueError("network_backward requires caches from a TRAIN-mode forward")
    grads: dict[str, np.ndarray] = {}
    flat_layers = [
        (s, d, layer)
        for s, stage in enumerate(params.layers)
        for d, layer in enumerate(stage)
    ]
    if len(caches) != len(flat_layers):
        raise ValueError(
            f"network_backward needs one cache entry per layer ({len(flat_layers)}), "
            f"got {len(caches)}; pass the list of one TRAIN-mode forward, once"
        )
    g = grad_v
    positive = None  # pre >= 0 of the layer below, for its leaky-ReLU gradient
    for i in reversed(range(len(flat_layers))):
        s, d, layer = flat_layers[i]
        conv_in, bn_cache, _ = caches.pop()
        if layer.alpha is not None:
            g = leaky_relu_backward(positive, layer.alpha, g)
            positive = None
        if layer.bn is not None:
            g, g_gamma, g_beta = batchnorm_backward(bn_cache, g)
            bn_cache = None
            grads[f"s{s:02d}.l{d:02d}.bn.gamma"] = g_gamma
            grads[f"s{s:02d}.l{d:02d}.bn.beta"] = g_beta
        if conv_in is None:
            prev = flat_layers[i - 1][2]
            prev_in, prev_bn, _ = caches[-1]
            if prev_bn is None:
                pre = conv2d_forward(prev_in, prev.conv)
            else:
                gamma = prev_bn[2]
                pre = batchnorm_affine(prev_bn[0], gamma, prev.bn.beta.astype(gamma.dtype))
            positive = pre >= 0
            conv_in = leaky_relu_forward(pre, prev.alpha)
            del pre, prev_bn
        # The network input needs no gradient, so the very first conv
        # skips its adjoint convolution.
        first = s == 0 and d == 0
        g, g_w, g_b = conv2d_backward(conv_in, layer.conv, g, need_input_grad=not first)
        grads[f"s{s:02d}.l{d:02d}.conv.weights"] = g_w
        grads[f"s{s:02d}.l{d:02d}.conv.bias"] = g_b
    return grads


def denoise(
    image: np.ndarray,
    params: NetworkParams,
    config: NetworkConfig,
) -> np.ndarray:
    """Subtract the estimated noise from a single 2-D image (inference mode).

    The input is expected in the intensity range the model was trained on;
    no clamping is applied here so the float result is exact.  The network
    runs in its weights' dtype, as in training; the estimate is subtracted
    in the image's own precision.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise ShapeError(f"denoise expects a 2-D image, got shape {img.shape}")
    if min(img.shape) < config.kernel:
        raise ShapeError(
            f"image {img.shape} is smaller than the {config.kernel}x{config.kernel} kernel"
        )
    dtype = params.layers[0][0].conv.weights.dtype
    v, _ = network_forward(img.astype(dtype, copy=False)[None, None], params, config, mode=INFER)
    return img - v[0, 0]
