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

    In TRAIN mode each layer adds a ``(conv_in, bn_cache, act_in)`` entry
    for ``network_backward``, holding one activation-sized tensor per layer
    with an activation and ``None`` wherever backward can recompute instead:
    a batch-norm layer keeps only its batch-norm cache (with x_hat), a
    stage's first layer keeps its pre-activation and the one-channel stage
    input its conv read, and the reconstruction layer keeps nothing.  INFER
    mode returns ``None`` caches.
    """
    if z.ndim != 4 or z.shape[1] != 1:
        raise ShapeError(f"network input must be (N,1,H,W), got {z.shape}")
    caches: list | None = [] if mode == TRAIN else None
    x = z
    x_is_activation = False  # x is the leaky ReLU output of the layer before
    for stage in params.layers:
        for layer in stage:
            pre = conv2d_forward(x, layer.conv)
            bn_cache = None
            if layer.bn is not None:
                pre, bn_cache = batchnorm_forward(pre, layer.bn, mode)
            if caches is not None:
                conv_in = None if x_is_activation else x
                act_in = pre if layer.alpha is not None and bn_cache is None else None
                caches.append((conv_in, bn_cache, act_in))
            x_is_activation = layer.alpha is not None
            x = leaky_relu_forward(pre, layer.alpha) if x_is_activation else pre
    return x, caches


def _pre_activation(cache: tuple, layer: LayerParams) -> np.ndarray:
    """A layer's activation input, cached or rebuilt from its x_hat."""
    _, bn_cache, act_in = cache
    if bn_cache is None:
        return act_in
    x_hat, _, gamma, _ = bn_cache
    return batchnorm_affine(x_hat, gamma, layer.bn.beta.astype(x_hat.dtype))


def network_backward(
    caches: list,
    grad_v: np.ndarray,
    params: NetworkParams,
    config: NetworkConfig,
) -> dict[str, np.ndarray]:
    """Chain gradients of the noise estimate back through every stage.

    A conv input that the forward pass did not cache is the layer before's
    activation; it is recomputed here by the same functions the forward pass
    ran, in the same order, so the gradients equal those of a cache of every
    tensor bit for bit.  The batch-norm shift is read from ``params``, so
    call this before the parameters are updated.  Returns a dict keyed like
    ``iter_tensors(..., trainable_only=True)``.

    Beyond the caches, a layer holds only the gradient flowing in and what
    its next kernel reads.  A rebuilt pre-activation lives only for the call
    that reads it: the conv input is made from it and it is dropped before
    the conv, then rebuilt after the conv for the leaky-ReLU gradient.  The
    conv input is dropped after its conv, each gradient when the next
    replaces it.
    """
    if caches is None:
        raise ValueError("network_backward requires caches from a TRAIN-mode forward")
    grads: dict[str, np.ndarray] = {}
    flat_layers = [
        (s, d, layer)
        for s, stage in enumerate(params.layers)
        for d, layer in enumerate(stage)
    ]
    g = grad_v
    for i in reversed(range(len(flat_layers))):
        s, d, layer = flat_layers[i]
        conv_in, bn_cache, _ = caches[i]
        if layer.alpha is not None:
            g = leaky_relu_backward(_pre_activation(caches[i], layer), layer.alpha, g)
        if layer.bn is not None:
            g, g_gamma, g_beta = batchnorm_backward(bn_cache, g)
            grads[f"s{s:02d}.l{d:02d}.bn.gamma"] = g_gamma
            grads[f"s{s:02d}.l{d:02d}.bn.beta"] = g_beta
        if conv_in is None:
            prev = flat_layers[i - 1][2]
            conv_in = leaky_relu_forward(_pre_activation(caches[i - 1], prev), prev.alpha)
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
