"""Dense-tensor layer kernels with hand-derived forward and backward passes.

All operations take and return 4-D arrays laid out as (batch, channels,
height, width).  Convolutions are stride-1 with zero same-padding, so
spatial dimensions are preserved through every layer.

A convolution copies its input once, zero-padded and channels-last, into
an (N*Hp*Wp, C) row matrix.  Filter tap (u, v) then reads the row that
lies u*Wp + v rows after the output's, as in the low-memory GEMM
convolution of Anderson et al. (arXiv:1709.03395).  The k taps of kernel
row u read k consecutive rows, k*C contiguous values, so for the output
rows of one residue modulo k they form a (rows, k*C) matrix that is a plain
reshaped view of the buffer, with no copy, as in MEC (Cho & Brand,
arXiv:1706.06873).  The output on the padded grid is then k GEMMs per
kernel row, each with K = k*C over one residue's rows, cropped at the end.
The grid is channel-major, (M, N*Hp*Wp), so the cropped NCHW result is a
copy of W-long rows.  Each residue's k products are summed in one
contiguous accumulator, which is copied into the residue's grid columns
once, transposed; a one-channel input's single GEMM writes the grid
directly.  The weight gradient and the adjoint (input-gradient)
convolution reuse the same residue views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FringeDenoiseError


class ShapeError(FringeDenoiseError):
    """Operand shapes are inconsistent with the operation's contract."""


@dataclass
class ConvParams:
    """Filter bank (out_channels, in_channels, k, k) plus per-filter bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.ndim != 4:
            raise ShapeError(f"conv weights must be 4-D, got {self.weights.shape}")
        m, _, kh, kw = self.weights.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"kernel must be square with odd size, got {kh}x{kw}")
        if self.bias.shape != (m,):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match {m} output channels"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]


@dataclass
class BatchNormParams:
    """Per-channel scale/shift with running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    # Class constants, not fields: checkpoints store neither.
    epsilon = 1e-5
    momentum = 0.9

    def __post_init__(self) -> None:
        if np.any(self.running_var < 0):
            raise ValueError("running_var must be nonnegative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def _padded_rows(x: np.ndarray, p: int, dtype) -> np.ndarray:
    """Zero-pad (N, C, H, W) by ``p`` on every side into channels-last rows.

    Row ``(b*Hp + y)*Wp + x`` of the (N*Hp*Wp, C) result holds the channels
    of padded pixel (y, x) of sample b, where Hp = H + 2p and Wp = W + 2p.
    """
    n, c, h, w = x.shape
    rows = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dtype)
    rows[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
    return rows.reshape(-1, c)


def _tap_geometry(n: int, h: int, w: int, k: int) -> tuple[int, list[int]]:
    """Output-grid row count R and the row offset of each tap (u, v).

    Output row r sits at padded pixel (y, x) and tap (u, v) reads input row
    r + u*Wp + v.  R stops where the last tap would leave the buffer, which
    is just past the last in-image output pixel.
    """
    wp = w + k - 1
    r = n * (h + k - 1) * wp - (k - 1) * (wp + 1)
    return r, [u * wp + v for u in range(k) for v in range(k)]


def _stacked_taps(flat: np.ndarray, shifts: list[int], r: int) -> np.ndarray:
    """The (k*k, R) matrix of a one-channel input's shifted row slices."""
    cols = np.empty((len(shifts), r), dtype=flat.dtype)
    for t, s in enumerate(shifts):
        cols[t] = flat[s : s + r]
    return cols


# Byte budget of one row block of the output.  The product buffer and the
# accumulator each hold one residue's share of a block, 1/k of it.  Above
# about 4.3 MB every 16-filter shape of the desk net and of 256-square
# inference stays in one block.
PRODUCT_BYTES = 9 << 19  # 4.5 MiB


def _residue_view(rows: np.ndarray, start: int, j: int, k: int) -> np.ndarray:
    """The (j, k*C) view of (., C) rows whose row i joins rows start + i*k
    to start + i*k + k - 1: the k taps of one kernel row, for every k-th
    output row.  Consecutive rows are contiguous, so this is no copy."""
    kc = k * rows.shape[1]
    return rows.reshape(-1)[start * rows.shape[1] :][: j * kc].reshape(j, kc)


def _shifted_conv(
    rows: np.ndarray, taps: np.ndarray, n: int, h: int, w: int
) -> np.ndarray:
    """Bias-free same-padded convolution of padded rows with (k, k, C, M) taps.

    The output grid is channel-major, (M, N*Hp*Wp), and the function
    returns an (N, M, H, W) view of it, cropped, whose W-long rows are
    contiguous.  A one-channel input folds its k*k taps into a single GEMM,
    (M, k*k) taps times the (k*k, R) stacked taps, written straight into
    the grid.  Otherwise output rows r = rho (mod k) take, for each kernel
    row u, one GEMM of the residue view that starts u*Wp rows after them
    with the (k*C, M) slab of row u's taps.  The u = 0 product goes into a
    contiguous accumulator, the later ones into a product buffer that is
    added to it, and the sum is copied, transposed, into the residue's grid
    columns once.  The output is walked in row blocks, a multiple of k rows
    long, whose products fit ``PRODUCT_BYTES``.  Both buffers are freed on
    return; the grid, padding included, lives as long as the returned view.
    """
    k, _, c, m = taps.shape
    r, shifts = _tap_geometry(n, h, w, k)
    out = np.empty((m, n * (h + k - 1) * (w + k - 1)), dtype=rows.dtype)
    if c == 1:
        np.matmul(taps.reshape(k * k, m).T, _stacked_taps(rows[:, 0], shifts, r), out=out[:, :r])
    else:
        wp = w + k - 1
        slabs = taps.reshape(k, k * c, m)
        block = max(k, PRODUCT_BYTES // (m * out.itemsize) // k * k)
        product = np.empty(((min(block, r) + k - 1) // k, m), dtype=rows.dtype)
        accum = np.empty_like(product)
        for lo in range(0, r, block):
            for rho in range(lo, min(lo + k, r)):
                dst = out[:, rho : min(lo + block, r) : k]
                acc, prod = accum[: dst.shape[1]], product[: dst.shape[1]]
                for u, slab in enumerate(slabs):
                    view = _residue_view(rows, rho + u * wp, len(acc), k)
                    if u == 0:
                        np.matmul(view, slab, out=acc)
                    else:
                        acc += np.matmul(view, slab, out=prod)
                dst[...] = acc.T
    return out.reshape(m, n, h + k - 1, w + k - 1)[:, :, :h, :w].transpose(1, 0, 2, 3)


def _residue_weight_grad(rows: np.ndarray, g: np.ndarray, k: int, wp: int) -> np.ndarray:
    """(k, k*C, M) weight gradient of padded rows against output-grid rows g.

    Kernel row u's slab sums, over the residues rho, the transposed residue
    view that starts at row rho + u*Wp times g[rho::k].
    """
    grad_taps = np.zeros((k, k * rows.shape[1], g.shape[1]), dtype=g.dtype)
    for u, slab in enumerate(grad_taps):
        for rho in range(min(k, len(g))):
            g_rho = g[rho::k]
            slab += _residue_view(rows, rho + u * wp, len(g_rho), k).T @ g_rho
    return grad_taps


def _check_conv_input(x: np.ndarray, params: ConvParams) -> None:
    if x.ndim != 4:
        raise ShapeError(f"input must be 4-D (N,C,H,W), got {x.shape}")
    if x.shape[1] != params.in_channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels but filters expect "
            f"{params.in_channels} (input {x.shape}, weights {params.weights.shape})"
        )


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Stride-1 convolution with zero same-padding.

    out[b,m,y,x] = bias[m] + sum_{c,u,v} w[m,c,u,v] * x_padded[b,c,y+u,x+v]
    """
    _check_conv_input(x, params)
    n, _, h, w = x.shape
    dtype = np.result_type(x, params.weights)
    taps = params.weights.transpose(2, 3, 1, 0).astype(dtype)
    out = _shifted_conv(_padded_rows(x, params.kernel // 2, dtype), taps, n, h, w)
    return np.add(out, params.bias.astype(dtype)[None, :, None, None], order="C")


def conv2d_backward(
    x: np.ndarray,
    params: ConvParams,
    grad_out: np.ndarray,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of ``conv2d_forward``.

    The weight gradient of kernel row u is, summed over the residues rho
    modulo k, the input's residue view transposed times the rows rho, rho+k,
    ... of ``grad_out`` on the output grid.  The input gradient is the adjoint
    map: the same shifted-slice convolution of ``grad_out`` with the filter
    bank rotated 180 degrees and transposed in its channel axes.  With
    ``need_input_grad`` false it is skipped and returned as ``None``.

    Beyond its arguments the call holds the padded rows of ``x`` and of
    ``grad_out`` while the weight gradient is formed.  The input rows are
    freed once it is done; the gradient rows feed the adjoint and are freed
    before its output is copied out as the NCHW input gradient.
    """
    _check_conv_input(x, params)
    n, c, h, w = x.shape
    m = params.out_channels
    k = params.kernel
    p = k // 2
    if grad_out.shape != (n, m, h, w):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match output ({n},{m},{h},{w})"
        )
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    dtype = np.result_type(x, params.weights, grad_out)
    rows = _padded_rows(x, p, dtype)
    grad_rows = _padded_rows(grad_out, p, dtype)
    r, shifts = _tap_geometry(n, h, w, k)
    # Centred padding puts output row r at grad row r + p*Wp + p; rows off
    # the image land in the zero border.
    start = p * (w + 2 * p) + p
    g = grad_rows[start : start + r]
    if c == 1:
        grad_taps = _stacked_taps(rows[:, 0], shifts, r) @ g
    else:
        grad_taps = _residue_weight_grad(rows, g, k, w + 2 * p)
    del rows, g
    grad_w = np.ascontiguousarray(grad_taps.reshape(k, k, c, m).transpose(3, 2, 0, 1))
    grad_x = None
    if need_input_grad:
        adjoint = params.weights[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).astype(dtype)
        grad_x = _shifted_conv(grad_rows, adjoint, n, h, w)
        del grad_rows
        grad_x = np.ascontiguousarray(grad_x)
    return grad_x, grad_w, grad_bias


def leaky_relu_forward(x: np.ndarray, alpha: float) -> np.ndarray:
    """h = max(z, 0) + alpha * min(z, 0), elementwise."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    # max(x, alpha*x), written into the alpha*x array, equals the two-branch
    # formula for alpha in [0, 1]; fmax keeps x = +inf at alpha = 0 (alpha*x NaN).
    scaled = np.multiply(x.dtype.type(alpha), x, out=np.empty_like(x))
    return np.fmax(x, scaled, out=scaled)


def leaky_relu_backward(positive: np.ndarray, alpha: float, grad_out: np.ndarray) -> np.ndarray:
    """grad_out times the slope, given the mask ``positive = pre >= 0`` of
    the pre-activation: 1 where pre >= 0, both signed zeros included, and
    alpha elsewhere, NaN included.  Take the mask from the pre-activation,
    not the activation, where alpha * pre can be -0.0, which is >= 0."""
    if positive.shape != grad_out.shape:
        raise ShapeError(f"shape mismatch: mask {positive.shape} vs grad {grad_out.shape}")
    # A two-entry lookup on the mask builds the slope far faster than
    # np.where, and gives the same values.  np.take widens its index to
    # intp, so a batch runs one sample at a time to bound that copy.
    table = np.array([alpha, 1.0], dtype=grad_out.dtype)
    out = np.empty_like(grad_out)
    samples = zip(positive, grad_out, out) if positive.ndim > 1 else [(positive, grad_out, out)]
    for pb, gb, ob in samples:
        np.multiply(gb, np.take(table, pb.view(np.uint8)), out=ob)
    return out


def batchnorm_forward(x: np.ndarray, params: BatchNormParams) -> tuple[np.ndarray, tuple]:
    """Training batch norm per channel over (batch, H, W), from the batch's mean
    and population variance: x_hat = (x - mean) / sqrt(var + epsilon) in the
    one array the subtraction allocates, then ``batchnorm_affine``.  Updates
    the running statistics in place (unbiased variance); returns the cache.
    """
    if x.ndim != 4 or x.shape[1] != params.channels:
        raise ShapeError(
            f"input {x.shape} does not match {params.channels} batchnorm channels"
        )
    n, _, h, w = x.shape
    count = n * h * w
    if count < 2:
        raise ValueError(f"batchnorm needs at least 2 values per channel, got {count}")
    mean = x.mean(axis=(0, 2, 3))
    # x.var(axis=(0, 2, 3)) from the centred array, bit for bit: the
    # squares summed from a scratch array, then divided by an intp count
    # as numpy's own variance divides.  The scratch array is made before
    # x_hat: made after it, a paper-width training step's peak RSS rose
    # by about 4 MB (heap placement, not bytes held).
    scratch = np.empty_like(x)
    x_hat = np.subtract(x, mean[None, :, None, None])
    var = np.square(x_hat, out=scratch).sum(axis=(0, 2, 3))
    del scratch
    var = np.true_divide(var, np.intp(count), out=var, casting="unsafe")
    unbiased = var * (count / (count - 1))
    m = params.momentum
    for stat, batch in ((params.running_mean, mean), (params.running_var, unbiased)):
        stat[:] = m * stat + (1.0 - m) * batch.astype(stat.dtype)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(params.epsilon))
    x_hat *= inv_std[None, :, None, None]
    gamma = params.gamma.astype(x.dtype)
    out = batchnorm_affine(x_hat, gamma, params.beta.astype(x.dtype))
    return out, (x_hat, inv_std, gamma, count)


def batchnorm_affine(x_hat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The batch-norm output gamma * x_hat + beta, per channel, in a new array.
    ``batchnorm_forward`` and the network's backward rebuild of its output
    from the cached x_hat both end here, so the two agree bit for bit.
    """
    out = gamma[None, :, None, None] * x_hat
    out += beta[None, :, None, None]
    return out


def fold_batchnorm(conv: ConvParams, bn: BatchNormParams, dtype) -> ConvParams:
    """``conv`` then inference batch norm, as one new conv computed in ``dtype``:
    with s = gamma / sqrt(running_var + epsilon) per channel, weights s*w and
    bias s*(b - running_mean) + beta (Jacob et al., arXiv:1712.05877, §3.2).
    ``conv`` and ``bn`` are only read, so training can go on after an eval.
    """
    mean, beta = bn.running_mean.astype(dtype), bn.beta.astype(dtype)
    scale = bn.gamma.astype(dtype) / np.sqrt(bn.running_var.astype(dtype) + bn.epsilon)
    weights = conv.weights.astype(dtype, copy=False) * scale[:, None, None, None]
    return ConvParams(weights, scale * (conv.bias.astype(dtype) - mean) + beta)


def batchnorm_backward(
    cache: tuple, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the TRAIN-mode map, including the mean/var dependence.

    From grad_beta = sum(dy) and grad_gamma = sum(dy * x_hat) per channel,
    dx = gamma * inv_std * (dy - (sum(dy) + x_hat * sum(dy * x_hat)) / count)
    (Ioffe & Szegedy, arXiv:1502.03167), built in the array dy * x_hat makes.
    """
    if cache is None:
        raise ValueError("batchnorm_backward requires a TRAIN-mode cache")
    x_hat, inv_std, gamma, count = cache
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    g = grad_out * x_hat
    grad_gamma = g.sum(axis=(0, 2, 3))
    np.multiply(x_hat, (grad_gamma / count)[None, :, None, None], out=g)
    g += (grad_beta / count)[None, :, None, None]
    np.subtract(grad_out, g, out=g)
    g *= (gamma * inv_std)[None, :, None, None]
    return g, grad_gamma, grad_beta


def he_init(shape: tuple, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """i.i.d. N(0, 2/fan_in) weights."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)
