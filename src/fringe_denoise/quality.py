"""Image-quality metrics and fringe skeleton extraction.

PSNR, mean SSIM and MAE compare a test image against a reference on the
[0, 255] intensity scale.  Skeletons come from Otsu binarization followed
by Zhang-Suen two-subiteration parallel thinning.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import ShapeError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"image dimensions differ: {a.shape} vs {b.shape}")


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """10*log10(peak^2 / MSE); identical images report +inf."""
    _check_dims(a, b)
    mse = float(np.mean(np.square(np.asarray(a, dtype=np.float64) - b)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def mae(a: np.ndarray, b: np.ndarray) -> float:
    _check_dims(a, b)
    return float(np.mean(np.abs(np.asarray(a, dtype=np.float64) - b)))


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Normalized 1-D Gaussian; the 2-D SSIM window is its outer product."""
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim_mean(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """Mean of the local SSIM map over all fully-interior windows.

    Gaussian-weighted 11x11 windows (sigma 1.5), stabilizers K1=0.01 and
    K2=0.03 on a dynamic range of ``peak``.  No padding: windows that would
    overhang the border are excluded, which keeps fringe boundaries from
    biasing the score.  Inputs are expected on the [0, peak] scale.

    The 11x11 window is the outer product of a 1-D Gaussian, so the local
    means and second moments are computed with a separable filter: 11 taps
    along each row, then 11 along each column.
    """
    _check_dims(a, b)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if min(a.shape) < SSIM_WINDOW:
        raise ShapeError(
            f"image {a.shape} is smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window"
        )
    g = gaussian_window()
    swv = np.lib.stride_tricks.sliding_window_view
    maps = np.stack([a, b, a * a, b * b, a * b])
    rows = swv(maps, SSIM_WINDOW, axis=-1) @ g
    mu_a, mu_b, ea2, eb2, eab = swv(rows, SSIM_WINDOW, axis=-2) @ g
    var_a = ea2 - mu_a * mu_a
    var_b = eb2 - mu_b * mu_b
    cov = eab - mu_a * mu_b
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def otsu_threshold(img: np.ndarray) -> int:
    """Threshold in 0..255 maximizing between-class variance of the rounded
    intensity histogram.  Ties resolve to the lowest threshold."""
    levels = np.clip(np.rint(np.asarray(img, dtype=np.float64)), 0, 255).astype(np.int64)
    hist = np.bincount(levels.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    probs = hist / total
    omega0 = np.cumsum(probs)  # weight of the class at or below t
    mu_t = np.cumsum(probs * np.arange(256))
    mu_total = mu_t[-1]
    omega1 = 1.0 - omega0
    valid = (omega0 > 0) & (omega1 > 0)
    between = np.zeros(256)
    between[valid] = (mu_total * omega0[valid] - mu_t[valid]) ** 2 / (
        omega0[valid] * omega1[valid]
    )
    return int(np.argmax(between))


def binarize(img: np.ndarray) -> np.ndarray:
    """Global Otsu binarization; pixels strictly above the threshold are 1.

    A constant image has no separable classes and maps to all zeros.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.max() == img.min():
        return np.zeros(img.shape, dtype=np.uint8)
    t = otsu_threshold(img)
    return (img > t).astype(np.uint8)


def _neighbors(padded: np.ndarray) -> list[np.ndarray]:
    """P2..P9 of every pixel: N, NE, E, SE, S, SW, W, NW."""
    return [
        padded[:-2, 1:-1],
        padded[:-2, 2:],
        padded[1:-1, 2:],
        padded[2:, 2:],
        padded[2:, 1:-1],
        padded[2:, :-2],
        padded[1:-1, :-2],
        padded[:-2, :-2],
    ]


def _deletion_table(step: int) -> np.ndarray:
    """Zhang-Suen deletion test for every 8-neighbour code of a set pixel.

    Bit i of a code is P(i+2), in the order of ``_neighbors``.  A pixel is
    deleted when 2 <= B(P1) <= 6, A(P1) == 1 (one 0->1 transition around
    the ring) and the subiteration's two products vanish.
    """
    code = np.arange(256)
    ring = [(code >> i) & 1 for i in range(8)]
    p2, p4, p6, p8 = ring[0::2]
    b = sum(ring)
    a = sum((ring[i] == 0) & (ring[(i + 1) % 8] == 1) for i in range(8))
    if step == 0:
        products = (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        products = (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return ((b >= 2) & (b <= 6) & (a == 1) & products).astype(np.uint8)


_DELETION_TABLES = (_deletion_table(0), _deletion_table(1))


def thin(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen parallel thinning to a 1-pixel-wide, 8-connected skeleton.

    Both subiterations mark deletable border pixels from the same snapshot
    and remove them at once; iteration stops when a full pass changes
    nothing.  Each pixel's eight neighbours are packed into a one-byte code
    that indexes the subiteration's deletion table.
    """
    img = np.asarray(binary)
    if not np.isin(img, (0, 1)).all():
        raise ValueError("thin expects a binary image of 0s and 1s")
    h, w = img.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    inner = padded[1:-1, 1:-1]
    inner[...] = img
    nb = _neighbors(padded)  # views: they follow every deletion
    code = np.empty((h, w), dtype=np.uint8)
    shifted = np.empty((h, w), dtype=np.uint8)
    changed = True
    while changed:
        changed = False
        for table in _DELETION_TABLES:
            np.copyto(code, nb[0])
            for i in range(1, 8):
                np.left_shift(nb[i], i, out=shifted)
                code |= shifted
            delete = np.take(table, code)
            delete &= inner
            if delete.any():
                inner ^= delete
                changed = True
    return inner.copy()
