"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: plain loops and textbook formulas,
sharing no code with the implementations under test.
"""

from __future__ import annotations

import math

import numpy as np


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct six-loop same-padded stride-1 convolution. Small shapes only."""
    n, c_in, h, width = x.shape
    m, _, k, _ = w.shape
    p = k // 2
    out = np.zeros((n, m, h, width), dtype=x.dtype)
    for bi in range(n):
        for mi in range(m):
            for y in range(h):
                for xx in range(width):
                    acc = b[mi]
                    for ci in range(c_in):
                        for u in range(k):
                            for v in range(k):
                                yy = y + u - p
                                xv = xx + v - p
                                if 0 <= yy < h and 0 <= xv < width:
                                    acc += w[mi, ci, u, v] * x[bi, ci, yy, xv]
                    out[bi, mi, y, xx] = acc
    return out


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))
    nb = float(np.linalg.norm(np.asarray(b, dtype=np.float64).ravel()))
    diff = float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()))
    denom = max(na, nb, 1e-300)
    return diff / denom


def grads_close(a: np.ndarray, b: np.ndarray, rtol: float, atol: float = 1e-8) -> bool:
    """Relative closeness with an absolute floor for mathematically-zero
    gradients (e.g. a bias immediately cancelled by batch normalization).
    The floor sits above the central-difference noise eps*|f|/h."""
    na = float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))
    nb = float(np.linalg.norm(np.asarray(b, dtype=np.float64).ravel()))
    diff = float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()))
    return diff <= atol + rtol * max(na, nb)


def naive_ssim_mean(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """Per-window SSIM via explicit loops and the published formula."""
    size, sigma = 11, 1.5
    half = (size - 1) / 2.0
    g1 = np.exp(-((np.arange(size) - half) ** 2) / (2 * sigma * sigma))
    w = np.outer(g1, g1)
    w /= w.sum()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    h, width = a.shape
    vals = []
    for y in range(h - size + 1):
        for x in range(width - size + 1):
            wa = a[y : y + size, x : x + size].astype(np.float64)
            wb = b[y : y + size, x : x + size].astype(np.float64)
            mu_a = (w * wa).sum()
            mu_b = (w * wb).sum()
            var_a = (w * (wa - mu_a) ** 2).sum()
            var_b = (w * (wb - mu_b) ** 2).sum()
            cov = (w * (wa - mu_a) * (wb - mu_b)).sum()
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(vals))


def exhaustive_otsu(img: np.ndarray) -> int:
    """Best threshold by recomputing both class statistics per candidate."""
    levels = np.clip(np.rint(img.astype(np.float64)), 0, 255).astype(int).ravel()
    best_t, best_score = 0, -math.inf
    for t in range(256):
        lo = levels[levels <= t]
        hi = levels[levels > t]
        if lo.size == 0 or hi.size == 0:
            continue
        w0 = lo.size / levels.size
        w1 = hi.size / levels.size
        score = w0 * w1 * (lo.mean() - hi.mean()) ** 2
        if score > best_score:
            best_score, best_t = score, t
    return best_t


def naive_zhang_suen(binary: np.ndarray) -> np.ndarray:
    """Per-pixel loop implementation of the two-subiteration thinning."""
    img = binary.astype(np.uint8).copy()

    def neighbors(r, c, arr):
        h, w = arr.shape

        def at(rr, cc):
            if 0 <= rr < h and 0 <= cc < w:
                return int(arr[rr, cc])
            return 0

        # P2..P9: N, NE, E, SE, S, SW, W, NW
        return [
            at(r - 1, c),
            at(r - 1, c + 1),
            at(r, c + 1),
            at(r + 1, c + 1),
            at(r + 1, c),
            at(r + 1, c - 1),
            at(r, c - 1),
            at(r - 1, c - 1),
        ]

    def transitions(nb):
        ring = nb + nb[:1]
        return sum(1 for a, b in zip(ring, ring[1:]) if a == 0 and b == 1)

    while True:
        changed = False
        for step in (0, 1):
            to_remove = []
            for r in range(img.shape[0]):
                for c in range(img.shape[1]):
                    if img[r, c] != 1:
                        continue
                    nb = neighbors(r, c, img)
                    p2, p3, p4, p5, p6, p7, p8, p9 = nb
                    if not (2 <= sum(nb) <= 6 and transitions(nb) == 1):
                        continue
                    if step == 0:
                        if p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0:
                            to_remove.append((r, c))
                    else:
                        if p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0:
                            to_remove.append((r, c))
            for r, c in to_remove:
                img[r, c] = 0
            if to_remove:
                changed = True
        if not changed:
            return img


def count_components_8(binary: np.ndarray) -> int:
    from scipy import ndimage

    _, n = ndimage.label(binary, structure=np.ones((3, 3), dtype=int))
    return int(n)


def speckle_noise_term(a0_sq, ar_sq, dphi, phi0, phi_r=0.0):
    """The signal-dependent speckle noise term of one pixel, as published:
    -4 a0^2 ar^2 (1 - cos dphi) cos(phi0 + (phi0 + dphi) - 2 phi_r)."""
    return (
        -4.0
        * a0_sq
        * ar_sq
        * (1.0 - np.cos(dphi))
        * np.cos(phi0 + (phi0 + dphi) - 2.0 * phi_r)
    )
