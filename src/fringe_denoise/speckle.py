"""Speckle-correlated fringe rendering.

A clean pattern is the interference intensity
``4*a0c^2*ar^2 * (1 + cos(phase + pi))``.  The noisy pattern draws, per
pixel, a speckle phase uniform on (-pi, pi] and an object-beam intensity
``a0c^2 + NED(lambda)``, and adds the signal-dependent term that the
squared difference of the two speckle fields produces.  All randomness
flows through the supplied generator, so a seed fixes the image bit-for-
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phase import PhaseSpec, phase_grid


@dataclass(frozen=True)
class SimulationParams:
    a0c_sq: float
    ned_lambda: float
    width: int
    height: int
    ar_sq: float = 1.0
    phi_r: float = 0.0
    index_origin: int = 1

    def __post_init__(self) -> None:
        if not self.a0c_sq > 0:
            raise ValueError(f"a0c_sq must be positive, got {self.a0c_sq}")
        if self.ned_lambda < 0:
            raise ValueError(f"ned_lambda must be >= 0, got {self.ned_lambda}")
        if not self.ar_sq > 0:
            raise ValueError(f"ar_sq must be positive, got {self.ar_sq}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dims must be positive, got {self.width}x{self.height}")


def sample_ned(lam: float, rng, size=None):
    """Negative-exponential draw(s) with expectation ``lam``.

    Inverse-CDF sampling: x = -lam * ln(1 - u) with u uniform on [0, 1).
    ``lam = 0`` is the degenerate distribution at exactly 0.
    """
    if lam < 0:
        raise ValueError(f"NED expectation must be >= 0, got {lam}")
    if lam == 0:
        return 0.0 if size is None else np.zeros(size, dtype=np.float64)
    u = rng.random(size)
    return -lam * np.log1p(-u)


class PhaseField(NamedTuple):
    """A phase-difference grid and its fringe cosine ``cos(dphi + pi)``."""

    dphi: np.ndarray
    fringe_cos: np.ndarray


def phase_field(params: SimulationParams, phase: PhaseSpec | PhaseField) -> PhaseField:
    """``phase`` evaluated on the image grid of ``params``.

    A spec is evaluated here; an already evaluated field passes through, so
    one pair's two renderers can share a single grid and cosine.
    """
    if isinstance(phase, PhaseField):
        return phase
    dphi = phase_grid(phase, params.height, params.width, params.index_origin)
    return PhaseField(dphi, np.cos(dphi + np.pi))


def fringe(amp, field: PhaseField) -> np.ndarray:
    """The interference term ``amp * (1 + cos(dphi + pi))``."""
    return amp + amp * field.fringe_cos


def render_clean(params: SimulationParams, phase: PhaseSpec | PhaseField) -> np.ndarray:
    """Noise-free pattern; values lie in [0, 8*a0c_sq*ar_sq], unnormalized."""
    return fringe(4.0 * params.a0c_sq * params.ar_sq, phase_field(params, phase))


def render_noisy(
    params: SimulationParams, phase: PhaseSpec | PhaseField, rng: np.random.Generator
) -> np.ndarray:
    """Speckle-corrupted pattern.

    Draw order per image is fixed (speckle phases first, then intensity
    fluctuations), so results are reproducible for a given generator state.
    """
    field = phase_field(params, phase)
    dphi = field.dphi
    shape = (params.height, params.width)
    phi0 = np.pi - 2.0 * np.pi * rng.random(shape)  # uniform on (-pi, pi]
    a0_sq = params.a0c_sq + sample_ned(params.ned_lambda, rng, shape)
    amp = 4.0 * a0_sq * params.ar_sq
    noise = -amp * (1.0 - np.cos(dphi)) * np.cos(2.0 * phi0 + dphi - 2.0 * params.phi_r)
    return fringe(amp, field) + noise


def normalize_to_range(img: np.ndarray, peak: float = 255.0) -> np.ndarray:
    """Affine map of the intensity range onto [0, peak].

    A constant image carries no structure and maps to all zeros.  The
    extremes land on 0 and ``peak`` exactly, and re-normalizing an already
    normalized image reproduces it bit-for-bit (the scale degenerates
    to 1).
    """
    img = np.asarray(img, dtype=np.float64)
    lo = img.min()
    hi = img.max()
    if hi == lo:
        return np.zeros_like(img)
    out = (img - lo) * (peak / (hi - lo))
    np.clip(out, 0.0, peak, out=out)
    out[img == hi] = peak
    return out


def add_awgn(img: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise; values may leave [0, 255]."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    img = np.asarray(img, dtype=np.float64)
    return img + rng.normal(0.0, sigma, img.shape)
