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


def sample_ned(lam: float, rng, size=None, out=None):
    """Negative-exponential draw(s) with expectation ``lam``, made into
    ``out`` when it is given.

    Inverse-CDF sampling: x = -lam * ln(1 - u) with u uniform on [0, 1).
    ``lam = 0`` is the degenerate distribution at exactly 0 and draws
    nothing.
    """
    if lam < 0:
        raise ValueError(f"NED expectation must be >= 0, got {lam}")
    if lam == 0:
        if out is None:
            return 0.0 if size is None else np.zeros(size, dtype=np.float64)
        out.fill(0.0)
        return out
    u = rng.random(size, out=out)
    return np.multiply(-lam, np.log1p(np.negative(u, out=out), out=out), out=out)


class PhaseField(NamedTuple):
    """A phase-difference grid and its fringe cosine ``cos(dphi + pi)``."""

    dphi: np.ndarray
    fringe_cos: np.ndarray


def phase_field(
    params: SimulationParams, phase: PhaseSpec | PhaseField, out=None, spare=None
) -> PhaseField:
    """``phase`` evaluated on the image grid of ``params``.

    A spec is evaluated here, into the arrays of the ``PhaseField`` ``out``
    when given (``spare`` is the scratch a ``Product`` term needs); an
    already evaluated field passes through, so one pair's two renderers can
    share a single grid and cosine.
    """
    if isinstance(phase, PhaseField):
        return phase
    shape = (params.height, params.width)
    dphi, fringe_cos = (np.empty(shape), np.empty(shape)) if out is None else out
    # The fringe cosine's array holds each term's value until the grid is done.
    phase_grid(phase, *shape, params.index_origin, dphi, (fringe_cos, spare))
    np.add(dphi, np.pi, out=fringe_cos)
    return PhaseField(dphi, np.cos(fringe_cos, out=fringe_cos))


def fringe(amp, field: PhaseField, out=None) -> np.ndarray:
    """The interference term ``amp * (1 + cos(dphi + pi))``, computed as
    ``amp + amp * cos(dphi + pi)``."""
    out = np.multiply(amp, field.fringe_cos, out=out)
    return np.add(amp, out, out=out)


def render_clean(params: SimulationParams, phase: PhaseSpec | PhaseField, out=None) -> np.ndarray:
    """Noise-free pattern; values lie in [0, 8*a0c_sq*ar_sq], unnormalized."""
    return fringe(4.0 * params.a0c_sq * params.ar_sq, phase_field(params, phase), out)


def render_noisy(
    params: SimulationParams,
    phase: PhaseSpec | PhaseField,
    rng: np.random.Generator,
    out=None,
    scratch=(None, None),
) -> np.ndarray:
    """Speckle-corrupted pattern, rendered into ``out`` with the two
    ``scratch`` images (each allocated when not given).

    Draw order per image is fixed (speckle phases first, then intensity
    fluctuations), so results are reproducible for a given generator state.
    """
    field = phase_field(params, phase)
    shape = (params.height, params.width)
    out, phi0, amp = (np.empty(shape) if a is None else a for a in (out, *scratch))
    rng.random(out=phi0)
    np.subtract(np.pi, np.multiply(2.0 * np.pi, phi0, out=phi0), out=phi0)  # uniform on (-pi, pi]
    np.add(params.a0c_sq, sample_ned(params.ned_lambda, rng, out=amp), out=amp)  # a0^2
    np.multiply(np.multiply(4.0, amp, out=amp), params.ar_sq, out=amp)  # 4 * a0^2 * ar^2
    # noise = -amp * (1 - cos(dphi)) * cos(2*phi0 + dphi - 2*phi_r); the
    # product is negated after it is rounded, which gives the same bits.
    noise = np.subtract(1.0, np.cos(field.dphi, out=out), out=out)
    np.negative(np.multiply(amp, noise, out=noise), out=noise)
    np.add(np.multiply(2.0, phi0, out=phi0), field.dphi, out=phi0)
    np.subtract(phi0, 2.0 * params.phi_r, out=phi0)
    np.multiply(noise, np.cos(phi0, out=phi0), out=noise)
    return np.add(fringe(amp, field, out=phi0), noise, out=noise)


def normalize_to_range(img: np.ndarray, peak: float = 255.0, out=None) -> np.ndarray:
    """Affine map of the intensity range onto [0, peak], written into
    ``out`` when given (which may be ``img`` itself).

    A constant image carries no structure and maps to all zeros.  The
    extremes land on 0 and ``peak`` exactly, and re-normalizing an already
    normalized image reproduces it bit-for-bit (the scale degenerates
    to 1).
    """
    img = np.asarray(img, dtype=np.float64)
    lo = img.min()
    hi = img.max()
    if hi == lo:
        out = np.empty_like(img) if out is None else out
        out.fill(0.0)
        return out
    top = img == hi  # taken before ``out``, which may be ``img``, is written
    out = np.subtract(img, lo, out=out)
    np.multiply(out, peak / (hi - lo), out=out)
    np.clip(out, 0.0, peak, out=out)
    out[top] = peak
    return out


def add_awgn(img: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise; values may leave [0, 255]."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    img = np.asarray(img, dtype=np.float64)
    return img + rng.normal(0.0, sigma, img.shape)
