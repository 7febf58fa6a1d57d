"""Symbolic phase fields for fringe synthesis.

A phase spec is a weighted sum of compound terms: 2-D Gaussians, quadratic
polynomials, products of the two, and constants.  Coordinates follow image
convention: ``i`` runs along columns (horizontal), ``j`` along rows, both
starting at the configured origin (1 by default).  Denominators may be
``inf`` to make a term constant along one axis.

Each term is called as ``term(i, j, out=None, spare=None)`` and writes its
value into ``out`` (allocated when not given); a ``Product`` evaluates its
Gaussian factor into ``spare``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import FringeDenoiseError


class PhaseSpecError(FringeDenoiseError):
    pass


def _require_positive_denom(value: float, name: str) -> None:
    if not value > 0:
        raise PhaseSpecError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class Gaussian2D:
    amplitude: float
    center_i: float = 0.0
    center_j: float = 0.0
    denom_i: float = np.inf
    denom_j: float = np.inf

    def __post_init__(self) -> None:
        _require_positive_denom(self.denom_i, "denom_i")
        _require_positive_denom(self.denom_j, "denom_j")

    def __call__(self, i, j, out=None, spare=None):
        out = _term_array(i, j, out)
        np.subtract(
            -np.square(i - self.center_i) / self.denom_i,
            np.square(j - self.center_j) / self.denom_j,
            out=out,
        )
        np.exp(out, out=out)
        return np.multiply(self.amplitude, out, out=out)


@dataclass(frozen=True)
class Poly2:
    scale_i: float = 1.0
    center_i: float = 0.0
    denom_i: float = 1.0
    scale_j: float = 1.0
    center_j: float = 0.0
    denom_j: float = 1.0

    def __post_init__(self) -> None:
        _require_positive_denom(self.denom_i, "denom_i")
        _require_positive_denom(self.denom_j, "denom_j")

    def __call__(self, i, j, out=None, spare=None):
        return np.add(
            self.scale_i * np.square(i - self.center_i) / self.denom_i,
            self.scale_j * np.square(j - self.center_j) / self.denom_j,
            out=_term_array(i, j, out),
        )


@dataclass(frozen=True)
class Product:
    poly: Poly2
    gauss: Gaussian2D

    def __call__(self, i, j, out=None, spare=None):
        out = self.poly(i, j, out)
        return np.multiply(out, self.gauss(i, j, spare), out=out)


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, i, j, out=None, spare=None):
        out = _term_array(i, j, out)
        out.fill(self.value)
        return out


Term = Gaussian2D | Poly2 | Product | Constant


def _term_array(i, j, out):
    """``out``, or a new float64 array of the shape (i, j) broadcast to."""
    return np.empty(np.broadcast_shapes(np.shape(i), np.shape(j))) if out is None else out


@dataclass(frozen=True)
class PhaseSpec:
    """Weighted sum of compound terms, evaluated pointwise in radians."""

    terms: tuple[tuple[float, Term], ...]

    def __post_init__(self) -> None:
        if len(self.terms) < 1:
            raise PhaseSpecError("phase spec needs at least one term")


def eval_phase(spec: PhaseSpec, i, j, out=None, scratch=(None, None)):
    """Sum of coefficient-weighted terms at (i, j); accepts arrays.

    The sum accumulates in ``out`` and each term's value passes through
    ``scratch[0]``; a ``Product`` term also needs ``scratch[1]`` for its
    Gaussian factor.  Any of these not given is allocated.
    """
    i = np.asarray(i, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    total = _term_array(i, j, out)
    total.fill(0.0)
    value = _term_array(i, j, scratch[0])
    for coeff, term in spec.terms:
        term(i, j, value, scratch[1])
        total += np.multiply(coeff, value, out=value)
    return total if total.shape else float(total)


def phase_grid(
    spec: PhaseSpec, height: int, width: int, origin: int = 1, out=None, scratch=(None, None)
) -> np.ndarray:
    """Evaluate over a full image; row r, column c maps to (i, j) =
    (c + origin, r + origin).  ``out`` and ``scratch`` are as for
    ``eval_phase``, of shape (height, width)."""
    jj = np.arange(origin, height + origin, dtype=np.float64)[:, None]
    ii = np.arange(origin, width + origin, dtype=np.float64)[None, :]
    return eval_phase(spec, ii, jj, out, scratch)


def fig3_phase_spec() -> PhaseSpec:
    """The low-density reference phase used in the contrast study:
    10*exp(-(i-110)^2/50000) + 180*exp(-(j-10)^2/50000) - pi."""
    return PhaseSpec(
        terms=(
            (1.0, Gaussian2D(amplitude=10.0, center_i=110.0, denom_i=50000.0)),
            (1.0, Gaussian2D(amplitude=180.0, center_j=10.0, denom_j=50000.0)),
            (1.0, Constant(-np.pi)),
        )
    )


def random_phase_spec(
    rng: np.random.Generator,
    height: int,
    width: int,
    min_terms: int = 2,
    max_terms: int = 5,
) -> PhaseSpec:
    """Draw a phase spec whose rendered fringe density spans low to high.

    Each term's spread is solved from a target peak phase gradient, drawn
    so the finest fringes approach (but stay above) a five-pixel period
    after all terms combine.
    """
    span = float(max(height, width))
    terms: list[tuple[float, Term]] = []
    n_terms = int(rng.integers(min_terms, max_terms + 1))
    budget = 1.0 / np.sqrt(n_terms)  # peak gradients of terms add up rarely
    for _ in range(n_terms):
        grad = rng.uniform(0.04, 1.2) * budget
        kind = rng.choice(("gauss", "poly", "product"))
        if kind == "gauss":
            terms.append((rng.uniform(0.5, 1.5), _random_gauss(rng, span, grad)))
        elif kind == "poly":
            terms.append((rng.uniform(0.5, 1.5), _random_poly(rng, span, grad)))
        else:
            wide = Gaussian2D(
                amplitude=1.0,
                center_i=rng.uniform(0, span),
                center_j=rng.uniform(0, span),
                denom_i=rng.uniform(2.0, 16.0) * span * span,
                denom_j=rng.uniform(2.0, 16.0) * span * span,
            )
            terms.append(
                (rng.uniform(0.5, 1.5), Product(_random_poly(rng, span, grad), wide))
            )
    terms.append((1.0, Constant(rng.uniform(-np.pi, np.pi))))
    return PhaseSpec(terms=tuple(terms))


def _random_gauss(rng: np.random.Generator, span: float, grad: float) -> Gaussian2D:
    # Peak slope of A*exp(-(x-c)^2/d) is A*sqrt(2/d)*exp(-1/2).
    amplitude = rng.uniform(20.0, 220.0)
    peak = 0.8578 * amplitude  # A * sqrt(2) * exp(-1/2)
    return Gaussian2D(
        amplitude=amplitude,
        center_i=rng.uniform(-0.2 * span, 1.2 * span),
        center_j=rng.uniform(-0.2 * span, 1.2 * span),
        denom_i=(peak / (grad * rng.uniform(0.5, 1.0))) ** 2,
        denom_j=(peak / (grad * rng.uniform(0.5, 1.0))) ** 2,
    )


def _random_poly(rng: np.random.Generator, span: float, grad: float) -> Poly2:
    # Slope of scale*(x-c)^2/d peaks at 2*scale*span/d within the image.
    scale_i = rng.uniform(0.5, 4.0)
    scale_j = rng.uniform(0.5, 4.0)
    return Poly2(
        scale_i=scale_i,
        center_i=rng.uniform(0, span),
        denom_i=2.0 * scale_i * span / (grad * rng.uniform(0.5, 1.0)),
        scale_j=scale_j,
        center_j=rng.uniform(0, span),
        denom_j=2.0 * scale_j * span / (grad * rng.uniform(0.5, 1.0)),
    )


# The JSON "kind" of each term type; both codec directions read it.
_KINDS = {"gaussian2d": Gaussian2D, "poly2": Poly2, "product": Product, "constant": Constant}


def spec_to_dict(spec: PhaseSpec) -> dict:
    """JSON-friendly encoding, inverse of ``spec_from_dict``."""
    kind_of = {cls: kind for kind, cls in _KINDS.items()}
    return {
        "terms": [
            {"coeff": coeff, "term": {"kind": kind_of[type(term)], **asdict(term)}}
            for coeff, term in spec.terms
        ]
    }


def spec_from_dict(data: dict) -> PhaseSpec:
    """Inverse of ``spec_to_dict``; a malformed record raises ``PhaseSpecError``."""
    try:
        terms = []
        for entry in data["terms"]:
            body = dict(entry["term"])
            kind = body.pop("kind")
            if kind not in _KINDS:
                raise PhaseSpecError(f"unknown term kind {kind!r}")
            if kind == "product":
                body = {"poly": Poly2(**body["poly"]), "gauss": Gaussian2D(**body["gauss"])}
            terms.append((float(entry["coeff"]), _KINDS[kind](**body)))
        return PhaseSpec(terms=tuple(terms))
    except (KeyError, TypeError, ValueError) as exc:  # PhaseSpecError included
        raise PhaseSpecError(f"malformed phase spec: {exc!r}") from exc
