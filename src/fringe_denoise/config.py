"""Run configuration: one JSON document driving every pipeline stage.

Sections are ``simulate``, ``network``, ``train`` and ``eval``; the last
two fill one ``TrainConfig``.  Every field is optional except the master
``seed``.  Unknown keys are rejected wherever they appear, so a typo fails
the run instead of silently using a default.  The fully resolved
configuration is echoed into each run manifest.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FringeDenoiseError, check_fields
from .network import NetworkConfig
from .training import TrainConfig


class ConfigError(FringeDenoiseError):
    pass


@dataclass(frozen=True)
class SimulateConfig:
    count: int = 8
    width: int = 256
    height: int = 256
    a0c_sq_range: tuple[float, float] = (1.0, 150.0)
    ned_lambda_range: tuple[float, float] = (0.0, 50.0)
    ar_sq: float = 1.0
    phi_r: float = 0.0
    index_origin: int = 1
    min_terms: int = 2
    max_terms: int = 5
    awgn_count: int = 0
    awgn_sigma: float = 10.0
    awgn_mode: str = "in_place"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.count < 1:
            raise ConfigError(f"simulate.count must be >= 1, got {self.count}")
        if min(self.width, self.height) < 1:
            raise ConfigError(
                f"simulate.width and height must be >= 1, got {self.width}x{self.height}"
            )
        if not 1 <= self.min_terms <= self.max_terms:
            raise ConfigError(
                f"simulate needs 1 <= min_terms <= max_terms, got "
                f"{self.min_terms} and {self.max_terms}"
            )
        (a_lo, a_hi), (n_lo, n_hi) = self.a0c_sq_range, self.ned_lambda_range
        if not (0 < a_lo <= a_hi and 0 <= n_lo <= n_hi):
            raise ConfigError(
                f"simulate needs 0 < a0c_sq_range[0] <= [1] and 0 <= ned_lambda_range[0] "
                f"<= [1], got {self.a0c_sq_range} and {self.ned_lambda_range}"
            )
        if not (self.ar_sq > 0 and self.awgn_sigma >= 0):
            raise ConfigError(
                f"simulate.ar_sq must be > 0 and awgn_sigma >= 0, got "
                f"{self.ar_sq} and {self.awgn_sigma}"
            )
        if self.awgn_mode not in ("in_place", "append"):
            raise ConfigError(
                f"simulate.awgn_mode must be 'in_place' or 'append', got {self.awgn_mode!r}"
            )
        if self.awgn_count < 0 or self.awgn_count > self.count:
            raise ConfigError(
                f"simulate.awgn_count must lie in [0, count], got {self.awgn_count}"
            )


@dataclass(frozen=True)
class RunConfig:
    seed: int
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def train_config(self, checkpoint_dir=None) -> TrainConfig:
        return dataclasses.replace(
            self.train,
            seed=self.seed,
            checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        )

    def resolved(self) -> dict:
        """All defaults materialized, suitable for manifest echoing."""
        out = {
            "seed": self.seed,
            "simulate": dataclasses.asdict(self.simulate),
            "network": dataclasses.asdict(self.network),
        }
        for section, keys in _TRAIN_KEYS.items():
            out[section] = {key: getattr(self.train, name) for key, name in keys.items()}
        return out


_SECTIONS = {"simulate": SimulateConfig, "network": NetworkConfig}

# JSON key -> TrainConfig field, for the two sections that fill TrainConfig.
_TRAIN_KEYS = {
    "train": {k: k for k in ("batch_size", "learning_rate", "epochs",
                             "beta1", "beta2", "adam_eps")},
    "eval": {"every": "eval_every", "holdout_fraction": "holdout_fraction",
             "max_patches": "eval_max_patches"},
}


def _section_kwargs(data: dict, name: str, keys: dict) -> dict:
    """Section ``name`` of ``data`` as keyword arguments renamed by ``keys``."""
    body = data.get(name, {})
    if not isinstance(body, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    unknown = sorted(set(body) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key{'s' if len(unknown) > 1 else ''} "
                          f"{', '.join(name + '.' + k for k in unknown)}")
    # JSON arrays become tuples; the field check then refuses any but pairs.
    return {keys[k]: tuple(v) if isinstance(v, list) else v for k, v in body.items()}


def _build(cls, kwargs: dict, where: str):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad {where}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = sorted(set(data) - set(_SECTIONS) - set(_TRAIN_KEYS) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown top-level key{'s' if len(unknown) > 1 else ''} "
                          f"{', '.join(unknown)}")
    if "seed" not in data:
        raise ConfigError("the master 'seed' is mandatory")
    sections = {}
    for name, cls in _SECTIONS.items():
        names = {f.name: f.name for f in dataclasses.fields(cls)}
        sections[name] = _build(cls, _section_kwargs(data, name, names), f"{name} section")
    # The seed reaches the training run through RunConfig.train_config().
    train = {}
    for name, keys in _TRAIN_KEYS.items():
        train.update(_section_kwargs(data, name, keys))
    sections["train"] = _build(TrainConfig, train, "train section")
    return _build(RunConfig, {"seed": data["seed"], **sections}, "run config")


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 is a ValueError too
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)
