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

from .dataset import IN_PLACE
from .network import NetworkConfig
from .training import TrainConfig


class ConfigError(ValueError):
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
    awgn_mode: str = IN_PLACE

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError(f"simulate.count must be >= 1, got {self.count}")
        if self.awgn_mode not in (IN_PLACE, "append"):
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

_TUPLE_FIELDS = {"a0c_sq_range", "ned_lambda_range"}


def _section_kwargs(data: dict, name: str, keys: dict) -> dict:
    """Section ``name`` of ``data`` as keyword arguments renamed by ``keys``."""
    body = data.get(name, {})
    if not isinstance(body, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    unknown = sorted(set(body) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key{'s' if len(unknown) > 1 else ''} "
                          f"{', '.join(name + '.' + k for k in unknown)}")
    return {keys[k]: tuple(v) if k in _TUPLE_FIELDS and isinstance(v, list) else v
            for k, v in body.items()}


def _build(cls, kwargs: dict, where: str):
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad {where} section: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = sorted(set(data) - set(_SECTIONS) - set(_TRAIN_KEYS) - {"seed"})
    if unknown:
        raise ConfigError(f"unknown top-level key{'s' if len(unknown) > 1 else ''} "
                          f"{', '.join(unknown)}")
    if "seed" not in data:
        raise ConfigError("the master 'seed' is mandatory")
    seed = data["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    sections = {}
    for name, cls in _SECTIONS.items():
        names = {f.name: f.name for f in dataclasses.fields(cls)}
        sections[name] = _build(cls, _section_kwargs(data, name, names), name)
    train = {"seed": seed}
    for name, keys in _TRAIN_KEYS.items():
        train.update(_section_kwargs(data, name, keys))
    return RunConfig(seed=seed, train=_build(TrainConfig, train, "train"), **sections)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)
