from __future__ import annotations  # check_fields reads annotations as written

import dataclasses
import math
from dataclasses import dataclass

import pytest

from fringe_denoise.checkpoint import CheckpointError
from fringe_denoise.config import ConfigError, SimulateConfig, config_from_dict
from fringe_denoise.dataset import DatasetError
from fringe_denoise.errors import FringeDenoiseError, check_fields, is_int, is_number
from fringe_denoise.image_io import ImageFormatError
from fringe_denoise.layers import ShapeError
from fringe_denoise.network import NetworkConfig
from fringe_denoise.phase import PhaseSpecError
from fringe_denoise.training import NonFiniteLossError, TrainConfig

FAMILIES = [
    ConfigError, ImageFormatError, CheckpointError, DatasetError, ShapeError,
    PhaseSpecError, NonFiniteLossError,
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda c: c.__name__)
def test_every_family_derives_from_the_base(family):
    assert issubclass(family, FringeDenoiseError)
    assert issubclass(family, ValueError)  # library callers catching ValueError


@dataclass
class Sample:
    n: int = 1
    x: float = 0.5
    pair: tuple[float, float] = (1.0, 2.0)
    name: str = "free"  # not a checked annotation

    def __post_init__(self):
        check_fields(self)


class TestCheckFields:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 2.0}, {"n": True}, {"n": "2"}, {"n": None},
            {"x": math.nan}, {"x": math.inf}, {"x": -math.inf}, {"x": False}, {"x": "1"},
            {"x": 10**400}, {"x": [1.0]},
            {"pair": [1.0, 2.0]}, {"pair": (1.0,)}, {"pair": (1.0, 2.0, 3.0)},
            {"pair": (1.0, math.nan)}, {"pair": (True, 2.0)}, {"pair": "ab"},
        ],
        ids=repr,
    )
    def test_mismatch_is_type_error_naming_the_field(self, kwargs):
        (name,) = kwargs
        with pytest.raises(TypeError, match=f"^{name} must be"):
            Sample(**kwargs)

    def test_values_are_stored_unconverted(self):
        s = Sample(n=-3, x=2, pair=(0, 1e300), name=5)
        assert (s.n, s.x, s.pair, s.name) == (-3, 2, (0, 1e300), 5)
        assert type(s.x) is int

    def test_int_given_for_float_echoes_unchanged(self):
        resolved = config_from_dict({"seed": 1, "simulate": {"ar_sq": 2}}).resolved()
        assert type(resolved["simulate"]["ar_sq"]) is int

    def test_every_config_field_has_a_known_annotation(self):
        # A field type the check does not know would go unchecked.
        known = {"int", "float", "tuple[float, float]"}
        for cls, free in ((SimulateConfig, {"awgn_mode"}), (NetworkConfig, set()),
                          (TrainConfig, {"checkpoint_dir"})):
            for f in dataclasses.fields(cls):
                assert f.type in known or f.name in free, (cls.__name__, f.name, f.type)


def test_is_int_and_is_number():
    assert is_int(0) and is_int(5, 1) and not is_int(0, 1) and not is_int(True)
    assert is_int(-7, -math.inf) and not is_int(1.0, -math.inf)
    assert is_number(3) and is_number(-2.5) and not is_number(True)
    assert not is_number(math.nan) and not is_number(10**400) and not is_number(None)
