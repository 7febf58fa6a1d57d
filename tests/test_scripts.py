"""The example scripts import cleanly and their run config loads."""

import importlib.util
from pathlib import Path

import pytest

from fringe_denoise.config import config_from_dict

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["desk_run", "contrast_sweep"])
def test_script_imports(name):
    assert callable(load_script(name).main)


def test_desk_run_config_is_valid():
    cfg = config_from_dict(load_script("desk_run").CONFIG)
    assert cfg.network.filters == 16 and cfg.train_config().batch_size == 32
