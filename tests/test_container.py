"""Properties of the framing shared by packed datasets and checkpoints."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fringe_denoise.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fringe_denoise.dataset import (
    AUG_HFLIP,
    DatasetError,
    PackedDataset,
    build_dataset,
    write_packed,
)
from fringe_denoise.network import NetworkConfig, build_network, iter_tensors
from fringe_denoise.training import AdamState

from framing import replace_header

PIN_NET = NetworkConfig(stages=1, layers_per_stage=3, filters=2, kernel=3)
# Digests of the files below: the checkpoint as written before the framing
# moved into one module, the packed dataset as written since its format
# version 3 (the grid as header, each source pair once).  A change needs a
# format version bump.
PACKED_SHA256 = "efc3e62b8f7655b4b51edbda78e73b9a90ec8b33eb090c6a5f2e000b95e06afd"
CHECKPOINT_SHA256 = "aca4f428778a6d9e7e47915148f91b36db370acfdb92940bb766c627b1318b0e"


def arange_dataset():
    base = np.arange(20 * 20, dtype=np.float32).reshape(20, 20)
    corpus = [(base + k, base[::-1] * 0.5 + k) for k in range(2)]
    return build_dataset(corpus, patch_size=8, stride=6, augmentations=(AUG_HFLIP,))


def save_arange_checkpoint(path) -> None:
    """Every stored tensor, optimizer moments included, holds np.arange values."""
    params = build_network(PIN_NET, np.random.default_rng(0))
    for k, (_, arr) in enumerate(iter_tensors(params)):
        arr[...] = np.arange(arr.size).reshape(arr.shape) * 0.25 + k
    adam = AdamState.for_params(params)
    adam.t = 5
    for k, name in enumerate(adam.m):
        adam.m[name][...] = np.arange(adam.m[name].size).reshape(adam.m[name].shape) - k
        adam.v[name][...] = np.arange(adam.v[name].size).reshape(adam.v[name].shape) * 0.5
    save_checkpoint(path, params, PIN_NET, epoch=3, adam=adam)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFormatPins:
    """Both formats keep their bytes, prelude and header included."""

    def test_packed_dataset_bytes(self, tmp_path):
        path = tmp_path / "patches.bin"
        write_packed(path, arange_dataset())
        assert sha256(path) == PACKED_SHA256

    def test_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "net.fpdc"
        save_arange_checkpoint(path)
        assert sha256(path) == CHECKPOINT_SHA256


class TestAtomicWrite:
    def test_failed_write_packed_leaves_no_file(self, tmp_path):
        class FailsOnSecondItem(list):
            """A corpus whose second source cannot be read, after the first
            source's patches are written."""

            def __getitem__(self, idx):
                if idx == 1:
                    raise RuntimeError("source image vanished")
                return super().__getitem__(idx)

        dataset = arange_dataset()
        dataset.corpus = FailsOnSecondItem(dataset.corpus)
        path = tmp_path / "patches.bin"
        with pytest.raises(RuntimeError, match="vanished"):
            write_packed(path, dataset)
        assert list(tmp_path.iterdir()) == []


class TestNonObjectHeader:
    """A header that is valid JSON but not an object is each format's typed error."""

    def test_packed_dataset(self, tmp_path):
        path = tmp_path / "patches.bin"
        for text in ("7", "[1]"):
            write_packed(path, arange_dataset())
            replace_header(path, text)
            with pytest.raises(DatasetError, match="not an object"):
                PackedDataset(path)

    def test_checkpoint(self, tmp_path):
        path = tmp_path / "net.fpdc"
        for text in ("7", "[1]"):
            save_arange_checkpoint(path)
            replace_header(path, text)
            with pytest.raises(CheckpointError, match="not an object"):
                load_checkpoint(path)



class TestPayloadRead:
    """``load_checkpoint`` reads exactly the payload its directory names
    into memory; it maps no file."""

    @pytest.mark.parametrize("extra", [2, 4, 8])
    def test_trailing_bytes_refused(self, tmp_path, extra):
        path = tmp_path / "net.fpdc"
        save_arange_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        with pytest.raises(CheckpointError, match="tensor payload is longer than its directory"):
            load_checkpoint(path)

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_payload_is_not_mapped(self, tmp_path):
        path = tmp_path / "net.fpdc"
        save_arange_checkpoint(path)
        params, _, adam, _ = load_checkpoint(path)
        assert adam.t == 5 and params.layers[0][0].conv.weights.any()
        assert str(path) not in Path("/proc/self/maps").read_text()
