import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringe_denoise import cli
from fringe_denoise.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fringe_denoise.cli import cli_dispatch
from fringe_denoise.config import ConfigError, RunConfig, config_from_dict, load_config
from fringe_denoise.dataset import DatasetError, PackedDataset, build_dataset, write_packed
from fringe_denoise.image_io import decode_fpd1, encode_fpd1, read_image, write_image
from fringe_denoise.network import (
    NetworkConfig,
    build_network,
    denoise,
    iter_tensors,
    network_forward,
)
from fringe_denoise.training import TrainConfig, holdout_split, train

from framing import (
    edit_header,
    read_header,
    replace_header,
    write_packed_raw,
    write_zero_source_header,
)

TINY_NET = {"stages": 1, "layers_per_stage": 3, "filters": 2, "kernel": 3}


def tree_hash(root, strip_seconds_from=()):
    """Stable digest of a directory tree; named CSV files are hashed with
    their last (timing) column removed."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        if path.name in strip_seconds_from:
            rows = path.read_text().splitlines()
            trimmed = "\n".join(",".join(r.split(",")[:-1]) for r in rows)
            digest.update(trimmed.encode())
        else:
            digest.update(path.read_bytes())
    return digest.hexdigest()


def zero_model(tmp_path, cfg_kwargs=TINY_NET):
    cfg = NetworkConfig(**cfg_kwargs)
    params = build_network(cfg, np.random.default_rng(0))
    for _, arr in iter_tensors(params, trainable_only=True):
        arr[:] = 0
    for stage in params.layers:
        for layer in stage:
            if layer.bn is not None:
                layer.bn.gamma[:] = 1.0
    path = tmp_path / "zero.fpdc"
    save_checkpoint(path, params, cfg, TrainConfig(seed=0), epoch=0)
    return path


def train_inputs(tmp_path):
    """A packed dataset of 12x12 patch pairs and a one-epoch run config."""
    rng = np.random.default_rng(4)
    corpus = [
        (img, img + rng.normal(0, 20, img.shape).astype(np.float32))
        for img in rng.uniform(0, 255, (3, 24, 24)).astype(np.float32)
    ]
    data = tmp_path / "patches.bin"
    write_packed(data, build_dataset(corpus, patch_size=12, stride=12))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"seed": 5, "network": TINY_NET, "train": {"batch_size": 4, "epochs": 1}}
    ))
    return data, cfg_path


def single_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def say_version_1(path) -> None:
    """Rewrite the prelude's format version to 1, keeping everything else."""
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])


class TestMetricsCommand:
    def test_identical_images_row(self, tmp_path, capsys):
        img = np.random.default_rng(0).uniform(0, 255, (24, 24))
        write_image(img, tmp_path / "a.fpd1")
        rc = cli_dispatch(
            ["metrics", "--ref", str(tmp_path / "a.fpd1"), "--test", str(tmp_path / "a.fpd1")]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "psnr,ssim,mae,seconds"
        psnr_s, ssim_s, mae_s, seconds_s = out[1].split(",")
        assert (psnr_s, ssim_s, mae_s) == ("inf", "1.0", "0.0")
        assert float(seconds_s) >= 0.0

    def test_pretty_table(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 255, (16, 16))
        write_image(a, tmp_path / "a.fpd1")
        write_image(np.clip(a + 5, 0, 255), tmp_path / "b.fpd1")
        rc = cli_dispatch(
            ["metrics", "--ref", str(tmp_path / "a.fpd1"),
             "--test", str(tmp_path / "b.fpd1"), "--pretty"]
        )
        assert rc == 0
        assert "PSNR" in capsys.readouterr().out


class TestDenoiseCommand:
    def test_zeroed_model_is_identity(self, tmp_path):
        model = zero_model(tmp_path)
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 255, (20, 20))
        write_image(img, tmp_path / "in.fpd1")
        rc = cli_dispatch(
            ["denoise", "--model", str(model),
             "--in", str(tmp_path / "in.fpd1"), "--out", str(tmp_path / "out.fpd1")]
        )
        assert rc == 0
        assert (tmp_path / "out.fpd1").read_bytes() == (tmp_path / "in.fpd1").read_bytes()

    def test_output_equals_in_process_float32_denoise(self, tmp_path):
        cfg = NetworkConfig(**TINY_NET)
        params = build_network(cfg, np.random.default_rng(7))
        model = tmp_path / "net.fpdc"
        save_checkpoint(model, params, cfg, TrainConfig(seed=0), epoch=0)
        write_image(np.random.default_rng(8).uniform(0, 255, (20, 26)), tmp_path / "in.fpd1")
        rc = cli_dispatch(
            ["denoise", "--model", str(model),
             "--in", str(tmp_path / "in.fpd1"), "--out", str(tmp_path / "out.fpd1")]
        )
        assert rc == 0
        out = decode_fpd1((tmp_path / "out.fpd1").read_bytes())
        img = read_image(tmp_path / "in.fpd1")
        np.testing.assert_array_equal(out, denoise(img, params, cfg).astype(np.float32))
        # The network ran on the float32 image, like in training.
        v, _ = network_forward(img.astype(np.float32)[None, None], params, cfg)
        np.testing.assert_array_equal(out, (img - v[0, 0]).astype(np.float32))

    def test_pgm_identity_through_pipeline(self, tmp_path):
        model = zero_model(tmp_path)
        img = np.arange(400, dtype=np.float64).reshape(20, 20) % 256
        write_image(img, tmp_path / "in.pgm")
        rc = cli_dispatch(
            ["denoise", "--model", str(model),
             "--in", str(tmp_path / "in.pgm"), "--out", str(tmp_path / "out.pgm")]
        )
        assert rc == 0
        assert (tmp_path / "out.pgm").read_bytes() == (tmp_path / "in.pgm").read_bytes()


class TestSimulateCommand:
    def test_deterministic_tree(self, tmp_path, capsys):
        cfg = {"seed": 7, "simulate": {"count": 3, "width": 64, "height": 64}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        hashes = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            rc = cli_dispatch(
                ["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]
            )
            assert rc == 0
            hashes.append(tree_hash(out))
        assert hashes[0] == hashes[1]
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert manifest["count"] == 3
        assert len(manifest["artifacts"]) == 6

    def test_count_override_and_files(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 1, "simulate": {"width": 48, "height": 48}}))
        out = tmp_path / "corpus"
        rc = cli_dispatch(
            ["simulate", "--config", str(cfg_path), "--out", str(out), "--count", "2"]
        )
        assert rc == 0
        assert sorted(p.name for p in (out / "clean").iterdir()) == ["0000.fpd1", "0001.fpd1"]
        img = read_image(out / "noisy" / "0001.fpd1")
        assert img.shape == (48, 48)
        assert img.min() >= 0 and img.max() <= 255


class TestPipelineEndToEnd:
    def test_dataset_train_denoise_skeletonize(self, tmp_path, capsys):
        cfg = {
            "seed": 11,
            "simulate": {"count": 3, "width": 48, "height": 48},
            "network": TINY_NET,
            "train": {"batch_size": 4, "epochs": 2},
            "eval": {"every": 2},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        corpus = tmp_path / "corpus"
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(corpus)]) == 0

        data = tmp_path / "patches.bin"
        assert cli_dispatch(
            ["dataset", "--corpus", str(corpus), "--out", str(data),
             "--patch", "24", "--stride", "24"]
        ) == 0
        manifest = json.loads((tmp_path / "patches.bin.manifest.json").read_text())
        assert manifest["count"] == 3 * 4

        ckpt_dir = tmp_path / "ckpt"
        assert cli_dispatch(
            ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(ckpt_dir)]
        ) == 0
        log = (ckpt_dir / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,mean_loss,psnr,ssim,mae,seconds"
        assert len(log) == 3
        ckpts = sorted(ckpt_dir.glob("*.fpdc"))
        assert [c.name for c in ckpts] == ["ckpt_epoch_0002.fpdc"]

        noisy = corpus / "noisy" / "0000.fpd1"
        restored = tmp_path / "restored.fpd1"
        assert cli_dispatch(
            ["denoise", "--model", str(ckpts[-1]), "--in", str(noisy), "--out", str(restored)]
        ) == 0
        assert read_image(restored).shape == (48, 48)

        skel = tmp_path / "skel.pgm"
        assert cli_dispatch(["skeletonize", "--in", str(restored), "--out", str(skel)]) == 0
        values = set(np.unique(read_image(skel)))
        assert values <= {0.0, 255.0}

    def test_train_rerun_is_deterministic_modulo_timing(self, tmp_path):
        cfg = {
            "seed": 3,
            "simulate": {"count": 2, "width": 48, "height": 48},
            "network": TINY_NET,
            "train": {"batch_size": 4, "epochs": 1},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        corpus = tmp_path / "corpus"
        cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(corpus)])
        data = tmp_path / "patches.bin"
        cli_dispatch(
            ["dataset", "--corpus", str(corpus), "--out", str(data),
             "--patch", "24", "--stride", "24"]
        )
        hashes = []
        for sub in ("t1", "t2"):
            out = tmp_path / sub
            rc = cli_dispatch(
                ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
            )
            assert rc == 0
            hashes.append(tree_hash(out, strip_seconds_from=("training_log.csv",)))
        assert hashes[0] == hashes[1]


    def test_resumed_run_keeps_the_whole_training_log(self, tmp_path):
        """A run resumed from epoch 2 of 3 writes the uninterrupted run's
        training log, the wall-clock column aside."""
        data, cfg_path = train_inputs(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["train"]["epochs"] = 3
        cfg_path.write_text(json.dumps(cfg))
        run = ["train", "--data", str(data), "--config", str(cfg_path)]
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        assert cli_dispatch([*run, "--out", str(straight)]) == 0
        resume = ["--resume", str(straight / "ckpt_epoch_0002.fpdc")]
        assert cli_dispatch([*run, "--out", str(resumed), *resume]) == 0

        def rows(out):
            lines = (out / "training_log.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert len(rows(straight)) == 4  # the column names and three epochs
        assert rows(resumed) == rows(straight)

    def test_run_manifest_records_numeric_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "seed": 4,
            "simulate": {"count": 2, "width": 48, "height": 48},
            "network": TINY_NET,
            "train": {"batch_size": 4, "epochs": 1},
        }))
        corpus, data, out = tmp_path / "corpus", tmp_path / "patches.bin", tmp_path / "t"
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(corpus)]) == 0
        assert cli_dispatch(
            ["dataset", "--corpus", str(corpus), "--out", str(data),
             "--patch", "24", "--stride", "24"]
        ) == 0
        assert cli_dispatch(
            ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        ) == 0
        env = json.loads((out / "run_manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {
            "numpy": np.__version__,
            "blas": blas["name"],
            "blas_version": blas["version"],
            "OPENBLAS_NUM_THREADS": None,
            "OMP_NUM_THREADS": "3",
            "cpus": len(os.sched_getaffinity(0)),
        }

class TestDatasetStreams:
    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path):
        """``dataset`` reads one corpus pair at a time: on 12 pairs its traced
        peak stays within one pair's bytes of its peak on 3 pairs.  Both
        packed files exceed the 1 MB chunk that ``sha256_file`` reads."""
        side = 256
        rng = np.random.default_rng(2)
        peaks = {}
        for count in (3, 12):
            corpus = tmp_path / f"corpus{count}"
            for sub in ("clean", "noisy"):
                (corpus / sub).mkdir(parents=True)
                for k in range(count):
                    write_image(rng.uniform(0, 255, (side, side)), corpus / sub / f"{k:04d}.fpd1")
            argv = ["dataset", "--corpus", str(corpus), "--out", str(tmp_path / f"p{count}.fpds"),
                    "--patch", "64", "--stride", "64"]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli_dispatch(argv) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        pair_bytes = 2 * side * side * np.dtype(np.float32).itemsize
        assert peaks[12] - peaks[3] < pair_bytes, peaks


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["metrics", "--nope", "x"]) == 1

    def test_unknown_augmentation_is_usage_error(self, tmp_path, capsys):
        rc = cli_dispatch(
            ["dataset", "--corpus", str(tmp_path), "--out", str(tmp_path / "d.bin"),
             "--augment", "vflip"]
        )
        assert rc == 1
        assert "vflip" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = cli_dispatch(
            ["metrics", "--ref", str(tmp_path / "no.pgm"), "--test", str(tmp_path / "no.pgm")]
        )
        assert rc == 2

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"seed": 1, "network": {"filtres": 3}}))
        rc = cli_dispatch(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "filtres" in capsys.readouterr().err

    def test_non_finite_image_is_data_error(self, tmp_path, capsys):
        model = zero_model(tmp_path)
        img = np.random.default_rng(3).uniform(0, 255, (20, 20)).astype(np.float32)
        img[4, 5] = np.nan
        bad = tmp_path / "nan.fpd1"
        bad.write_bytes(encode_fpd1(img))
        write_image(np.zeros((20, 20)), tmp_path / "ok.fpd1")
        commands = [
            ["denoise", "--model", str(model), "--in", str(bad),
             "--out", str(tmp_path / "out.fpd1")],
            ["metrics", "--ref", str(tmp_path / "ok.fpd1"), "--test", str(bad)],
            ["skeletonize", "--in", str(bad), "--out", str(tmp_path / "skel.pgm")],
        ]
        for argv in commands:
            assert cli_dispatch(argv) == 2, argv[0]
            assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out.fpd1").exists()
        assert not (tmp_path / "skel.pgm").exists()

    def test_train_errors_are_data_errors(self, tmp_path, capsys):
        """A NaN batch loss and a resume under another seed both exit 2,
        and neither writes a checkpoint."""
        rng = np.random.default_rng(4)
        corpus = [
            (img, img + rng.normal(0, 20, img.shape).astype(np.float32))
            for img in rng.uniform(0, 255, (3, 24, 24)).astype(np.float32)
        ]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"seed": 5, "network": TINY_NET, "train": {"batch_size": 4, "epochs": 1}}
        ))
        data = tmp_path / "patches.bin"
        write_packed(data, build_dataset(corpus, patch_size=12, stride=12))
        assert cli_dispatch(
            ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(tmp_path / "a")]
        ) == 0
        resume = ["--resume", str(tmp_path / "a" / "ckpt_epoch_0001.fpdc")]
        rc = cli_dispatch(
            ["train", "--data", str(data), "--config", str(cfg_path), "--seed", "6",
             "--out", str(tmp_path / "b"), *resume]
        )
        assert rc == 2
        assert "seed 5" in capsys.readouterr().err

        for _, noisy in corpus:
            noisy[0, 0] = np.nan
        write_packed_raw(data, build_dataset(corpus, patch_size=12, stride=12))
        rc = cli_dispatch(
            ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(tmp_path / "c")]
        )
        assert rc == 2
        assert "loss is nan" in capsys.readouterr().err
        assert not list((tmp_path / "c").glob("*.fpdc"))

    def test_non_finite_held_out_patch_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        corpus = [
            (img, img + rng.normal(0, 20, img.shape).astype(np.float32))
            for img in rng.uniform(0, 255, (6, 24, 24)).astype(np.float32)
        ]
        ds = build_dataset(corpus, patch_size=12, stride=12)
        _, held = holdout_split(ds, 0.5, 5)
        for i in held:  # NaN in held-out sources only: training itself runs clean
            ds.corpus[ds.ref(i).source][1][0, 0] = np.nan
        data = tmp_path / "patches.bin"
        write_packed_raw(data, ds)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "seed": 5, "network": TINY_NET, "train": {"batch_size": 4, "epochs": 1},
            "eval": {"holdout_fraction": 0.5},
        }))
        out = tmp_path / "out"
        rc = cli_dispatch(
            ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        )
        assert rc == 2
        assert "held-out patch" in capsys.readouterr().err
        assert not list(out.glob("*.fpdc"))
        log = out / "training_log.csv"
        assert not log.exists() or "nan" not in log.read_text()

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, capsys):
        model = zero_model(tmp_path)
        blob = bytearray(model.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        model.write_bytes(bytes(blob))
        write_image(np.full((16, 16), 100.0), tmp_path / "in.fpd1")
        rc = cli_dispatch(
            ["denoise", "--model", str(model), "--in", str(tmp_path / "in.fpd1"),
             "--out", str(tmp_path / "out.fpd1")]
        )
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out.fpd1").exists()

    def test_train_config_error_precedes_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"seed": 1, "train": {"batch_size": 1}}))
        rc = cli_dispatch(
            ["train", "--config", str(cfg_path), "--data", str(tmp_path / "missing.fpds"),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "batch_size" in err and "missing.fpds" not in err

    def test_resume_at_last_epoch_is_data_error(self, tmp_path, capsys):
        data, cfg_path = train_inputs(tmp_path)
        run = ["train", "--data", str(data), "--config", str(cfg_path)]
        assert cli_dispatch([*run, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        resume = ["--resume", str(tmp_path / "a" / "ckpt_epoch_0001.fpdc")]
        assert cli_dispatch([*run, "--out", str(tmp_path / "b"), *resume]) == 2
        assert "epoch 1" in single_error_line(capsys)
        assert not (tmp_path / "b").exists()

    def test_malformed_packed_dataset_is_data_error(self, tmp_path, capsys):
        corruptions = [
            lambda p: edit_header(p, lambda h: h.pop("patch_size")),
            lambda p: edit_header(p, lambda h: h.update(augmentations=[[0, 0]])),
            lambda p: edit_header(p, lambda h: h.update(height=23)),
            lambda p: edit_header(p, lambda h: h.update(sources=4)),
            lambda p: edit_header(p, lambda h: h.pop("mode")),
            lambda p: edit_header(p, lambda h: h.update(patch_size="12")),
            lambda p: replace_header(p, "[1]"),
            lambda p: replace_header(p, "7"),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_bytes(p.read_bytes()[:6]),
            say_version_1,
        ]
        for k, corrupt in enumerate(corruptions):
            data, cfg_path = train_inputs(tmp_path)
            corrupt(data)
            rc = cli_dispatch(
                ["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(tmp_path / f"o{k}")]
            )
            assert rc == 2, k
            single_error_line(capsys)

    def test_version_1_packed_dataset_is_data_error(self, tmp_path, capsys):
        data, cfg_path = train_inputs(tmp_path)
        write_packed_raw(data, PackedDataset(data), version=1)
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        assert cli_dispatch(argv) == 2
        assert "format version 1, expected 3" in single_error_line(capsys)
        assert not out.exists()

    def test_version_2_packed_dataset_is_data_error(self, tmp_path, capsys):
        data, cfg_path = train_inputs(tmp_path)
        write_packed_raw(data, PackedDataset(data), version=2)
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        assert cli_dispatch(argv) == 2
        assert "format version 2, expected 3" in single_error_line(capsys)
        assert not out.exists()

    def test_zero_source_packed_dataset_is_data_error(self, tmp_path, capsys):
        _, cfg_path = train_inputs(tmp_path)
        data = tmp_path / "empty.fpds"
        write_zero_source_header(data, 2000)
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        assert cli_dispatch(argv) == 2
        assert "fewer than one batch" in single_error_line(capsys)
        assert not out.exists()

    def test_resume_with_negative_adam_moment_writes_nothing(self, tmp_path, capsys):
        data, cfg_path = train_inputs(tmp_path)
        run = ["train", "--data", str(data), "--config", str(cfg_path)]
        assert cli_dispatch([*run, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "a" / "ckpt_epoch_0001.fpdc"
        header = read_header(ckpt)
        blob = bytearray(ckpt.read_bytes())
        start = len(blob) - 4 * sum(int(np.prod(e["shape"])) for e in header["tensors"])
        moments = [e for e in header["tensors"] if e["name"].startswith("adam.v.")]
        for entry in moments:
            at = start + entry["offset"]
            size = int(np.prod(entry["shape"]))
            blob[at : at + 4 * size] = np.full(size, -1.0, "<f4").tobytes()
        ckpt.write_bytes(bytes(blob))
        doc = json.loads(cfg_path.read_text())
        doc["train"]["epochs"] = 2  # one epoch left to train, so only the moments are wrong
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "b"
        assert cli_dispatch([*run, "--out", str(out), "--resume", str(ckpt)]) == 2
        assert f"{moments[0]['name']} has negative" in single_error_line(capsys)
        assert not out.exists()

    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys):
        write_image(np.full((16, 16), 100.0), tmp_path / "in.fpd1")
        corruptions = [
            lambda t: t.__setitem__(0, 7),
            lambda t: t[0].update(offset=-(4 * 18 + 4)),
            lambda t: t[2].update(offset=0),
            lambda t: t[0]["shape"].__setitem__(0, -2),
        ]
        for k, corrupt in enumerate(corruptions):
            model = zero_model(tmp_path)
            assert read_header(model)["tensors"][0]["shape"] == [2, 1, 3, 3]
            edit_header(model, lambda h: corrupt(h["tensors"]))
            rc = cli_dispatch(
                ["denoise", "--model", str(model), "--in", str(tmp_path / "in.fpd1"),
                 "--out", str(tmp_path / "out.fpd1")]
            )
            assert rc == 2, k
            single_error_line(capsys)
        assert not (tmp_path / "out.fpd1").exists()


# --- bad input that must surface as its module's typed error and exit 2

def run_config_file(tmp_path, blob):
    path = tmp_path / "run.json"
    path.write_bytes(blob if isinstance(blob, bytes) else json.dumps(blob).encode())
    return path


def config_case(doc):
    """A run-config document that ``config_from_dict`` and ``simulate`` refuse."""
    def case(tmp_path):
        path = run_config_file(tmp_path, doc)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "corpus")]
        return (lambda: config_from_dict(doc)), ConfigError, argv
    return case


def config_file_case(blob):
    """A config file that ``load_config`` and ``simulate`` refuse."""
    def case(tmp_path):
        path = run_config_file(tmp_path, blob)
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "corpus")]
        return (lambda: load_config(path)), ConfigError, argv
    return case


def negative_seed_case(tmp_path):
    argv = ["simulate", "--seed", "-1", "--out", str(tmp_path / "corpus")]
    return (lambda: RunConfig(seed=-1)), ConfigError, argv


def small_dataset_case(sections):
    """The 12 patches of ``train_inputs`` against a batch that does not fit."""
    def case(tmp_path):
        data, _ = train_inputs(tmp_path)
        doc = {"seed": 5, "network": TINY_NET, **sections}
        cfg = config_from_dict(doc)
        path = run_config_file(tmp_path, doc)
        argv = ["train", "--data", str(data), "--config", str(path), "--out", str(tmp_path / "o")]
        return (lambda: train(PackedDataset(data), cfg.network, cfg.train_config())), \
            DatasetError, argv
    return case


def float_filters_checkpoint_case(tmp_path):
    model = zero_model(tmp_path)
    edit_header(model, lambda h: h["network"].update(filters=2.0))
    write_image(np.full((16, 16), 100.0), tmp_path / "in.fpd1")
    argv = ["denoise", "--model", str(model), "--in", str(tmp_path / "in.fpd1"),
            "--out", str(tmp_path / "out.fpd1")]
    return (lambda: load_checkpoint(model)), CheckpointError, argv


def trailing_bytes_checkpoint_case(tmp_path):
    model = zero_model(tmp_path)
    model.write_bytes(model.read_bytes() + b"\0" * 4)
    write_image(np.full((16, 16), 100.0), tmp_path / "in.fpd1")
    argv = ["denoise", "--model", str(model), "--in", str(tmp_path / "in.fpd1"),
            "--out", str(tmp_path / "out.fpd1")]
    return (lambda: load_checkpoint(model)), CheckpointError, argv


BAD_INPUT_CASES = {
    "width-float": config_case({"seed": 1, "simulate": {"width": 2.5}}),
    "range-of-three": config_case({"seed": 1, "simulate": {"a0c_sq_range": [1, 50, 150]}}),
    "filters-float": config_case({"seed": 1, "network": {"filters": 2.0}}),
    "epochs-float": config_case({"seed": 1, "train": {"epochs": 1.5}}),
    "batch_size-float": config_case({"seed": 1, "train": {"batch_size": 2.5}}),
    "deep-json-array": config_file_case(b"[" * 100_000 + b"]" * 100_000),
    "non-utf8-file": config_file_case(b'{"seed": 1, "caf\xe9": 2}'),
    "min_terms-above-max_terms": config_case(
        {"seed": 1, "simulate": {"min_terms": 4, "max_terms": 3}}
    ),
    "negative-a0c_sq_range": config_case({"seed": 1, "simulate": {"a0c_sq_range": [-5, 10]}}),
    "seed-minus-one": negative_seed_case,
    "dataset-below-one-batch": small_dataset_case({"train": {"batch_size": 16, "epochs": 1}}),
    "train-split-below-one-batch": small_dataset_case(
        {"train": {"batch_size": 8, "epochs": 1}, "eval": {"holdout_fraction": 0.5}}
    ),
    "checkpoint-filters-float": float_filters_checkpoint_case,
    "checkpoint-trailing-bytes": trailing_bytes_checkpoint_case,
    "eval-every-negative": config_case({"seed": 1, "eval": {"every": -1}}),
    "eval-max_patches-negative": config_case({"seed": 1, "eval": {"max_patches": -3}}),
    "holdout_fraction-one": config_case({"seed": 1, "eval": {"holdout_fraction": 1.0}}),
    "holdout_fraction-negative": config_case({"seed": 1, "eval": {"holdout_fraction": -0.1}}),
}


class TestTypedInputErrors:
    @pytest.mark.parametrize("case", BAD_INPUT_CASES.values(), ids=list(BAD_INPUT_CASES))
    def test_bad_input_is_typed_and_exits_2(self, tmp_path, capsys, case):
        call, error, argv = case(tmp_path)
        with pytest.raises(error):
            call()
        assert cli_dispatch(argv) == 2
        single_error_line(capsys)

    def test_nan_awgn_sigma_writes_no_corpus(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            '{"seed": 1, "simulate": {"count": 1, "width": 32, "height": 32, '
            '"awgn_count": 1, "awgn_sigma": NaN}}'
        )
        out = tmp_path / "corpus"
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "awgn_sigma" in single_error_line(capsys)
        assert not out.exists()

    def test_overflowing_learning_rate_is_refused_before_training(self, tmp_path, capsys):
        data, _ = train_inputs(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            f'{{"seed": 5, "network": {json.dumps(TINY_NET)}, '
            '"train": {"batch_size": 4, "epochs": 1, "learning_rate": 1e400}}'
        )
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        assert cli_dispatch(argv) == 2
        assert "learning_rate" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("patch, stride", [("0", "8"), ("-4", "8"), ("8", "0")])
    def test_patch_or_stride_below_one_writes_no_file(self, tmp_path, capsys, patch, stride):
        corpus = tmp_path / "corpus"
        for sub in ("clean", "noisy"):
            (corpus / sub).mkdir(parents=True)
            write_image(np.full((16, 16), 7.0), corpus / sub / "0000.fpd1")
        out = tmp_path / "p.fpds"
        rc = cli_dispatch(["dataset", "--corpus", str(corpus), "--out", str(out),
                           "--patch", patch, "--stride", stride])
        assert rc == 2
        assert "patch size and stride" in single_error_line(capsys)
        assert not list(tmp_path.glob("p.fpds*"))

    def test_plain_value_error_is_a_bug_and_propagates(self, tmp_path, monkeypatch):
        write_image(np.zeros((16, 16)), tmp_path / "a.fpd1")

        def broken(*args):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli, "psnr", broken)
        with pytest.raises(ValueError, match="a bug"):
            cli_dispatch(["metrics", "--ref", str(tmp_path / "a.fpd1"),
                          "--test", str(tmp_path / "a.fpd1")])


def denoise_argv(tmp_path, model):
    write_image(np.full((20, 20), 100.0), tmp_path / "in.fpd1")
    return ["denoise", "--model", str(model), "--in", str(tmp_path / "in.fpd1"),
            "--out", str(tmp_path / "out.fpd1")]


class TestNoNonFiniteOutput:
    """Commands refuse, with exit 2 and no output file, what would write NaN."""

    def test_simulate_overflowing_phase_writes_no_manifest(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path, {"seed": 1, "simulate": {
            "count": 1, "width": 32, "height": 32,
            "a0c_sq_range": [1e300, 1e300], "ar_sq": 1e10,
        }})
        out = tmp_path / "corpus"
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "non-finite" in single_error_line(capsys)
        assert not (out / "manifest.json").exists()
        assert not list(out.rglob("*.fpd1"))

    def test_denoise_with_overflowing_weights_writes_no_output(self, tmp_path):
        cfg = NetworkConfig(**TINY_NET)
        params = build_network(cfg, np.random.default_rng(0))
        for name, arr in iter_tensors(params):
            if name.endswith("conv.weights"):
                arr[:] = 1e30  # finite in float32; the forward pass overflows
        model = tmp_path / "big.fpdc"
        save_checkpoint(model, params, cfg, TrainConfig(seed=0), epoch=0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_dispatch(denoise_argv(tmp_path, model)) == 2
        assert not (tmp_path / "out.fpd1").exists()

    def test_denoise_with_negative_running_variance_writes_no_output(self, tmp_path, capsys):
        cfg = NetworkConfig(**TINY_NET)
        params = build_network(cfg, np.random.default_rng(0))
        next(a for n, a in iter_tensors(params) if n.endswith("running_var"))[:] = -1.0
        model = tmp_path / "negvar.fpdc"
        save_checkpoint(model, params, cfg, TrainConfig(seed=0), epoch=0)
        assert cli_dispatch(denoise_argv(tmp_path, model)) == 2
        assert "running_var has negative" in single_error_line(capsys)
        assert not (tmp_path / "out.fpd1").exists()

    def test_train_with_weights_beyond_float32_writes_no_checkpoint(self, tmp_path, capsys):
        """One batch per epoch at learning rate 1e39 leaves infinite weights,
        which the epoch's checkpoint write refuses."""
        rng = np.random.default_rng(4)
        corpus = [
            (img, img + rng.normal(0, 20, img.shape).astype(np.float32))
            for img in rng.uniform(0, 255, (2, 24, 24)).astype(np.float32)
        ]
        data = tmp_path / "patches.fpds"
        write_packed(data, build_dataset(corpus, patch_size=12, stride=12))
        cfg_path = run_config_file(tmp_path, {
            "seed": 5, "network": TINY_NET, "eval": {"holdout_fraction": 0},
            "train": {"batch_size": 8, "epochs": 1, "learning_rate": 1e39},
        })
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        with np.errstate(over="ignore"):
            assert cli_dispatch(argv) == 2
        assert "not finite in float32" in single_error_line(capsys)
        assert not list(tmp_path.rglob("*.fpdc"))

    def test_train_on_patches_below_ssim_window_writes_nothing(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        corpus = [
            (img, img + rng.normal(0, 20, img.shape).astype(np.float32))
            for img in rng.uniform(0, 255, (4, 16, 16)).astype(np.float32)
        ]
        data = tmp_path / "patches.fpds"
        write_packed(data, build_dataset(corpus, patch_size=8, stride=8))
        cfg_path = run_config_file(
            tmp_path, {"seed": 5, "network": TINY_NET, "train": {"batch_size": 4, "epochs": 1}}
        )
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        assert cli_dispatch(argv) == 2
        assert "patches are 8x8" in single_error_line(capsys)
        assert not out.exists()
        assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.fpdc"))


class TestRefusedFirstEpochLeavesNoOut:
    """A run refused during its first epoch exits 2 and creates no ``--out``."""

    def run_train(self, tmp_path, corpus, config, nan_sources=()):
        ds = build_dataset(corpus, patch_size=12, stride=12)
        for source in nan_sources:
            ds.corpus[source][1][0, 0] = np.nan
        data = tmp_path / "patches.fpds"
        write_packed_raw(data, ds)
        cfg_path = run_config_file(tmp_path, {"seed": 5, "network": TINY_NET, **config})
        out = tmp_path / "o"
        argv = ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_dispatch(argv) == 2
        assert not out.exists()

    @staticmethod
    def noisy_corpus(n):
        rng = np.random.default_rng(4)
        return [
            (img, img + rng.normal(0, 20, img.shape).astype(np.float32))
            for img in rng.uniform(0, 255, (n, 24, 24)).astype(np.float32)
        ]

    def test_nan_batch_loss(self, tmp_path, capsys):
        corpus = self.noisy_corpus(3)
        self.run_train(tmp_path, corpus, {"train": {"batch_size": 4, "epochs": 1}},
                       nan_sources=range(3))
        assert "loss is nan" in single_error_line(capsys)

    def test_nan_held_out_patch(self, tmp_path, capsys):
        corpus = self.noisy_corpus(6)
        ds = build_dataset(corpus, patch_size=12, stride=12)
        _, held = holdout_split(ds, 0.5, 5)  # NaN in held-out sources only
        held_sources = {ds.ref(i).source for i in held}
        self.run_train(tmp_path, corpus, {
            "train": {"batch_size": 4, "epochs": 1}, "eval": {"holdout_fraction": 0.5},
        }, nan_sources=held_sources)
        assert "held-out patch" in single_error_line(capsys)

    def test_adam_step_beyond_float32(self, tmp_path, capsys):
        corpus = self.noisy_corpus(2)
        self.run_train(tmp_path, corpus, {
            "train": {"batch_size": 8, "epochs": 1, "learning_rate": 1e39},
            "eval": {"every": 0, "holdout_fraction": 0},
        })
        assert re.search(r"epoch 1, batch 1: the Adam step left s00\.l\d\d\.\S+ not finite "
                         "in float32", single_error_line(capsys))


SRC = Path(__file__).resolve().parents[1] / "src"


def run_entry_point(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "fringe_denoise.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestEntryPoint:
    def test_unknown_flag_exits_1(self):
        result = run_entry_point("metrics", "--nope")
        assert result.returncode == 1
        assert "error:" in result.stderr and "Traceback" not in result.stderr

    def test_missing_input_exits_2(self, tmp_path):
        result = run_entry_point(
            "skeletonize", "--in", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "s.pgm")
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
        assert not (tmp_path / "s.pgm").exists()


# --- end-to-end fuzz over all six subcommands

# Wrong types, booleans, null, lists, objects and non-finite numbers.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=3),
    st.just({}), st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.floats(-3, 3),
)


def pair(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(sorted)


# Section -> field -> (valid values, out-of-range values).  Every field that
# sets a size or a duration is required, so no default (256² images, the
# 64-filter paper network, 35 epochs) is ever used; valid values stay tiny.
NONE = st.nothing()
REQUIRED = {
    "simulate": {"count": (st.integers(1, 3), st.integers(-1, 0)),
                 "width": (st.integers(8, 48), st.integers(-1, 0)),
                 "height": (st.integers(8, 48), st.integers(-1, 0))},
    "network": {"stages": (st.integers(1, 2), st.just(0)),
                "layers_per_stage": (st.integers(3, 4), st.just(2)),
                "filters": (st.integers(1, 3), st.just(0)),
                "kernel": (st.sampled_from([1, 3, 5]), st.sampled_from([-1, 0, 2]))},
    "train": {"batch_size": (st.integers(2, 4), st.integers(0, 1) | st.integers(13, 20)),
              "epochs": (st.integers(1, 2), st.just(0))},
    "eval": {},
}
OPTIONAL = {
    "simulate": {"a0c_sq_range": (pair(1, 200), pair(-5, 0) | st.just([150, 1])),
                 "ned_lambda_range": (pair(0, 60), pair(-1, -0.1) | st.just([50, 0])),
                 "ar_sq": (st.floats(0.1, 4), st.floats(-1, 0)),
                 "phi_r": (st.floats(-4, 4), NONE),
                 "index_origin": (st.integers(-3, 3), NONE),
                 "min_terms": (st.integers(1, 2), st.integers(-1, 0)),
                 "max_terms": (st.integers(2, 5), st.integers(-1, 0)),
                 "awgn_count": (st.integers(0, 1), st.integers(-1, -1) | st.integers(4, 5)),
                 "awgn_sigma": (st.floats(0, 30), st.floats(-1, -0.01)),
                 "awgn_mode": (st.sampled_from(["in_place", "append"]), st.just("x"))},
    "network": {"alpha_first": (st.floats(0, 1), st.floats(1.01, 2)),
                "alpha_rest": (st.floats(0, 1), st.floats(-1, -0.01))},
    "train": {"learning_rate": (st.floats(1e-5, 1e-2), st.floats(-1, 0)),
              "beta1": (st.floats(0, 0.99), st.floats(1, 2)),
              "beta2": (st.floats(0.5, 0.999), st.floats(-1, -0.01)),
              "adam_eps": (st.floats(1e-9, 1e-3), st.just(0))},
    "eval": {"every": (st.integers(0, 2), st.just(-1)),
             "holdout_fraction": (st.floats(0, 0.5), st.floats(0.9, 1.5)),
             "max_patches": (st.integers(0, 8), st.just(-1))},
}


def run_config(draw):
    """A run-config document: well formed (mode 0), with out-of-range values
    (mode 1), or also with wrong types and junk sections (mode 2)."""
    mode = draw(st.integers(0, 2))

    def value(valid, out_of_range):
        return draw([valid, valid | out_of_range, valid | out_of_range | JUNK][mode])

    if mode == 2 and draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    doc = {"seed": value(st.integers(0, 9), st.just(-1))}
    for name, fields in REQUIRED.items():
        if mode == 2 and draw(st.integers(0, 9)) == 0:
            doc[name] = draw(JUNK)
            continue
        doc[name] = {k: value(*v) for k, v in fields.items()}
        doc[name].update(
            {k: value(*v) for k, v in OPTIONAL[name].items() if draw(st.booleans())}
        )
    if mode and draw(st.integers(0, 9)) == 0:
        doc["stray"] = 1
    return doc


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, cfg_path = train_inputs(root)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_dispatch(["train", "--data", str(data), "--config", str(cfg_path),
                             "--out", str(root / "trained")]) == 0
    corpus = root / "corpus"
    rng = np.random.default_rng(9)
    for sub in ("clean", "noisy"):
        (corpus / sub).mkdir(parents=True)
        for k in range(2):
            write_image(rng.uniform(0, 255, (24, 24)), corpus / sub / f"{k:04d}.fpd1")
    write_image(rng.uniform(0, 255, (20, 20)), root / "good.fpd1")
    write_image(rng.uniform(0, 255, (20, 20)), root / "good.pgm")
    write_image(np.full((2, 2), 9.0), root / "tiny.pgm")
    nan = np.full((20, 20), 5.0, dtype=np.float32)
    nan[3, 3] = np.nan
    (root / "nan.fpd1").write_bytes(encode_fpd1(nan))
    missing = root / "missing"
    images = [root / "good.fpd1", root / "good.pgm", root / "tiny.pgm", root / "nan.fpd1",
              missing, cfg_path, corpus]
    return {
        "root": root,
        "corpus": [corpus, corpus, missing, cfg_path],
        "data": [data, data, missing, cfg_path],
        "model": [root / "trained" / "ckpt_epoch_0001.fpdc", zero_model(root), missing,
                  root / "good.fpd1"],
        "image": images,
    }


def fuzz_argv(draw, inputs, work):
    def pick(kind):
        return str(draw(st.sampled_from(inputs[kind])))

    def maybe(*tokens):
        return list(tokens) if draw(st.booleans()) else []

    def config():
        path = work / "run.json"
        path.write_text(json.dumps(run_config(draw)))
        return str(path)

    command = draw(st.sampled_from(
        ["simulate", "dataset", "train", "denoise", "metrics", "skeletonize"]
    ))
    if command == "simulate":
        # Without --config the defaults render 256² images: leave both out instead.
        source = ["--config", config()] if draw(st.booleans()) else []
        argv = ["--out", str(work / "corpus"), *source]
        argv += maybe("--count", str(draw(st.integers(-1, 3))))
        if source:
            argv += maybe("--seed", str(draw(st.integers(-1, 9))))
    elif command == "dataset":
        argv = ["--corpus", pick("corpus"), "--out", str(work / "p.fpds"),
                "--patch", str(draw(st.integers(-2, 30))),
                "--stride", str(draw(st.integers(-2, 30)))]
        argv += maybe("--augment", draw(st.sampled_from(
            ["", "hflip", "rot90,rot180", "rot270,hflip", "hflip,vflip", "none"])))
        argv += maybe("--augment-mode", draw(st.sampled_from(["expand", "in_place", "x"])))
    elif command == "train":
        argv = ["--data", pick("data"), "--config", config(), "--out", str(work / "run")]
        argv += maybe("--seed", str(draw(st.integers(-1, 9))))
        argv += maybe("--resume", pick("model"))
    elif command == "denoise":
        out = draw(st.sampled_from(["r.fpd1", "r.pgm", "r.png"]))
        argv = ["--model", pick("model"), "--in", pick("image"), "--out", str(work / out)]
    elif command == "metrics":
        argv = ["--ref", pick("image"), "--test", pick("image"), *maybe("--pretty")]
    else:
        out = draw(st.sampled_from(["s.pgm", "s.fpd1", "s.txt"]))
        argv = ["--in", pick("image"), "--out", str(work / out)]
    return [command, *argv, *draw(st.sampled_from([[], [], [], [], ["--bogus"], ["extra"]]))]


class TestCliFuzz:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_exit_code_and_one_error_line(self, fuzz_inputs, data):
        work = Path(tempfile.mkdtemp(dir=fuzz_inputs["root"]))
        argv = fuzz_argv(data.draw, fuzz_inputs, work)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_dispatch(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert rc in (0, 1, 2), argv
        assert len(errors) == (rc != 0), (argv, errors)
