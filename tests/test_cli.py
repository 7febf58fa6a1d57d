import hashlib
import json
import struct

import numpy as np

from fringe_denoise.checkpoint import save_checkpoint
from fringe_denoise.cli import cli_dispatch
from fringe_denoise.dataset import build_dataset, write_packed
from fringe_denoise.image_io import decode_fpd1, encode_fpd1, read_image, write_image
from fringe_denoise.network import (
    NetworkConfig,
    build_network,
    denoise,
    iter_tensors,
    network_forward,
)
from fringe_denoise.training import TrainConfig, holdout_split

from framing import edit_header, read_header, replace_header

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


def reshape_every_blob(path) -> None:
    """Give the 24 blobs (12 pairs) of ``train_inputs`` an 8x18 header in place
    of 12x12: same size, wrong shape."""
    blob = bytearray(path.read_bytes())
    size = 12 + 4 * 12 * 12
    for start in range(len(blob) - size, 0, -size)[: 2 * 12]:
        blob[start + 4 : start + 12] = struct.pack("<II", 8, 18)
    path.write_bytes(bytes(blob))


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
        write_packed(data, build_dataset(corpus, patch_size=12, stride=12))
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
            ds.corpus[ds.provenance[int(i)].source][1][0, 0] = np.nan
        data = tmp_path / "patches.bin"
        write_packed(data, ds)
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
        assert not list((tmp_path / "b").iterdir())

    def test_malformed_packed_dataset_is_data_error(self, tmp_path, capsys):
        corruptions = [
            lambda p: edit_header(p, lambda h: h.pop("patch_size")),
            lambda p: edit_header(p, lambda h: h["provenance"].__setitem__(0, [0, 0])),
            lambda p: edit_header(p, lambda h: h.update(patch_size="12")),
            lambda p: replace_header(p, "[1]"),
            lambda p: replace_header(p, "7"),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_bytes(p.read_bytes()[:6]),
            reshape_every_blob,
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
