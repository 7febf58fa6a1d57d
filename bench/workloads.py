"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in ``setup``.  For
each operation, ``prepare_op`` makes any per-operation inputs (untraced),
``run_op`` runs and times the operation, and ``check_op`` checks its
outputs outside the timed region.  Where first-call costs would otherwise
land in the first timed operation, set-up runs one warm-up operation and
returns its result, for the caller to check; otherwise it returns None.
``check_library`` compares the library's network maths with
``reference.py``.  Every operation returns its timed ``seconds`` and the
``items`` it completed (patches trained, images restored, pairs simulated
and packed).  Library functions are
called through their module attribute (``training.train``,
``cli.cli_dispatch``) so that the tracer's wrappers see them; the functions
the benchmark uses to build inputs and check outputs are bound here at
import time, so they stay untraced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import reference
from fringe_denoise import cli, network, training
from fringe_denoise.checkpoint import load_checkpoint, save_checkpoint
from fringe_denoise.config import SimulateConfig
from fringe_denoise.corpus import generate_pair
from fringe_denoise.dataset import PackedDataset, build_dataset, write_packed
from fringe_denoise.image_io import decode_fpd1, decode_pgm, encode_fpd1
from fringe_denoise.network import NetworkConfig, build_network, denoise, iter_tensors
from oracles import naive_ssim_mean  # tests/oracles.py, the independent SSIM reference

DESK_NET = NetworkConfig(stages=2, layers_per_stage=4, filters=16, kernel=5)
PAPER_NET = NetworkConfig(stages=3, layers_per_stage=8, filters=64, kernel=5)
# Smallest networks the library accepts with every layer kind present.
SMOKE_NET = NetworkConfig(stages=2, layers_per_stage=3, filters=4, kernel=3)
MODEL_SEED = 2024  # the restore checkpoint's corpus and training seed
CHECK_SIDE = 12  # side of the images in the reference check (bench/reference.py)


def make_corpus(seed: int, count: int, side: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Clean/noisy pairs as the corpus files store them (float32)."""
    cfg = SimulateConfig(count=count, width=side, height=side)
    return [
        tuple(a.astype(np.float32) for a in generate_pair(cfg, seed, i)[:2])
        for i in range(count)
    ]


def build_restore_model(path: Path, smoke: bool) -> None:
    """Train the restore workload's checkpoint with the desk recipe.

    The recipe is that of ``scripts/desk_run.py`` (20 images of 256², 40²
    patches at stride 24, batch 32, 6 epochs, learning rate 1e-3), with a
    fixed seed and every patch used for training, so the restored images
    look like those a user thins.
    """
    net, count, side, patch, stride, epochs = (
        (SMOKE_NET, 1, 32, 16, 8, 1) if smoke else (DESK_NET, 20, 256, 40, 24, 6)
    )
    pairs = make_corpus(MODEL_SEED, count, side)
    config = training.TrainConfig(
        batch_size=4 if smoke else 32,
        learning_rate=1e-3,
        epochs=epochs,
        seed=MODEL_SEED,
        eval_every=0,
        holdout_fraction=0.0,
    )
    params, _ = training.train(build_dataset(pairs, patch, stride), net, config)
    save_checkpoint(path, params, net)


def read_fpd1(path) -> np.ndarray:
    return decode_fpd1(Path(path).read_bytes())


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TrainWorkload:
    """``training.train`` for one epoch on a memory-mapped ``PackedDataset``.

    One operation is one ``train()`` call; every call uses the same data and
    seed, so every call must agree bit for bit with the first.
    """

    min_ops = 2  # the determinism check compares two calls

    def __init__(self, net, batch, patch, stride, images, side, holdout, checkpoints):
        self.net = net
        self.batch = batch
        self.patch = patch
        self.stride = stride
        self.images = images
        self.side = side
        self.holdout = holdout
        self.checkpoints = checkpoints

    def setup(self, workdir: Path, seed: int) -> dict | None:
        pairs = make_corpus(seed, self.images, self.side)
        path = workdir / "patches.fpds"
        write_packed(path, build_dataset(pairs, patch_size=self.patch, stride=self.stride))
        self.dataset = PackedDataset(path)
        self.reference = None
        self.ckpt = workdir / "ckpt" / "ckpt_epoch_0001.fpdc"
        self.config = training.TrainConfig(
            batch_size=self.batch,
            epochs=1,
            seed=seed,
            eval_every=1 if self.holdout else 0,
            holdout_fraction=self.holdout,
            eval_max_patches=64,
            checkpoint_dir=str(self.ckpt.parent) if self.checkpoints else None,
        )
        train_idx, _ = training.holdout_split(self.dataset, self.holdout, seed)
        self.patches_per_call = (len(train_idx) // self.batch) * self.batch
        return None

    def check_library(self, rng) -> list[str]:
        """The float64 maths as configured, then the float32 maths on a
        kink-free network: in float32, rounding can put a pre-activation on
        the other side of the leaky rectifier's kink from the reference,
        which changes the gradient by far more than rounding."""
        shape = (2, 1, CHECK_SIDE, CHECK_SIDE)
        linear = dataclasses.replace(self.net, alpha_first=1.0, alpha_rest=1.0)
        problems = []
        for net, dtype in ((self.net, np.float64), (linear, np.float32)):
            params = build_network(net, rng, dtype)
            problems += reference.check_library(
                network, training, params, net, dtype, shape, True, rng
            )
        return problems

    def prepare_op(self, i: int) -> None:
        """Nothing: every call trains on the data built in set-up."""

    def run_op(self, i: int, _inputs) -> dict:
        self.ckpt.unlink(missing_ok=True)
        t0 = time.perf_counter()
        params, log = training.train(self.dataset, self.net, self.config)
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "items": self.patches_per_call,
            "loss": log[-1]["mean_loss"],
            "params": params,
        }

    def check_op(self, i: int, result: dict) -> list[str]:
        problems = []
        tensors = {name: arr.copy() for name, arr in iter_tensors(result.pop("params"))}
        if not math.isfinite(result["loss"]):
            problems.append(f"train_loss is {result['loss']}")
        if not all(np.isfinite(a).all() for a in tensors.values()):
            problems.append("final parameters are not finite")
        if self.checkpoints:
            if not self.ckpt.exists():
                problems.append("no checkpoint written")
            else:
                saved = dict(iter_tensors(load_checkpoint(self.ckpt, expect=self.net)[0]))
                if any(not np.array_equal(saved[k], tensors[k]) for k in tensors):
                    problems.append("checkpoint differs from the returned parameters")
        if self.reference is None:
            self.reference = (result["loss"], tensors)
        else:
            loss, ref = self.reference
            if result["loss"] != loss:
                problems.append(f"train_loss {result['loss']!r} differs from first call {loss!r}")
            if any(not np.array_equal(ref[k], tensors[k]) for k in ref):
                problems.append("final parameters differ from the first call")
        return problems

    def stage_metrics(self, results: list[dict]) -> dict:
        return {"training.train.loss": results[-1]["loss"]}


class RestoreWorkload:
    """The user's restore path on fresh noisy images, through the CLI.

    One operation is ``denoise``, ``metrics`` and ``skeletonize`` on one new
    image, dispatched in-process, with a trained desk-architecture
    checkpoint (``build_restore_model``).  Thinning runs until the skeleton
    stops changing, so its cost depends on what the network restores.
    """

    min_ops = 1

    def __init__(self, net, side, model: Path):
        self.net = net
        self.side = side
        self.trained_model = model

    def setup(self, workdir: Path, seed: int) -> dict | None:
        self.workdir = workdir
        self.seed = seed
        self.model = workdir / "model.fpdc"
        shutil.copyfile(self.trained_model, self.model)
        self.params, _, _, _ = load_checkpoint(self.model, expect=self.net)
        self.cfg = SimulateConfig(count=1, width=self.side, height=self.side)
        return self.run_op(-1, self.prepare_op(-1))  # warm-up

    def check_library(self, rng) -> list[str]:
        # The CLI decodes images to float64 and runs the float32 model on them.
        shape = (1, 1, 2 * CHECK_SIDE, 2 * CHECK_SIDE)
        return reference.check_library(
            network, training, self.params, self.net, np.float64, shape, False, rng
        )

    def prepare_op(self, i: int) -> dict:
        """Write the operation's fresh clean/noisy image pair."""
        clean, noisy, _ = generate_pair(self.cfg, self.seed, i + 1)
        d = self.workdir / f"img{i + 1:05d}"
        d.mkdir()
        files = {k: d / f"{k}.fpd1" for k in ("clean", "noisy", "restored")}
        files["clean"].write_bytes(encode_fpd1(clean))
        files["noisy"].write_bytes(encode_fpd1(noisy))
        files["skeleton"] = d / "skeleton.pgm"
        return files

    def run_op(self, i: int, files: dict) -> dict:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            codes = [
                cli.cli_dispatch(
                    ["denoise", "--model", str(self.model), "--in", str(files["noisy"]),
                     "--out", str(files["restored"])]
                ),
                cli.cli_dispatch(
                    ["metrics", "--ref", str(files["clean"]), "--test", str(files["restored"])]
                ),
                cli.cli_dispatch(
                    ["skeletonize", "--in", str(files["restored"]),
                     "--out", str(files["skeleton"])]
                ),
            ]
        seconds = time.perf_counter() - t0
        return {
            "seconds": seconds,
            "items": 1,
            "codes": codes,
            "files": files,
            "stdout": out.getvalue(),
        }

    def check_op(self, i: int, result: dict) -> list[str]:
        problems = []
        if result["codes"] != [0, 0, 0]:
            return [f"exit codes {result['codes']}"]
        files = result["files"]
        restored = read_fpd1(files["restored"])
        if not np.isfinite(restored).all():
            problems.append("restored image is not finite")
        noisy = read_fpd1(files["noisy"]).astype(np.float64)
        expect = denoise(noisy, self.params, self.net).astype(np.float32)
        if not np.array_equal(restored, expect):
            problems.append("restored image differs from in-process denoise")
        if i == 0:
            lines = result["stdout"].splitlines()
            ssim = float(lines[lines.index("psnr,ssim,mae,seconds") + 1].split(",")[1])
            clean = read_fpd1(files["clean"]).astype(np.float64)
            oracle = naive_ssim_mean(restored.astype(np.float64), clean)
            if not abs(ssim - oracle) <= 1e-9:
                problems.append(f"metrics SSIM {ssim!r} vs oracle {oracle!r}")
        skeleton = decode_pgm(files["skeleton"].read_bytes())
        if not np.isin(skeleton, (0.0, 255.0)).all():
            problems.append("skeleton is not 0/255")
        for path in files.values():
            path.unlink()
        files["clean"].parent.rmdir()
        return problems

    def stage_metrics(self, results: list[dict]) -> dict:
        return {}


class SimulatePackWorkload:
    """The data-writing side: ``simulate``, then ``dataset``, then one read pass.

    One operation simulates a fresh corpus through the CLI, packs it into
    patches, and reads every packed patch back in order.
    """

    min_ops = 1

    def __init__(self, count, side, patch, stride):
        self.count = count
        self.side = side
        self.patch = patch
        self.stride = stride

    def setup(self, workdir: Path, seed: int) -> dict | None:
        self.workdir = workdir
        self.seed = seed
        self.config = workdir / "run.json"
        self.config.write_text(
            json.dumps({"seed": seed, "simulate": {"width": self.side, "height": self.side}})
        )
        return self.run_op(-1, self.prepare_op(-1))  # warm-up

    def check_library(self, rng) -> list[str]:
        """Nothing: no network runs here."""
        return []

    def round_seed(self, i: int) -> int:
        return self.seed * 100_000 + i + 1

    def prepare_op(self, i: int) -> None:
        """Nothing: the operation itself creates its inputs."""

    def run_op(self, i: int, _inputs) -> dict:
        corpus = self.workdir / f"corpus{i + 1:05d}"
        packed = self.workdir / f"patches{i + 1:05d}.fpds"
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            codes = [
                cli.cli_dispatch(
                    ["simulate", "--config", str(self.config), "--out", str(corpus),
                     "--count", str(self.count), "--seed", str(self.round_seed(i))]
                )
            ]
            t1 = time.perf_counter()
            codes.append(
                cli.cli_dispatch(
                    ["dataset", "--corpus", str(corpus), "--out", str(packed),
                     "--patch", str(self.patch), "--stride", str(self.stride)]
                )
            )
            ds = PackedDataset(packed)
            patches = [ds[j] for j in range(len(ds))]
        t2 = time.perf_counter()
        return {
            "simulate_s": t1 - t0,
            "pack_s": t2 - t1,
            "seconds": t2 - t0,
            "items": self.count,
            "codes": codes,
            "corpus": corpus,
            "packed": packed,
            "patches": patches,
            "provenance": ds.provenance,
        }

    def check_op(self, i: int, result: dict) -> list[str]:
        if result["codes"] != [0, 0]:
            return [f"exit codes {result['codes']}"]
        problems = []
        corpus, packed = result["corpus"], result["packed"]
        manifest = json.loads((corpus / "manifest.json").read_text())
        for rel, digest in manifest["artifacts"].items():
            if sha256_of(corpus / rel) != digest:
                problems.append(f"corpus manifest hash mismatch for {rel}")
        pack_manifest = json.loads(packed.with_name(packed.name + ".manifest.json").read_text())
        if pack_manifest["artifacts"] != {packed.name: sha256_of(packed)}:
            problems.append("packed manifest hash mismatch")
        pairs = make_corpus(self.round_seed(i), self.count, self.side)
        expected = len(pairs) * len(range(0, self.side - self.patch + 1, self.stride)) ** 2
        if len(result["patches"]) != expected:
            problems.append(f"{len(result['patches'])} packed patches, expected {expected}")
        p = self.patch
        for ref, got in zip(result["provenance"], result["patches"]):
            window = (slice(ref.row, ref.row + p), slice(ref.col, ref.col + p))
            if not all(np.array_equal(g, s[window]) for g, s in zip(got, pairs[ref.source])):
                problems.append(f"packed patch {ref} differs from its corpus window")
                break
        shutil.rmtree(corpus)
        for path in packed.parent.glob(packed.name + "*"):
            path.unlink()
        result.pop("patches")
        return problems

    def stage_metrics(self, results: list[dict]) -> dict:
        patches = len(results[0]["provenance"])
        return {
            "cli.simulate.pairs_per_s": statistics.median(
                self.count / r["simulate_s"] for r in results
            ),
            "cli.dataset.patches_per_s": statistics.median(patches / r["pack_s"] for r in results),
        }


# Per-stage results some workloads report with the per-layer metrics; the
# dataset stage includes the read-back pass over the packed file.
STAGE_UNITS = {
    "training.train.loss": "loss",
    "cli.simulate.pairs_per_s": "1/s",
    "cli.dataset.patches_per_s": "1/s",
}


def make_workload(name: str, model: Path, smoke: bool = False):
    """The named workload at full size, or at the smallest sizes for tests.

    ``model`` is the checkpoint ``build_restore_model`` wrote.
    """
    if name == "train-desk":
        if smoke:
            return TrainWorkload(SMOKE_NET, 4, 12, 10, 4, 32, 0.25, True)
        return TrainWorkload(DESK_NET, 32, 40, 176, 48, 256, 0.25, True)
    if name == "train-paper":
        if smoke:
            return TrainWorkload(SMOKE_NET, 2, 16, 16, 1, 32, 0.0, False)
        return TrainWorkload(PAPER_NET, 8, 80, 256, 8, 256, 0.0, False)
    if name == "restore-256":
        if smoke:
            return RestoreWorkload(SMOKE_NET, 32, model)
        return RestoreWorkload(DESK_NET, 256, model)
    if name == "simulate-pack":
        if smoke:
            return SimulatePackWorkload(2, 32, 16, 8)
        return SimulatePackWorkload(8, 256, 40, 24)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-desk", "train-paper", "restore-256", "simulate-pack")
