"""Command-line surface tying the pipeline stages together.

Subcommands: simulate, dataset, train, denoise, metrics, skeletonize.
Every command is a pure function of its inputs, configuration and seed;
rerunning with the same arguments reproduces the output artifacts byte for
byte (timing columns aside).  Exit codes: 0 success, 1 usage error, 2 data
error (``FringeDenoiseError`` or ``OSError``); any other exception is a bug.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .config import ConfigError, RunConfig, load_config
from .corpus import generate_corpus, load_corpus, write_json
from .dataset import AUG_CODES, PackedDataset, build_dataset, write_packed
from .errors import FringeDenoiseError
from .image_io import read_image, write_image
from .network import denoise as run_denoise
from .quality import binarize, mae, psnr, ssim_mean, thin
from .speckle import normalize_to_range
from .training import train

USAGE_EXIT = 1
DATA_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_run_config(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        if getattr(args, "seed", None) is None:
            raise ConfigError("either --config or --seed is required")
        cfg = RunConfig(seed=args.seed)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    sim = cfg.simulate
    if args.count is not None:
        sim = dataclasses.replace(sim, count=args.count)
    out = Path(args.out)
    manifest = generate_corpus(sim, cfg.seed, out)
    manifest["config"] = {"seed": cfg.seed, "simulate": dataclasses.asdict(sim)}
    manifest["artifacts"] = {
        str(p.relative_to(out)): sha256_file(p)
        for sub in ("clean", "noisy")
        for p in sorted((out / sub).iterdir())
    }
    write_json(out / "manifest.json", manifest)
    print(f"wrote {manifest['count']} pairs to {out}")
    return 0


def cmd_dataset(args) -> int:
    unknown = [n for n in args.augment if n not in AUG_CODES or n == "none"]
    if unknown:
        raise UsageError(
            f"unknown augmentation {', '.join(unknown)} "
            f"(choose from hflip, rot90, rot180, rot270)"
        )
    aug_codes = tuple(AUG_CODES[name] for name in args.augment)
    ds = build_dataset(
        load_corpus(args.corpus),
        patch_size=args.patch,
        stride=args.stride,
        augmentations=aug_codes,
        mode=args.augment_mode,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_packed(out, ds)
    manifest = {
        "corpus": str(args.corpus),
        "patch_size": args.patch,
        "stride": args.stride,
        "augmentations": list(args.augment),
        "augment_mode": args.augment_mode,
        "sources": len(ds.corpus),
        "count": len(ds),
        "artifacts": {out.name: sha256_file(out)},
    }
    write_json(out.with_name(out.name + ".manifest.json"), manifest)
    print(f"packed {len(ds)} patch pairs into {out}")
    return 0


def numeric_environment() -> dict:
    """The numpy build and the threads and CPUs it may use: what float
    results and timings of a run depend on beyond its inputs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
    }


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    ds = PackedDataset(args.data)
    out = Path(args.out)  # train() creates it after its first epoch
    train_cfg = cfg.train_config(checkpoint_dir=out)
    log_path = out / "training_log.csv"
    params, log = train(
        ds, cfg.network, train_cfg, resume_from=args.resume, log_path=str(log_path)
    )
    checkpoints = sorted(out.glob("ckpt_epoch_*.fpdc"))
    manifest = {
        "config": cfg.resolved(),
        "seed": cfg.seed,
        "data": str(args.data),
        "resumed_from": args.resume,
        "artifacts": {p.name: sha256_file(p) for p in checkpoints},
        "training_log": log_path.name,
        "environment": numeric_environment(),
    }
    write_json(out / "run_manifest.json", manifest)
    final = log[-1]
    print(
        f"trained {len(log)} epochs; final mean loss {final['mean_loss']:.4f}; "
        f"checkpoints in {out}"
    )
    return 0


def cmd_denoise(args) -> int:
    params, net_config, _, _ = load_checkpoint(args.model)
    image = read_image(args.infile)
    restored = run_denoise(image, params, net_config)
    write_image(restored, args.out)
    print(f"denoised {args.infile} -> {args.out}")
    return 0


def cmd_metrics(args) -> int:
    ref = read_image(args.ref)
    test = read_image(args.test)
    t0 = time.perf_counter()
    p = psnr(test, ref)
    s = ssim_mean(test, ref)
    m = mae(test, ref)
    seconds = time.perf_counter() - t0
    if args.pretty:
        print(f"{'PSNR (dB)':>12} {'SSIM':>10} {'MAE':>10} {'seconds':>10}")
        print(f"{p:>12.4f} {s:>10.6f} {m:>10.4f} {seconds:>10.3f}")
    else:
        print("psnr,ssim,mae,seconds")
        print(f"{_fmt(p)},{_fmt(s)},{_fmt(m)},{seconds:.3f}")
    return 0


def _fmt(x: float) -> str:
    if np.isinf(x):
        return "inf"
    return repr(float(round(x, 10)))


def cmd_skeletonize(args) -> int:
    image = read_image(args.infile)
    binary = binarize(normalize_to_range(image))
    skeleton = thin(binary)
    write_image(skeleton.astype(np.float64) * 255.0, args.out)
    print(f"skeletonized {args.infile} -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fringe-denoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a clean/noisy corpus")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--count", type=int, help="number of pairs (overrides config)")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", help="cut a corpus into packed patch pairs")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="packed dataset path")
    p.add_argument("--patch", type=int, default=80)
    p.add_argument("--stride", type=int, default=16)
    p.add_argument(
        "--augment",
        default=[],
        type=lambda s: [t for t in s.split(",") if t],
        help="comma-separated: hflip,rot90,rot180,rot270",
    )
    p.add_argument("--augment-mode", choices=("expand", "in_place"), default="expand")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train the denoiser on packed patches")
    p.add_argument("--data", required=True, help="packed dataset path")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--out", required=True, help="checkpoint/log directory")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="run inference on one image")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--in", dest="infile", required=True, help="input image")
    p.add_argument("--out", required=True, help="output image")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("metrics", help="PSNR/SSIM/MAE of a test image vs a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--pretty", action="store_true", help="aligned table instead of CSV")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("skeletonize", help="binarize and thin to a fringe skeleton")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_skeletonize)
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, FringeDenoiseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args is None:  # the arguments themselves did not parse
            parser.print_usage(sys.stderr)
        return USAGE_EXIT if isinstance(exc, UsageError) else DATA_EXIT


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
