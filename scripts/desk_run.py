#!/usr/bin/env python3
"""End-to-end desk-scale experiment: simulate, train, denoise, evaluate.

Runs the full pipeline through the CLI entry points into ./runs/desk and
prints a small quality table for a handful of held-out images.  Takes a
few minutes on a laptop CPU.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fringe_denoise.cli import cli_dispatch
from fringe_denoise.checkpoint import load_checkpoint
from fringe_denoise.config import SimulateConfig
from fringe_denoise.corpus import generate_pair
from fringe_denoise.network import denoise
from fringe_denoise.quality import mae, psnr, ssim_mean

RUN = Path("runs/desk")
SEED = 2024

CONFIG = {
    "seed": SEED,
    "simulate": {"count": 20, "width": 256, "height": 256},
    "network": {"stages": 2, "layers_per_stage": 4, "filters": 16, "kernel": 5},
    "train": {"batch_size": 32, "learning_rate": 1e-3, "epochs": 6},
    "eval": {"every": 2},
}


def main() -> int:
    if RUN.exists():
        shutil.rmtree(RUN)
    RUN.mkdir(parents=True)
    cfg_path = RUN / "run.json"
    cfg_path.write_text(json.dumps(CONFIG, indent=2))

    corpus = RUN / "corpus"
    data = RUN / "patches.bin"
    ckpt_dir = RUN / "ckpt"
    for argv in (
        ["simulate", "--config", str(cfg_path), "--out", str(corpus)],
        ["dataset", "--corpus", str(corpus), "--out", str(data),
         "--patch", "40", "--stride", "24"],
        ["train", "--data", str(data), "--config", str(cfg_path), "--out", str(ckpt_dir)],
    ):
        rc = cli_dispatch(argv)
        if rc != 0:
            return rc

    final = sorted(ckpt_dir.glob("ckpt_epoch_*.fpdc"))[-1]
    params, net_config, _, _ = load_checkpoint(final)

    sim = SimulateConfig(count=200, width=256, height=256)
    print(f"\n{'image':>6} {'lambda':>7} {'noisy PSNR':>11} {'denoised':>9} "
          f"{'SSIM':>7} {'MAE':>8}")
    gains = []
    for i in range(5):
        clean, noisy, record = generate_pair(sim, SEED, 150 + i)
        restored = denoise(noisy, params, net_config)
        p0, p1 = psnr(noisy, clean), psnr(restored, clean)
        s1 = ssim_mean(np.clip(restored, 0, 255), clean)
        m1 = mae(restored, clean)
        gains.append(p1 - p0)
        print(f"{150 + i:>6} {record['ned_lambda']:>7.1f} {p0:>11.2f} {p1:>9.2f} "
              f"{s1:>7.3f} {m1:>8.2f}")
    print(f"\nmean PSNR gain: {np.mean(gains):+.2f} dB")
    print(f"artifacts in {RUN}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
