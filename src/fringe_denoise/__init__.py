"""Speckle fringe simulation, residual CNN denoising, and quality metrics."""

from .config import RunConfig, load_config
from .dataset import PackedDataset, PatchDataset, build_dataset
from .network import NetworkConfig, build_network, denoise, network_forward
from .phase import PhaseSpec, eval_phase
from .quality import binarize, mae, psnr, ssim_mean, thin
from .speckle import (
    SimulationParams,
    add_awgn,
    normalize_to_range,
    render_clean,
    render_noisy,
    sample_ned,
)
from .training import TrainConfig, train

__all__ = [
    "RunConfig",
    "load_config",
    "PackedDataset",
    "PatchDataset",
    "build_dataset",
    "NetworkConfig",
    "build_network",
    "denoise",
    "network_forward",
    "PhaseSpec",
    "eval_phase",
    "binarize",
    "mae",
    "psnr",
    "ssim_mean",
    "thin",
    "SimulationParams",
    "add_awgn",
    "normalize_to_range",
    "render_clean",
    "render_noisy",
    "sample_ned",
    "TrainConfig",
    "train",
]
