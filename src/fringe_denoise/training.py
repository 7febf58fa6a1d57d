"""End-to-end joint training: Euclidean loss, ADAM, mini-batch schedule.

The training loop is deterministic for a fixed seed: the shuffle order of
epoch ``e`` comes from a generator derived from ``(seed, e)`` alone, so a
run resumed from a checkpoint continues bit-identically to an
uninterrupted one.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import DatasetError
from .errors import FringeDenoiseError, check_fields
from .layers import TRAIN, INFER, ShapeError
from .network import (
    NetworkConfig,
    NetworkParams,
    build_network,
    iter_tensors,
    network_backward,
    network_forward,
)
from .quality import SSIM_WINDOW, mae, psnr, ssim_mean
from .seeding import NS_HOLDOUT, NS_NETWORK, NS_SHUFFLE, derive_rng


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 35
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    eval_every: int = 1
    holdout_fraction: float = 0.1
    eval_max_patches: int = 1024
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 for batch statistics, got {self.batch_size}"
            )
        if not (self.learning_rate > 0 and 0 <= self.beta1 < 1 and 0 <= self.beta2 < 1
                and self.adam_eps > 0):
            raise ValueError(
                f"Adam needs learning_rate > 0, beta1 and beta2 in [0, 1) and adam_eps > 0, "
                f"got {self.learning_rate}, {self.beta1}, {self.beta2} and {self.adam_eps}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.eval_every >= 0 and self.eval_max_patches >= 0
                and 0 <= self.holdout_fraction < 1):
            raise ValueError(
                f"eval needs every >= 0, max_patches >= 0 and holdout_fraction in [0, 1), "
                f"got {self.eval_every}, {self.eval_max_patches} and {self.holdout_fraction}"
            )


@dataclass
class AdamState:
    """First/second moment estimates per trainable tensor, plus step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: NetworkParams) -> "AdamState":
        state = cls()
        for path, arr in iter_tensors(params, trainable_only=True):
            state.m[path] = np.zeros_like(arr)
            state.v[path] = np.zeros_like(arr)
        return state


class NonFiniteLossError(FringeDenoiseError):
    """A training batch gave a NaN or infinite loss, an Adam step left a
    weight NaN or infinite, or a held-out patch denoised to such values."""


def euclid_loss(
    v_pred: np.ndarray, z: np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Half mean-per-sample squared error of the residual estimate.

    loss = 1/(2K) * sum_k || v_k - (z_k - x_k) ||_F^2 over a batch of K
    samples, with the matching gradient w.r.t. the prediction.
    """
    if not (v_pred.shape == z.shape == x.shape):
        raise ShapeError(
            f"shape mismatch: prediction {v_pred.shape}, noisy {z.shape}, clean {x.shape}"
        )
    k = v_pred.shape[0]
    diff = v_pred - (z - x)
    loss = float(np.vdot(diff, diff)) / (2 * k)
    grad_v = diff / v_pred.dtype.type(k)
    return loss, grad_v


def adam_step(
    params: NetworkParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected ADAM update, in-place on every trainable tensor.

    Batch-norm running statistics are untouched; they update during the
    forward pass, not here.
    """
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for path, arr in iter_tensors(params, trainable_only=True):
        g = grads[path]
        m = state.m[path]
        v = state.v[path]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * np.square(g)
        m_hat = m / arr.dtype.type(bias1)
        v_hat = v / arr.dtype.type(bias2)
        arr -= (config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)).astype(
            arr.dtype
        )


def num_batches(n_samples: int, batch_size: int) -> int:
    """Mini-batches per epoch; the remainder is dropped."""
    return n_samples // batch_size


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """Shuffle order for one epoch, a pure function of (seed, epoch)."""
    return derive_rng(seed, NS_SHUFFLE, epoch).permutation(n)


def holdout_split(dataset, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split patch indices into train/eval by provenance source image.

    Holding out whole source images prevents near-duplicate patches of one
    image from appearing on both sides.  Every source has the same patch
    count (one grid over one shape), so patch ``i`` is of source
    ``i // (len(dataset) // sources)``.  Falls back to a plain patch split
    when the dataset has fewer than two sources.
    """
    n = len(dataset)
    sources = np.arange(n) // (n // dataset.grid["sources"]) if n else np.arange(0)
    # np.unique, not the grid's count: its first call imports numpy.ma, and
    # where that import lands in the heap moves later page faults and peak
    # RSS; dropping it raised train-desk set-up time and peak RSS in bench
    # pairs (ROADMAP, direction 5).
    unique = np.unique(sources)
    if fraction <= 0 or n < 2:
        return np.arange(n), np.array([], dtype=np.int64)
    if len(unique) < 2:  # one source: each patch is held out on its own
        sources = unique = np.arange(n)
    n_hold = max(1, int(round(fraction * len(unique))))
    mask = np.isin(sources, derive_rng(seed, NS_HOLDOUT, 0).permutation(unique)[:n_hold])
    return np.nonzero(~mask)[0], np.nonzero(mask)[0]


def _stack_batch(dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    cleans, noisys = [], []
    for i in indices:
        c, n = dataset[int(i)]
        cleans.append(c)
        noisys.append(n)
    x = np.stack(cleans).astype(np.float32)[:, None, :, :]
    z = np.stack(noisys).astype(np.float32)[:, None, :, :]
    return x, z


def evaluate_patches(
    dataset,
    indices,
    params: NetworkParams,
    net_config: NetworkConfig,
    batch_size: int,
) -> tuple[float, float, float]:
    """Mean PSNR/SSIM/MAE of denoised held-out patches against their clean
    counterparts (inference mode).

    Raises ``NonFiniteLossError`` when a denoised patch is not finite, so
    no NaN reaches the training log.
    """
    scores: list[tuple[float, float, float]] = []
    for start in range(0, len(indices), batch_size):
        chunk = indices[start : start + batch_size]
        x, z = _stack_batch(dataset, chunk)
        v, _ = network_forward(z, params, net_config, mode=INFER)
        denoised = z - v
        finite = np.isfinite(denoised).all(axis=(1, 2, 3))
        if not finite.all():
            bad = int(chunk[np.argmin(finite)])
            raise NonFiniteLossError(f"held-out patch {bad} denoises to non-finite values")
        for b in range(x.shape[0]):
            d = denoised[b, 0].astype(np.float64)
            c = x[b, 0].astype(np.float64)
            scores.append((psnr(d, c), ssim_mean(np.clip(d, 0, 255), c), mae(d, c)))
    arr = np.array(scores, dtype=np.float64)
    finite_psnr = arr[np.isfinite(arr[:, 0]), 0]
    mean_psnr = float(finite_psnr.mean()) if finite_psnr.size else float("inf")
    return mean_psnr, float(arr[:, 1].mean()), float(arr[:, 2].mean())


def train(
    dataset,
    net_config: NetworkConfig,
    train_config: TrainConfig,
    resume_from: str | None = None,
    log_path: str | None = None,
) -> tuple[NetworkParams, list[dict]]:
    """Joint training over all stages; returns final parameters and the log.

    ``dataset`` must expose ``__len__``, ``__getitem__ -> (clean, noisy)``
    and a ``grid`` naming its ``sources``, as ``PatchDataset`` does.
    Patches are consumed in the [0, 255] intensity range as stored.  One
    log row is appended per epoch; on eval epochs it carries held-out
    metrics and a checkpoint is written.  A resumed run's log starts with
    the rows its checkpoint stored, which have no ``seconds``.
    """
    from .checkpoint import CheckpointError, config_digest, load_checkpoint, save_checkpoint

    start_epoch = 1
    if resume_from is not None:
        params, _, adam, meta = load_checkpoint(resume_from, expect=net_config)
        if meta["seed"] != train_config.seed:
            raise CheckpointError(
                f"{resume_from}: checkpoint was trained with seed {meta['seed']}, "
                f"not {train_config.seed}"
            )
        if meta["train_digest"] != config_digest(train_config):
            raise CheckpointError(
                f"{resume_from}: checkpoint was trained with other hyperparameters"
            )
        if meta["epoch"] >= train_config.epochs:
            raise CheckpointError(
                f"{resume_from}: checkpoint is at epoch {meta['epoch']}, so a run of "
                f"{train_config.epochs} epochs has none left to train"
            )
        if adam is None:
            adam = AdamState.for_params(params)
        start_epoch = meta["epoch"] + 1
        log = meta["log"]
    else:
        params = build_network(net_config, derive_rng(train_config.seed, NS_NETWORK, 0))
        adam = AdamState.for_params(params)
        log = []

    train_idx, eval_idx = holdout_split(
        dataset, train_config.holdout_fraction, train_config.seed
    )
    if train_config.eval_max_patches:  # 0 means no cap
        eval_idx = eval_idx[: train_config.eval_max_patches]
    q = num_batches(len(train_idx), train_config.batch_size)
    if q < 1:
        raise DatasetError(
            f"dataset of {len(dataset)} patches leaves a train split of {len(train_idx)}, "
            f"fewer than one batch of {train_config.batch_size}"
        )
    if train_config.eval_every > 0 and len(eval_idx):
        h, w = dataset[int(eval_idx[0])][0].shape
        if min(h, w) < SSIM_WINDOW:
            raise DatasetError(
                f"held-out patches are {h}x{w}, smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} "
                "SSIM window (quality.SSIM_WINDOW) that evaluation needs; a "
                "holdout_fraction of 0 trains on them without held-out metrics"
            )

    ckpt_dir = Path(train_config.checkpoint_dir) if train_config.checkpoint_dir else None

    for epoch in range(start_epoch, train_config.epochs + 1):
        t0 = time.perf_counter()
        order = train_idx[epoch_permutation(train_config.seed, epoch, len(train_idx))]
        losses = np.empty(q, dtype=np.float64)
        for b in range(q):
            batch = order[b * train_config.batch_size : (b + 1) * train_config.batch_size]
            x, z = _stack_batch(dataset, batch)
            v, caches = network_forward(z, params, net_config, mode=TRAIN)
            loss, grad_v = euclid_loss(v, z, x)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"epoch {epoch}, batch {b + 1}: loss is {loss}; "
                    "training stopped before updating the weights"
                )
            grads = network_backward(caches, grad_v, params, net_config)
            adam_step(params, grads, adam, train_config)
            for path, arr in iter_tensors(params, trainable_only=True):
                if not np.isfinite(arr).all():
                    raise NonFiniteLossError(
                        f"epoch {epoch}, batch {b + 1}: the Adam step left {path} not "
                        f"finite in {arr.dtype}; lower the learning rate"
                    )
            losses[b] = loss
        row: dict = {"epoch": epoch, "mean_loss": float(losses.mean())}
        is_eval = train_config.eval_every > 0 and epoch % train_config.eval_every == 0
        if is_eval and len(eval_idx):
            p, s, m = evaluate_patches(
                dataset, eval_idx, params, net_config, train_config.batch_size
            )
            row.update(psnr=p, ssim=s, mae=m)
        row["seconds"] = time.perf_counter() - t0
        log.append(row)
        if ckpt_dir:  # only now, so a run refused in its first epoch leaves no directory
            ckpt_dir.mkdir(parents=True, exist_ok=True)
        if is_eval and ckpt_dir:
            save_checkpoint(
                ckpt_dir / f"ckpt_epoch_{epoch:04d}.fpdc",
                params,
                net_config,
                train_config,
                epoch=epoch,
                adam=adam,
                log=log,
            )
        if log_path:
            write_log_csv(log_path, log)
    return params, log


LOG_FIELDS = ("epoch", "mean_loss", "psnr", "ssim", "mae", "seconds")


def write_log_csv(path, log: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_FIELDS)
        for row in log:
            writer.writerow(
                [
                    row["epoch"],
                    repr(row["mean_loss"]),
                    repr(row["psnr"]) if "psnr" in row else "",
                    repr(row["ssim"]) if "ssim" in row else "",
                    repr(row["mae"]) if "mae" in row else "",
                    f"{row['seconds']:.3f}" if "seconds" in row else "",
                ]
            )
