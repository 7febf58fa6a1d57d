"""Checkpoint file format ("FPDC").

Layout: the shared container framing (``container.py``) with magic
``FPDC``, then all tensors as little-endian float32, back to back in
directory order.  The header carries the network architecture, a digest
of the training configuration, the epoch, the master seed and the
optimizer step count, plus a tensor directory of (name, shape, offset)
entries; a checkpoint written by ``train()`` also carries the training
log so far, without its wall-clock column.  Loading reproduces every
tensor bit-exactly, including batch-norm running statistics and optimizer
moments, so training can resume as if never interrupted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .container import read_header, write_container
from .errors import FringeDenoiseError, is_int
from .network import NetworkConfig, NetworkParams, build_network, iter_tensors

MAGIC = b"FPDC"
VERSION = 1


class CheckpointError(FringeDenoiseError):
    pass


def config_digest(train_config) -> str:
    """Digest of the hyperparameters a resumed run must share.

    Artifact paths are left out, and so is ``epochs``: a resume may extend
    the schedule.
    """
    fields = dataclasses.asdict(train_config)
    fields.pop("checkpoint_dir", None)
    fields.pop("epochs", None)
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _stored_tensors(params: NetworkParams, adam) -> list[tuple[str, np.ndarray]]:
    """Every tensor a checkpoint stores, in file order: the network's, then
    the Adam first moments, then the second moments."""
    tensors = list(iter_tensors(params))
    if adam is not None:
        tensors += [(f"adam.m.{k}", v) for k, v in adam.m.items()]
        tensors += [(f"adam.v.{k}", v) for k, v in adam.v.items()]
    return tensors


def _directory(tensors) -> list[dict]:
    """The header's (name, shape, offset) entries: tensors back to back."""
    directory, offset = [], 0
    for name, arr in tensors:
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 4 * arr.size
    return directory


def save_checkpoint(
    path,
    params: NetworkParams,
    net_config: NetworkConfig,
    train_config=None,
    epoch: int = 0,
    adam=None,
    log: list[dict] | None = None,
) -> None:
    """Atomic write: the file appears complete or not at all."""
    tensors = _stored_tensors(params, adam)
    header = {
        "format_version": VERSION,
        "network": dataclasses.asdict(net_config),
        "train_digest": config_digest(train_config) if train_config is not None else None,
        "epoch": epoch,
        "seed": getattr(train_config, "seed", None),
        "adam_t": adam.t if adam is not None else None,
        "tensors": _directory(tensors),
    }
    if log is not None:  # seconds are wall-clock time, not state
        header["log"] = [{k: v for k, v in row.items() if k != "seconds"} for row in log]
    write_container(path, MAGIC, VERSION, header, (arr for _, arr in tensors), CheckpointError)


def load_checkpoint(path, expect: NetworkConfig | None = None):
    """Returns (params, net_config, adam_state_or_None, meta).

    ``meta`` holds the epoch, seed and training digest, and under ``log``
    the stored log rows, which are empty for a checkpoint saved without them.

    ``expect`` asserts the stored architecture; a mismatch is a hard error
    rather than a silently reshaped model.  The tensor directory must be
    exactly the one ``save_checkpoint`` writes for the stored architecture
    (with Adam moments when ``adam_t`` is set), and the payload exactly the
    bytes that directory names, read in one call.  A NaN or infinite stored
    value, or a negative batch-norm running variance or Adam second moment,
    is a ``CheckpointError``, so no command computes with it.
    """
    from .training import LOG_FIELDS, AdamState

    required = ("network", "tensors", "epoch", "seed", "train_digest")
    header, start, size = read_header(path, MAGIC, VERSION, required, CheckpointError)
    try:
        network = dict(header["network"])
        # Older headers name the stage wiring; the noise chain is the only one.
        if network.pop("stage_wiring", "noise_chain") != "noise_chain":
            raise ValueError("stage_wiring must be 'noise_chain'")
        net_config = NetworkConfig(**network)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad network architecture in header: {exc}") from exc
    if expect is not None and net_config != expect:
        raise CheckpointError(
            f"{path}: checkpoint architecture {header['network']} does not match "
            f"the expected {dataclasses.asdict(expect)}"
        )
    adam_t = header.get("adam_t")
    if not is_int(header["epoch"]) or not (adam_t is None or is_int(adam_t)):
        raise CheckpointError(f"{path}: epoch and adam_t must be non-negative integers")
    log = header.get("log", [])  # older checkpoints resume with an empty history
    fields = tuple(f for f in LOG_FIELDS if f != "seconds")
    if not _is_log(log, header["epoch"], fields):
        raise CheckpointError(
            f"{path}: log must be a list of rows with increasing epochs ending at "
            f"{header['epoch']} and numbers under {', '.join(fields)}"
        )
    params = build_network(net_config, np.random.default_rng(0))
    adam = None if adam_t is None else AdamState.for_params(params)
    tensors = _stored_tensors(params, adam)
    if header["tensors"] != _directory(tensors):
        raise CheckpointError(f"{path}: tensor directory does not match network and adam_t")
    nbytes, found = 4 * sum(arr.size for _, arr in tensors), size - start
    if found != nbytes:
        what = "truncated" if found < nbytes else "longer than its directory"
        raise CheckpointError(f"{path}: tensor payload is {what}: {found} bytes, not {nbytes}")
    payload = np.fromfile(path, dtype="<f4", count=nbytes // 4, offset=start)
    offset = 0
    for name, arr in tensors:
        values = payload[offset : offset + arr.size]
        offset += arr.size
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name} has non-finite values")
        # Variances and Adam's second moments are means of squares; BatchNormParams'
        # own check saw only build_network's defaults.
        if (name.endswith(".running_var") or name.startswith("adam.v.")) and (values < 0).any():
            raise CheckpointError(f"{path}: tensor {name} has negative values")
        arr[:] = values.reshape(arr.shape)
    if adam is not None:
        adam.t = adam_t
    meta = {
        "epoch": header["epoch"],
        "seed": header["seed"],
        "train_digest": header["train_digest"],
        "log": log,
    }
    return params, net_config, adam, meta


def _is_log(log, epoch: int, fields: tuple[str, ...]) -> bool:
    """No rows, or rows of numbers under ``fields``, each with an epoch and a
    mean loss, whose epochs increase to ``epoch``."""
    if not isinstance(log, list):
        return False
    last = 0
    for row in log:
        if not (
            isinstance(row, dict) and {"epoch", "mean_loss"} <= row.keys() <= set(fields)
            and all(type(v) in (int, float) for v in row.values())
            and is_int(row["epoch"], last + 1)
        ):
            return False
        last = row["epoch"]
    return not log or last == epoch
