"""Checkpoint file format ("FPDC").

Layout: the shared container framing (``container.py``) with magic
``FPDC``, then all tensors as little-endian float32, back to back in
directory order.  The header carries the network architecture, a digest
of the training configuration, the epoch, the master seed and the
optimizer step count, plus a tensor directory of (name, shape, offset)
entries.  Loading reproduces every tensor bit-exactly, including
batch-norm running statistics and optimizer moments, so training can
resume as if never interrupted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from .container import read_container, write_container
from .errors import FringeDenoiseError, is_int
from .network import NetworkConfig, NetworkParams, build_network, iter_tensors

MAGIC = b"FPDC"
VERSION = 1


class CheckpointError(FringeDenoiseError):
    pass


class BadMagicError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


class ArchitectureMismatchError(CheckpointError):
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


def save_checkpoint(
    path,
    params: NetworkParams,
    net_config: NetworkConfig,
    train_config=None,
    epoch: int = 0,
    adam=None,
) -> None:
    """Atomic write: the file appears complete or not at all."""
    tensors: list[tuple[str, np.ndarray]] = list(iter_tensors(params))
    if adam is not None:
        tensors += [(f"adam.m.{k}", v) for k, v in adam.m.items()]
        tensors += [(f"adam.v.{k}", v) for k, v in adam.v.items()]
    directory = []
    offset = 0
    for name, arr in tensors:
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 4 * arr.size
    header = {
        "format_version": VERSION,
        "network": dataclasses.asdict(net_config),
        "train_digest": config_digest(train_config) if train_config is not None else None,
        "epoch": epoch,
        "seed": getattr(train_config, "seed", None),
        "adam_t": adam.t if adam is not None else None,
        "tensors": directory,
    }
    arrays = (np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in tensors)
    write_container(path, MAGIC, VERSION, header, arrays)


def load_checkpoint(path, expect: NetworkConfig | None = None):
    """Returns (params, net_config, adam_state_or_None, meta).

    ``expect`` asserts the stored architecture; a mismatch is a hard error
    rather than a silently reshaped model.  A NaN or infinite value in any
    stored tensor is a ``CheckpointError``, so no command computes with it,
    and so is a tensor directory whose entries do not lie back to back.
    """
    from .training import AdamState

    header, payload = read_container(
        path, MAGIC, VERSION, ("network", "tensors", "epoch", "seed", "train_digest"),
        CheckpointError, bad_magic=BadMagicError, bad_version=VersionError,
        truncated=TruncatedError,
    )
    try:
        network = dict(header["network"])
        # Older headers name the stage wiring; the noise chain is the only one.
        if network.pop("stage_wiring", "noise_chain") != "noise_chain":
            raise ValueError("stage_wiring must be 'noise_chain'")
        net_config = NetworkConfig(**network)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad network architecture in header: {exc}") from exc
    if expect is not None and net_config != expect:
        raise ArchitectureMismatchError(
            f"{path}: checkpoint architecture {header['network']} does not match "
            f"the expected {dataclasses.asdict(expect)}"
        )
    adam_t = header.get("adam_t")
    if not is_int(header["epoch"]) or not (adam_t is None or is_int(adam_t)):
        raise CheckpointError(f"{path}: epoch and adam_t must be non-negative integers")
    if not isinstance(header["tensors"], list):
        raise CheckpointError(f"{path}: tensor directory is not a list")
    stored: dict[str, np.ndarray] = {}
    offset = 0  # tensors are stored back to back in directory order
    for entry in header["tensors"]:
        if not isinstance(entry, dict) or not {"name", "shape", "offset"} <= entry.keys():
            raise CheckpointError(
                f"{path}: tensor directory entry {entry} is not an object with name, "
                "shape and offset"
            )
        name, shape = entry["name"], entry["shape"]
        if not (isinstance(name, str) and isinstance(shape, list) and all(map(is_int, shape))):
            raise CheckpointError(f"{path}: tensor directory entry {entry} is malformed")
        if entry["offset"] != offset:
            raise CheckpointError(
                f"{path}: tensor {name} is stored at offset {entry['offset']}, expected {offset}"
            )
        size = math.prod(shape)
        if len(payload) < offset + 4 * size:
            raise TruncatedError(f"{path}: tensor {name} payload is truncated")
        arr = np.frombuffer(payload, dtype="<f4", count=size, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name} has non-finite values")
        stored[name] = arr.copy()
        offset += 4 * size

    params = build_network(net_config, np.random.default_rng(0))
    for name, arr in iter_tensors(params):
        if name not in stored:
            raise CheckpointError(f"{path}: tensor {name} missing from checkpoint")
        if stored[name].shape != arr.shape:
            raise ArchitectureMismatchError(
                f"{path}: tensor {name} has shape {stored[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[:] = stored[name]

    adam = None
    if adam_t is not None:
        adam = AdamState(t=adam_t)
        for name, _ in iter_tensors(params, trainable_only=True):
            for moments, key in ((adam.m, f"adam.m.{name}"), (adam.v, f"adam.v.{name}")):
                if key not in stored:
                    raise CheckpointError(
                        f"{path}: header sets adam_t but tensor {key} is missing"
                    )
                moments[name] = stored[key].copy()
    meta = {
        "epoch": header["epoch"],
        "seed": header["seed"],
        "train_digest": header["train_digest"],
    }
    return params, net_config, adam, meta
