"""Checkpoint file format ("FPDC").

Layout: 4-byte magic, u32 format version, u32 header length, JSON header,
then all tensors as little-endian float32 in directory order.  The header
carries the network architecture, a digest of the training configuration,
the epoch, the master seed and the optimizer step count, plus a tensor
directory of (name, shape, offset) entries.  Loading reproduces every
tensor bit-exactly, including batch-norm running statistics and optimizer
moments, so training can resume as if never interrupted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .network import NetworkConfig, NetworkParams, build_network, iter_tensors

MAGIC = b"FPDC"
VERSION = 1


class CheckpointError(ValueError):
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
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path, expect: NetworkConfig | None = None):
    """Returns (params, net_config, adam_state_or_None, meta).

    ``expect`` asserts the stored architecture; a mismatch is a hard error
    rather than a silently reshaped model.  A NaN or infinite value in any
    stored tensor is a ``CheckpointError``, so no command computes with it.
    """
    from .training import AdamState

    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint (magic {buf[:4]!r})")
    if len(buf) < 12:
        raise TruncatedError(f"{path}: header is incomplete")
    version, hlen = struct.unpack("<II", buf[4:12])
    if version != VERSION:
        raise VersionError(f"{path}: format version {version}, expected {VERSION}")
    if len(buf) < 12 + hlen:
        raise TruncatedError(f"{path}: JSON header is truncated")
    header = json.loads(buf[12 : 12 + hlen].decode("ascii"))
    for key in ("network", "tensors", "epoch", "seed", "train_digest"):
        if key not in header:
            raise CheckpointError(f"{path}: header has no {key!r} entry")
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
    payload = buf[12 + hlen :]
    stored: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        if not {"name", "shape", "offset"} <= entry.keys():
            raise CheckpointError(f"{path}: tensor directory entry {entry} is incomplete")
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        raw = payload[start : start + 4 * size]
        if len(raw) < 4 * size:
            raise TruncatedError(
                f"{path}: tensor {entry['name']} payload is truncated"
            )
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {entry['name']} has non-finite values")
        stored[entry["name"]] = arr.copy()

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
    if header.get("adam_t") is not None:
        adam = AdamState(t=header["adam_t"])
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
