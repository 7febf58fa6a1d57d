"""Framed binary container shared by packed datasets and checkpoints.

Layout: 4-byte magic, then u32 format version and u32 header length (both
little-endian), an ASCII JSON object header, then the payload: arrays as
little-endian float32, back to back.  The magic, version, header keys and
the payload's shapes belong to the calling format; this module owns the
framing and the payload encoding, so every file in this layout is written
and its header checked the same way.  Each format's reader then requires
the payload to be exactly the bytes its header names, and reads it itself.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

PRELUDE = struct.Struct("<4sII")


def write_container(
    path, magic: bytes, version: int, header: dict, arrays, error: type[Exception]
) -> None:
    """Write the framing, then each of ``arrays`` as little-endian float32.

    A value that is NaN or infinite once stored as float32 raises ``error``.
    The write is atomic: the file appears complete or not at all.
    """
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh, np.errstate(over="ignore"):  # overflow is refused below
            fh.write(PRELUDE.pack(magic, version, len(blob)) + blob)
            for arr in arrays:
                arr = np.ascontiguousarray(arr, dtype="<f4")
                if not np.isfinite(arr).all():
                    raise error(f"{path}: refusing to write values that are not finite in float32")
                fh.write(memoryview(arr))  # the array's own buffer, not a copy
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_header(
    path, magic: bytes, version: int, required: tuple[str, ...], error: type[Exception]
) -> tuple[dict, int, int]:
    """Returns (header, payload offset, file size) without reading the payload.

    Every failure raises the caller's ``error``: a bad magic or version, a
    truncated prelude or header, or a header that is not an ASCII JSON
    object holding ``required``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prelude = fh.read(PRELUDE.size)
        if prelude[:4] != magic:
            raise error(f"{path}: bad magic {prelude[:4]!r}, expected {magic!r}")
        if len(prelude) < PRELUDE.size:
            raise error(f"{path}: file ends inside its prelude")
        _, found, hlen = PRELUDE.unpack(prelude)
        if found != version:
            raise error(f"{path}: format version {found}, expected {version}")
        start = PRELUDE.size + hlen
        if size < start:
            raise error(f"{path}: JSON header is truncated")
        text = fh.read(hlen)
    try:
        header = json.loads(text.decode("ascii"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: header is not ASCII JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"{path}: header is a JSON {type(header).__name__}, not an object")
    for key in required:
        if key not in header:
            raise error(f"{path}: header has no {key!r} entry")
    return header, start, size

