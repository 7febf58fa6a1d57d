"""Test helpers that write framed files or rewrite their JSON header in place.

Packed datasets and checkpoints share one prelude: 4-byte magic, u32
version, u32 header length (little-endian), then the header.  These
helpers parse it with ``struct`` on their own, independently of the
package's container module.
"""

import json
import struct

import numpy as np


def read_header(path) -> dict:
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + hlen])


def replace_header(path, text) -> None:
    """Swap the header for ``text`` (str or bytes); keep prelude and payload."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    if isinstance(text, str):
        text = text.encode("ascii")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen :])


def edit_header(path, edit) -> None:
    """Apply ``edit`` to the parsed header dict and write it back."""
    header = read_header(path)
    edit(header)
    replace_header(path, json.dumps(header, sort_keys=True))


def write_zero_source_header(path, side) -> None:
    """A version-3 packed file of no sources whose header names the densest
    grid (1x1 patches at stride 1) over ``side`` x ``side`` images: the
    prelude and header, no payload."""
    grid = {"patch_size": 1, "stride": 1, "augmentations": [], "mode": "expand",
            "sources": 0, "height": side, "width": side}
    text = json.dumps(grid, sort_keys=True).encode("ascii")
    path.write_bytes(struct.pack("<4sII", b"FPDS", 3, len(text)) + text)


def write_packed_raw(path, dataset, version=3) -> None:
    """Write ``dataset`` in the packed layout of format ``version``, with no
    check on its values.  Version 3 has the grid as its header and stores
    each corpus pair once, as float32 clean then noisy image.  The retired
    version 2 has the patch count and every provenance record in its header
    and stores each patch pair as float32; the retired version 1 also has a
    ``"version"`` header key and stores each patch image as one FPD1 image
    (magic, u32 width, u32 height, float32 pixels)."""
    if version == 3:
        header = dataset.grid
        images = (img for pair in dataset.corpus for img in pair)
    else:
        p = dataset.patch_size
        header = {
            "patch_size": p, "stride": dataset.stride, "count": len(dataset),
            "provenance": [[r.source, r.row, r.col, r.aug] for r in dataset.provenance],
        }
        images = (img for i in range(len(dataset)) for img in dataset[i])
    prefix = b""
    if version == 1:
        header["version"] = 1
        prefix = b"FPD1" + struct.pack("<II", p, p)
    text = json.dumps(header, sort_keys=True).encode("ascii")
    payload = b"".join(prefix + np.asarray(img, "<f4").tobytes() for img in images)
    path.write_bytes(struct.pack("<4sII", b"FPDS", version, len(text)) + text + payload)
