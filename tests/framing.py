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



def write_packed_raw(path, dataset, version=2) -> None:
    """Write ``dataset`` in the packed layout of format ``version``, with no
    check on its values.  Version 2 stores the pairs as one float32 array.
    The retired version 1 has a ``"version"`` header key and, per patch, one
    FPD1 image (magic, u32 width, u32 height, float32 pixels)."""
    p = dataset.patch_size
    header = {
        "patch_size": p, "stride": dataset.stride, "count": len(dataset),
        "provenance": [[r.source, r.row, r.col, r.aug] for r in dataset.provenance],
    }
    image = b""
    if version == 1:
        header["version"] = 1
        image = b"FPD1" + struct.pack("<II", p, p)
    text = json.dumps(header, sort_keys=True).encode("ascii")
    payload = b"".join(
        image + np.asarray(img, "<f4").tobytes() for i in range(len(dataset)) for img in dataset[i]
    )
    path.write_bytes(struct.pack("<4sII", b"FPDS", version, len(text)) + text + payload)
