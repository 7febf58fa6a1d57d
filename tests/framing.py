"""Test helpers that rewrite the JSON header of a framed file in place.

Packed datasets and checkpoints share one prelude: 4-byte magic, u32
version, u32 header length (little-endian), then the header.  These
helpers parse it with ``struct`` on their own, independently of the
package's container module.
"""

import json
import struct


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
