"""Image file formats.

Two formats cover the toolkit's needs: binary PGM (P5, maxval 255) for
8-bit interchange, and a raw float format ("FPD1" magic, little-endian
dimensions and float32 payload) that preserves full precision through the
denoising pipeline.  Writing what was just read reproduces the file byte
for byte in both formats.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FringeDenoiseError


class ImageFormatError(FringeDenoiseError):
    """An image file or image that cannot be read or written."""


FPD1_MAGIC = b"FPD1"
FPD1_HEADER_BYTES = 12


def quantize_u8(img: np.ndarray) -> np.ndarray:
    """Round half away from zero, then clamp to [0, 255]."""
    img = np.asarray(img, dtype=np.float64)
    rounded = np.sign(img) * np.floor(np.abs(img) + 0.5)
    return np.clip(rounded, 0, 255).astype(np.uint8)


def encode_pgm(img: np.ndarray) -> bytes:
    data = quantize_u8(img)
    h, w = data.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def _pgm_tokens(buf: bytes, start: int):
    """Yield (token, next_pos) over PNM header tokens, skipping comments."""
    pos = start
    while True:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        break
    end = pos
    while end < len(buf) and not buf[end : end + 1].isspace():
        end += 1
    if end == pos:
        raise ImageFormatError("PGM header ended before all fields were read")
    return buf[pos:end], end


def _check_dims(width: int, height: int) -> None:
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"image dimensions must be positive, got {width}x{height}")


def decode_pgm(buf: bytes) -> np.ndarray:
    if buf[:2] != b"P5":
        raise ImageFormatError(f"not a binary PGM (magic {buf[:2]!r})")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _pgm_tokens(buf, pos)
        # bytes.isdigit is ASCII-only; int() would also take "+5" and "1_0".
        if not token.isdigit():
            raise ImageFormatError(
                f"PGM header token {token!r} is not a positive decimal integer"
            )
        fields.append(int(token))
    width, height, maxval = fields
    _check_dims(width, height)
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # exactly one whitespace byte separates header and raster
    raster = buf[pos : pos + width * height]
    if len(raster) < width * height:
        raise ImageFormatError(
            f"PGM raster has {len(raster)} bytes, expected {width * height}"
        )
    return (
        np.frombuffer(raster, dtype=np.uint8).reshape(height, width).astype(np.float64)
    )


def _fpd1_header(img: np.ndarray) -> bytes:
    if img.ndim != 2:
        raise ImageFormatError(f"float image must be 2-D, got shape {img.shape}")
    h, w = img.shape
    return FPD1_MAGIC + struct.pack("<II", w, h)


def encode_fpd1(img: np.ndarray) -> bytes:
    img = np.asarray(img)
    return _fpd1_header(img) + np.ascontiguousarray(img, dtype="<f4").tobytes()


def decode_fpd1(buf: bytes) -> np.ndarray:
    if buf[:4] != FPD1_MAGIC:
        raise ImageFormatError(f"not a float image (magic {buf[:4]!r})")
    if len(buf) < FPD1_HEADER_BYTES:
        raise ImageFormatError("float image header is incomplete")
    w, h = struct.unpack("<II", buf[4:12])
    _check_dims(w, h)
    payload = buf[FPD1_HEADER_BYTES : FPD1_HEADER_BYTES + 4 * w * h]
    if len(payload) < 4 * w * h:
        raise ImageFormatError(
            f"float image payload has {len(payload)} bytes, expected {4 * w * h}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(h, w).astype(np.float32)


def read_image(path) -> np.ndarray:
    """Load a PGM or float image, dispatching on content magic.

    A float image with a NaN or infinite pixel is rejected, so that no
    command computes on it or writes non-finite output.
    """
    buf = Path(path).read_bytes()
    if buf[:4] == FPD1_MAGIC:
        img = decode_fpd1(buf)
        if not np.isfinite(img).all():
            raise ImageFormatError(f"{path}: float image has non-finite pixels")
        return img.astype(np.float64)
    if buf[:2] == b"P5":
        return decode_pgm(buf)
    raise ImageFormatError(f"{path}: unrecognized image magic {buf[:4]!r}")


def write_image(img: np.ndarray, path) -> None:
    """Write by extension: ``.pgm`` as 8-bit PGM, ``.fpd1`` as raw floats.

    An image with a pixel that is NaN or infinite in the precision the
    format stores (float64 before PGM quantization, float32 for ``.fpd1``)
    is refused before the file is opened, so no command writes non-finite
    output.
    """
    path = Path(path)
    if path.suffix not in (".pgm", ".fpd1"):
        raise ImageFormatError(
            f"{path}: unknown image extension {path.suffix!r} (use .pgm or .fpd1)"
        )
    with np.errstate(over="ignore"):  # an overflow is refused just below
        stored = np.asarray(img, dtype=np.float64 if path.suffix == ".pgm" else "<f4")
    if not np.isfinite(stored).all():
        raise ImageFormatError(f"{path}: refusing to write an image with non-finite pixels")
    if path.suffix == ".pgm":
        path.write_bytes(encode_pgm(stored))
        return
    header = _fpd1_header(stored)
    with open(path, "wb") as f:  # the payload goes out from the array's own buffer
        f.write(header)
        f.write(np.ascontiguousarray(stored))
