import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringe_denoise.image_io import (
    FPD1_MAGIC,
    ImageFormatError,
    decode_fpd1,
    decode_pgm,
    encode_fpd1,
    encode_pgm,
    quantize_u8,
    read_image,
    write_image,
)


class TestPgm:
    def test_round_trip_bytes(self, tmp_path):
        img = np.array([[0.0, 128.0], [255.0, 7.0]])
        blob = encode_pgm(img)
        assert blob == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])
        path = tmp_path / "img.pgm"
        path.write_bytes(blob)
        again = encode_pgm(read_image(path))
        assert again == blob

    def test_rounding_half_away_from_zero(self):
        assert quantize_u8(np.array([[127.5]]))[0, 0] == 128
        assert quantize_u8(np.array([[126.49]]))[0, 0] == 126

    def test_clamping(self):
        out = quantize_u8(np.array([[-3.7, 300.0]]))
        assert out.tolist() == [[0, 255]]

    def test_comment_and_whitespace_tolerant_parse(self):
        blob = b"P5\n# a comment\n 3\t2\n# another\n255\n" + bytes(range(6))
        img = decode_pgm(blob)
        assert img.shape == (2, 3)
        assert img.ravel().tolist() == list(range(6))

    def test_error_kinds(self):
        with pytest.raises(ImageFormatError, match="not a binary PGM"):
            decode_pgm(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ImageFormatError, match="only maxval 255 is supported, got 65535"):
            decode_pgm(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageFormatError, match="PGM raster has 2 bytes, expected 16"):
            decode_pgm(b"P5\n4 4\n255\n\x00\x00")

    @pytest.mark.parametrize(
        "dims", ["-1 4", "4 -1", "0 0", "0 4", "4 0", "-2 -3", "+1_0 1", "1_0 1", "+5 2"]
    )
    def test_non_positive_dimensions_rejected(self, dims):
        # A negative size makes the raster slice short or empty, and
        # reshape(h, -1) would infer the missing size.  Python's int() also
        # takes a sign and digit-group underscores, which are not PGM digits.
        with pytest.raises(ImageFormatError, match="positive"):
            decode_pgm(f"P5\n{dims}\n255\n".encode("ascii") + bytes(12))


class TestFpd1:
    def test_payload_size(self):
        img = np.zeros((256, 256), dtype=np.float32)
        blob = encode_fpd1(img)
        assert len(blob) == 12 + 262_144

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.uniform(-10, 300, (7, 5)) / 3).astype(np.float32)
        path = tmp_path / "img.fpd1"
        write_image(img, path)
        back = read_image(path)
        np.testing.assert_array_equal(back.astype(np.float32), img)
        assert encode_fpd1(back) == path.read_bytes()

    def test_error_kinds(self):
        with pytest.raises(ImageFormatError, match="not a float image"):
            decode_fpd1(b"XXXX" + b"\0" * 20)
        with pytest.raises(ImageFormatError, match="float image payload has 8 bytes, expected 64"):
            decode_fpd1(b"FPD1" + np.uint32(4).tobytes() + np.uint32(4).tobytes() + b"\0" * 8)

    @pytest.mark.parametrize("w,h", [(0, 0), (0, 3), (3, 0)])
    def test_zero_dimensions_rejected(self, w, h):
        with pytest.raises(ImageFormatError, match="positive"):
            decode_fpd1(b"FPD1" + struct.pack("<II", w, h) + bytes(64))


class TestDispatch:
    def test_read_dispatches_on_magic(self, tmp_path):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.fpd1"
        write_image(img, p1)
        write_image(img, p2)
        np.testing.assert_array_equal(read_image(p1), img)
        np.testing.assert_array_equal(read_image(p2), img)

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"GIF89a")
        with pytest.raises(ImageFormatError, match="unrecognized image magic b'GIF8'"):
            read_image(path)

    def test_unknown_extension_on_write(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_image(np.zeros((2, 2)), tmp_path / "img.png")


class TestWriteRefusesNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("suffix", [".pgm", ".fpd1"])
    def test_non_finite_pixel_writes_no_file(self, tmp_path, value, suffix):
        img = np.full((3, 4), 100.0)
        img[1, 2] = value
        path = tmp_path / f"img{suffix}"
        with pytest.raises(ImageFormatError, match="non-finite"):
            write_image(img, path)
        assert not list(tmp_path.iterdir())

    def test_finiteness_is_checked_in_the_stored_precision(self, tmp_path):
        """1e39 is a finite float64 but infinite as the float32 ``.fpd1`` stores;
        PGM quantizes from float64 and clamps it to 255."""
        img = np.full((2, 2), 1e39)
        with pytest.raises(ImageFormatError, match="non-finite"):
            write_image(img, tmp_path / "o.fpd1")
        assert not list(tmp_path.iterdir())
        write_image(img, tmp_path / "o.pgm")
        np.testing.assert_array_equal(read_image(tmp_path / "o.pgm"), np.full((2, 2), 255.0))


def _valid_blob(data, fmt: str) -> bytes:
    h = data.draw(st.integers(1, 6), label="height")
    w = data.draw(st.integers(1, 6), label="width")
    pixels = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w)),
        dtype=np.float64,
    ).reshape(h, w)
    return encode_pgm(pixels) if fmt == "pgm" else encode_fpd1(pixels)


def _mutate(data, blob: bytes, fmt: str):
    """Truncate, flip bits, or rewrite the header with arbitrary integers.

    Returns the bytes and what a successful decode must give: None for a
    truncation (it must fail), the header's (height, width) for a rewritten
    header, and "any" for bit flips.
    """
    kind = data.draw(st.sampled_from(["truncate", "flip", "header"]), label="mutation")
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")], None
    if kind == "flip":
        out = bytearray(blob)
        for pos in data.draw(
            st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=8), label="bits"
        ):
            out[pos] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(out), "any"
    raster = data.draw(st.binary(max_size=64), label="raster")
    if fmt == "pgm":
        # small sizes often, so that some headers fit the raster
        w, h = (data.draw(st.integers(-8, 8) | st.integers(-(2**70), 2**70)) for _ in "wh")
        maxval = data.draw(st.just(255) | st.integers(-(2**70), 2**70), label="maxval")
        return f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + raster, (h, w)
    w, h = (data.draw(st.integers(0, 8) | st.integers(0, 2**32 - 1)) for _ in "wh")
    return FPD1_MAGIC + struct.pack("<II", w, h) + raster, (h, w)


class TestDecoderFuzz:
    """Malformed bytes give ImageFormatError or a well-formed image, nothing else."""

    @staticmethod
    def _check(decode, source, expect) -> None:
        try:
            img = decode(source)
        except ImageFormatError:
            return
        assert expect is not None, "a truncated image decoded"
        assert img.ndim == 2 and min(img.shape) > 0
        if expect != "any":
            assert img.shape == expect

    @given(st.data(), st.sampled_from(["pgm", "fpd1"]))
    def test_decoders(self, data, fmt):
        blob, expect = _mutate(data, _valid_blob(data, fmt), fmt)
        self._check(decode_pgm if fmt == "pgm" else decode_fpd1, blob, expect)

    @given(st.data(), st.sampled_from(["pgm", "fpd1"]))
    def test_read_image(self, tmp_path_factory, data, fmt):
        blob, expect = _mutate(data, _valid_blob(data, fmt), fmt)
        path = tmp_path_factory.mktemp("fuzz") / "img"
        path.write_bytes(blob)
        self._check(read_image, path, expect)
