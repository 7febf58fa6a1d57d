import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fringe_denoise.container import write_container
from fringe_denoise.dataset import (
    AUG_HFLIP,
    AUG_ROT90,
    AUG_ROT180,
    AUG_ROT270,
    PACKED_MAGIC,
    PACKED_VERSION,
    DatasetError,
    PackedDataset,
    build_dataset,
    grid_offsets,
    write_packed,
)
from fringe_denoise.image_io import ImageFormatError

from framing import edit_header, read_header, replace_header, write_packed_raw


def make_corpus(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.uniform(0, 255, (size, size)).astype(np.float32),
            rng.uniform(0, 255, (size, size)).astype(np.float32),
        )
        for _ in range(n)
    ]


class TestGrid:
    def test_full_scale_count(self):
        corpus = make_corpus(16, 256)
        ds = build_dataset(corpus, patch_size=80, stride=16)
        assert len(ds) == 16 * 12 * 12 == 2304

    def test_single_exact_fit(self):
        ds = build_dataset(make_corpus(1, 80), patch_size=80, stride=16)
        assert len(ds) == 1

    def test_two_by_two_grid(self):
        ds = build_dataset(make_corpus(1, 96), patch_size=80, stride=16)
        assert len(ds) == 4

    @given(
        st.integers(80, 300),
        st.integers(1, 64),
    )
    def test_count_matches_offset_formula(self, dim, stride):
        offsets = list(grid_offsets(dim, 80, stride))
        assert len(offsets) == (dim - 80) // stride + 1
        assert offsets[0] == 0
        assert all(o + 80 <= dim for o in offsets)

    def test_patch_content_equals_source_window(self):
        corpus = make_corpus(2, 96, seed=3)
        ds = build_dataset(corpus, patch_size=80, stride=16)
        for idx in range(len(ds)):
            ref = ds.provenance[idx]
            clean, noisy = ds[idx]
            src_clean, src_noisy = corpus[ref.source]
            window = (slice(ref.row, ref.row + 80), slice(ref.col, ref.col + 80))
            assert clean.tobytes() == src_clean[window].tobytes()
            assert noisy.tobytes() == src_noisy[window].tobytes()

    def test_too_small_image_names_offender(self):
        corpus = make_corpus(3, 64)
        with pytest.raises(DatasetError, match="image 0"):
            build_dataset(corpus, patch_size=80, stride=16)

    @pytest.mark.parametrize(
        "patch, stride", [(0, 8), (-4, 8), (8, 0), (8, -1), (8.0, 8), (8, True)]
    )
    def test_patch_and_stride_below_one_rejected(self, patch, stride):
        with pytest.raises(DatasetError, match="patch size and stride"):
            build_dataset(make_corpus(1, 16), patch_size=patch, stride=stride)


class TestAugmentation:
    def test_expand_multiplies_count(self):
        corpus = make_corpus(1, 96)
        augs = (AUG_HFLIP, AUG_ROT90, AUG_ROT180, AUG_ROT270)
        ds = build_dataset(corpus, patch_size=80, stride=16, augmentations=augs)
        assert len(ds) == 4 * (1 + 4)

    def test_in_place_preserves_count(self):
        corpus = make_corpus(1, 96)
        ds = build_dataset(
            corpus, patch_size=80, stride=16,
            augmentations=(AUG_HFLIP,), mode="in_place",
        )
        assert len(ds) == 4
        assert {r.aug for r in ds.provenance} == {0, AUG_HFLIP}

    def test_augmentation_applied_to_both_members(self):
        corpus = make_corpus(1, 80, seed=5)
        ds = build_dataset(
            corpus, patch_size=80, stride=16, augmentations=(AUG_ROT90,)
        )
        clean_rot, noisy_rot = ds[1]
        np.testing.assert_array_equal(clean_rot, np.rot90(corpus[0][0]))
        np.testing.assert_array_equal(noisy_rot, np.rot90(corpus[0][1]))

    def test_explicit_identity_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset(make_corpus(1, 80), augmentations=(0,))


class TestPacked:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(2, 96, seed=7)
        ds = build_dataset(corpus, patch_size=80, stride=16, augmentations=(AUG_HFLIP,))
        path = tmp_path / "patches.bin"
        write_packed(path, ds)
        packed = PackedDataset(path)
        assert len(packed) == len(ds)
        assert packed.patch_size == 80 and packed.stride == 16
        assert packed.provenance == ds.provenance
        for idx in (0, 3, len(ds) - 1):
            a_clean, a_noisy = ds[idx]
            b_clean, b_noisy = packed[idx]
            np.testing.assert_array_equal(a_clean.astype(np.float32), b_clean)
            np.testing.assert_array_equal(a_noisy.astype(np.float32), b_noisy)

    def test_truncated_file_rejected(self, tmp_path):
        corpus = make_corpus(1, 80)
        ds = build_dataset(corpus, patch_size=80, stride=80)
        path = tmp_path / "patches.bin"
        write_packed(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(DatasetError, match="truncated"):
            PackedDataset(path)

    def test_count_disagreeing_with_provenance_rejected(self, tmp_path):
        ds = build_dataset(make_corpus(1, 96), patch_size=80, stride=16)
        path = tmp_path / "patches.bin"
        write_packed(path, ds)
        blob = path.read_bytes()
        hlen = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
        header = json.loads(blob[12 : 12 + hlen])
        assert header["count"] == 4
        header["count"] = 2
        text = json.dumps(header).encode("ascii")
        path.write_bytes(blob[:8] + np.uint32(len(text)).tobytes() + text + blob[12 + hlen :])
        with pytest.raises(DatasetError, match="provenance"):
            PackedDataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(DatasetError, match="magic"):
            PackedDataset(path)


def packed_16(tmp_path):
    """A packed dataset of four 16x16 patch pairs."""
    path = tmp_path / "patches.bin"
    write_packed(path, build_dataset(make_corpus(1, 32, seed=3), patch_size=16, stride=16))
    return path


class TestPackedHeaderChecks:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("patch_size"),
            lambda h: h["provenance"].__setitem__(0, [0, 0]),
            lambda h: h.update(patch_size="4"),
            lambda h: h.update(patch_size=0),
            lambda h: h.update(stride=0),
            lambda h: h.update(count=4.0),
            lambda h: h.update(provenance={"0": [0, 0, 0, 0]}),
            lambda h: h["provenance"].__setitem__(0, [0, -16, 0, 0]),
            lambda h: h["provenance"].__setitem__(0, [0, 0.5, 0, 0]),
            lambda h: h["provenance"].__setitem__(0, [0, 0, 0, 9]),
        ],
        ids=[
            "no-patch_size", "two-integer-record", "string-patch_size", "zero-patch_size",
            "zero-stride", "float-count", "provenance-object", "negative-row",
            "float-row", "unknown-augmentation",
        ],
    )
    def test_malformed_header_is_dataset_error(self, tmp_path, edit):
        path = packed_16(tmp_path)
        edit_header(path, edit)
        with pytest.raises(DatasetError):
            PackedDataset(path)

    @pytest.mark.parametrize("text", ["{", b'{"\xe9": 1}'], ids=["not-json", "not-ascii"])
    def test_header_that_is_not_ascii_json_is_dataset_error(self, tmp_path, text):
        path = packed_16(tmp_path)
        replace_header(path, text)
        with pytest.raises(DatasetError, match="header"):
            PackedDataset(path)

    @pytest.mark.parametrize("length", [0, 6, 10, 40])
    def test_file_ending_before_payload_is_dataset_error(self, tmp_path, length):
        path = packed_16(tmp_path)
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(DatasetError):
            PackedDataset(path)


def write_per_patch(path, dataset) -> None:
    """The packed file as a writer of one array per patch member makes it:
    every ``dataset[i]`` image through ``write_container`` in turn."""
    header = {
        "patch_size": dataset.patch_size,
        "stride": dataset.stride,
        "count": len(dataset),
        "provenance": [[r.source, r.row, r.col, r.aug] for r in dataset.provenance],
    }
    images = (img for i in range(len(dataset)) for img in dataset[i])
    write_container(path, PACKED_MAGIC, PACKED_VERSION, header, images, DatasetError)


class TestPerSourceBlocks:
    """``write_packed`` cuts each source's patches as one block; its file is
    byte-equal to the per-patch writer's."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["expand", "in_place"])
    def test_file_equals_per_patch_writer(self, tmp_path, mode, dtype):
        rng = np.random.default_rng(8)
        shapes = [(37, 29), (24, 40), (31, 31), (16, 16)]
        corpus = [
            (rng.uniform(-3, 300, s).astype(dtype), rng.uniform(0, 255, s).astype(dtype))
            for s in shapes
        ]
        augs = (AUG_HFLIP, AUG_ROT90, AUG_ROT180, AUG_ROT270)
        ds = build_dataset(corpus, patch_size=9, stride=5, augmentations=augs, mode=mode)
        assert {r.aug for r in ds.provenance} == {0, *augs}
        write_packed(tmp_path / "blocks.bin", ds)
        write_per_patch(tmp_path / "patches.bin", ds)
        assert (tmp_path / "blocks.bin").read_bytes() == (tmp_path / "patches.bin").read_bytes()


class TestPackedVersion2:
    """Version 2 stores the pairs as one (count, 2, patch, patch) float32 array."""

    def test_layout(self, tmp_path):
        ds = build_dataset(make_corpus(1, 32, seed=3), patch_size=16, stride=16)
        write_packed(tmp_path / "lib.bin", ds)
        write_packed_raw(tmp_path / "raw.bin", ds)
        assert (tmp_path / "lib.bin").read_bytes() == (tmp_path / "raw.bin").read_bytes()
        assert sorted(read_header(tmp_path / "lib.bin")) == [
            "count", "patch_size", "provenance", "stride",
        ]

    def test_version_1_file_is_refused(self, tmp_path):
        path = tmp_path / "patches.bin"
        ds = build_dataset(make_corpus(1, 32, seed=3), patch_size=16, stride=16)
        write_packed_raw(path, ds, version=1)
        with pytest.raises(DatasetError, match="format version 1, expected 2"):
            PackedDataset(path)

    def test_patches_are_writable_copies(self, tmp_path):
        packed = PackedDataset(packed_16(tmp_path))
        clean, noisy = packed[1]
        for img in (clean, noisy):
            assert type(img) is np.ndarray and img.dtype == np.float32 and img.flags.writeable
        expect = [clean.copy(), noisy.copy()]
        clean[...] = -1.0
        noisy[...] = -1.0
        for got, want in zip(packed[1], expect):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "above-float32"])
    def test_value_not_finite_in_float32_writes_no_file(self, tmp_path, value):
        corpus = [(np.full((16, 16), value), np.full((16, 16), 1.0))]
        with pytest.raises(DatasetError, match="not finite in float32"):
            write_packed(tmp_path / "patches.bin", build_dataset(corpus, patch_size=8, stride=8))
        assert not list(tmp_path.iterdir())


class TestPackedFuzz:
    """A truncated or bit-flipped packed file opens and reads as patches of
    the header's size, or raises DatasetError or ImageFormatError."""

    @given(st.data())
    def test_truncation_or_bit_flip(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "patches.bin"
        write_packed(path, build_dataset(make_corpus(1, 8, seed=5), patch_size=4, stride=4))
        blob = bytearray(path.read_bytes())
        truncate = data.draw(st.booleans(), label="truncate")
        if truncate:
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="byte")
            blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(blob))
        try:
            packed = PackedDataset(path)
            pairs = [packed[i] for i in range(len(packed))]
        except (DatasetError, ImageFormatError):
            return
        assert not truncate, "a truncated packed file read back"
        p = packed.patch_size
        assert all(img.shape == (p, p) for pair in pairs for img in pair)
