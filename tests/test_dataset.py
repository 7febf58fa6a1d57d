import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringe_denoise.dataset import (
    AUG_HFLIP,
    AUG_ROT90,
    AUG_ROT180,
    AUG_ROT270,
    DatasetError,
    PackedDataset,
    apply_augmentation,
    build_dataset,
    grid_offsets,
    write_packed,
)
from fringe_denoise.image_io import ImageFormatError
from fringe_denoise.seeding import derive_rng
from fringe_denoise.training import holdout_split

from framing import (
    edit_header,
    read_header,
    replace_header,
    write_packed_raw,
    write_zero_source_header,
)


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
            ref = ds.ref(idx)
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

    def test_source_count_disagreeing_with_payload_rejected(self, tmp_path):
        ds = build_dataset(make_corpus(1, 96), patch_size=80, stride=16)
        path = tmp_path / "patches.bin"
        write_packed(path, ds)
        assert read_header(path)["sources"] == 1
        edit_header(path, lambda h: h.update(sources=2))
        with pytest.raises(DatasetError, match="payload"):
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
            lambda h: h.update(augmentations=[[1, 2]]),
            lambda h: h.update(patch_size="4"),
            lambda h: h.update(patch_size=0),
            lambda h: h.update(stride=0),
            lambda h: h.update(sources=1.0),
            lambda h: h.update(augmentations={"1": 1}),
            lambda h: h.update(height=-32),
            lambda h: h.update(height=32.0),
            lambda h: h.update(augmentations=[9]),
            lambda h: h.pop("width"),
            lambda h: h.update(mode="shuffle"),
            lambda h: h.update(augmentations=[0]),
            lambda h: h.update(patch_size=40),
            lambda h: h.update(height=16, width=48),
            lambda h: h.update(sources=-1),
        ],
        # The ids up to unknown-augmentation name what version 2's
        # provenance records had wrong; version 3 derives the records from
        # these header fields, so the same mistakes are made in them.
        ids=[
            "no-patch_size", "two-integer-record", "string-patch_size", "zero-patch_size",
            "zero-stride", "float-count", "augmentations-object", "negative-row",
            "float-row", "unknown-augmentation", "no-width", "unknown-mode",
            "identity-augmentation", "patch-above-image", "shape-off-payload",
            "negative-sources",
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


def shuffled(n, seed=0):
    return np.random.default_rng(seed).permutation(n).tolist()


class TestPerSourceBlocks:
    """``write_packed`` writes each source pair as one block; every patch
    read back from its file equals the float32 patch a per-patch writer
    stores, ``build_dataset``'s ``ds[i]``, and the source window under the
    patch's augmentation."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["expand", "in_place"])
    def test_file_equals_per_patch_writer(self, tmp_path, mode, dtype):
        rng = np.random.default_rng(8)
        corpus = [
            (rng.uniform(-3, 300, (37, 29)).astype(dtype),
             rng.uniform(0, 255, (37, 29)).astype(dtype))
            for _ in range(4)
        ]
        augs = (AUG_HFLIP, AUG_ROT90, AUG_ROT180, AUG_ROT270)
        ds = build_dataset(corpus, patch_size=9, stride=5, augmentations=augs, mode=mode)
        assert {r.aug for r in ds.provenance} == {0, *augs}
        write_packed(tmp_path / "blocks.bin", ds)
        packed = PackedDataset(tmp_path / "blocks.bin")
        assert packed.provenance == ds.provenance
        for i in shuffled(len(ds)):
            ref = ds.ref(i)
            window = (slice(ref.row, ref.row + 9), slice(ref.col, ref.col + 9))
            for got, want, source in zip(packed[i], ds[i], corpus[ref.source]):
                assert got.dtype == np.float32 and want.dtype == dtype
                assert got.tobytes() == want.astype(np.float32).tobytes()
                assert got.tobytes() == apply_augmentation(
                    source[window].astype(np.float32), ref.aug
                ).tobytes()


class TestPackedVersion2:
    """What version 2 brought and version 3 keeps: patches read as owned,
    writable float32 arrays, no value that is not finite in float32 is
    written, and a version 1 file is refused."""

    def test_version_1_file_is_refused(self, tmp_path):
        path = tmp_path / "patches.bin"
        ds = build_dataset(make_corpus(1, 32, seed=3), patch_size=16, stride=16)
        write_packed_raw(path, ds, version=1)
        with pytest.raises(DatasetError, match="format version 1, expected 3"):
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


class TestPackedVersion3:
    """Version 3 stores the grid as its header and each source pair once."""

    def test_layout(self, tmp_path):
        ds = build_dataset(make_corpus(2, 32, seed=3), patch_size=16, stride=16,
                           augmentations=(AUG_ROT90, AUG_HFLIP, AUG_ROT90), mode="in_place")
        write_packed(tmp_path / "lib.bin", ds)
        write_packed_raw(tmp_path / "raw.bin", ds)
        assert (tmp_path / "lib.bin").read_bytes() == (tmp_path / "raw.bin").read_bytes()
        assert read_header(tmp_path / "lib.bin") == {
            "patch_size": 16, "stride": 16, "augmentations": [AUG_ROT90, AUG_HFLIP],
            "mode": "in_place", "sources": 2, "height": 32, "width": 32,
        }
        payload = (tmp_path / "lib.bin").read_bytes()[-2 * 2 * 32 * 32 * 4 :]
        stored = np.frombuffer(payload, "<f4").reshape(2, 2, 32, 32)
        np.testing.assert_array_equal(stored, np.array(ds.corpus))

    def test_provenance_order_is_part_of_the_format(self):
        """A packed file stores no records: readers derive them in this order."""
        corpus = make_corpus(2, 24)
        expand = build_dataset(corpus, patch_size=16, stride=8, augmentations=(AUG_ROT90,))
        assert [(r.source, r.row, r.col, r.aug) for r in expand.provenance[:8]] == [
            (0, 0, 0, 0), (0, 0, 8, 0), (0, 8, 0, 0), (0, 8, 8, 0),
            (0, 0, 0, 2), (0, 0, 8, 2), (0, 8, 0, 2), (0, 8, 8, 2),
        ]
        in_place = build_dataset(corpus, patch_size=16, stride=8,
                                 augmentations=(AUG_HFLIP, AUG_ROT90), mode="in_place")
        assert [(r.source, r.row, r.col, r.aug) for r in in_place.provenance] == [
            (0, 0, 0, 0), (0, 0, 8, 1), (0, 8, 0, 2), (0, 8, 8, 0),
            (1, 0, 0, 0), (1, 0, 8, 1), (1, 8, 0, 2), (1, 8, 8, 0),
        ]

    def test_version_2_file_is_refused(self, tmp_path):
        path = tmp_path / "patches.bin"
        ds = build_dataset(make_corpus(1, 32, seed=3), patch_size=16, stride=16)
        write_packed_raw(path, ds, version=2)
        with pytest.raises(DatasetError, match="format version 2, expected 3"):
            PackedDataset(path)

    def test_mixed_shape_corpus_is_dataset_error_and_writes_no_file(self, tmp_path):
        corpus = make_corpus(2, 32) + make_corpus(1, 40)
        ds = build_dataset(corpus, patch_size=16, stride=16)
        with pytest.raises(DatasetError, match="corpus pair 2 has shapes"):
            write_packed(tmp_path / "patches.bin", ds)
        assert not list(tmp_path.iterdir())
        with pytest.raises(DatasetError, match="corpus pair 2"):
            ds[len(ds) - 1]
        mismatched = [(np.zeros((32, 32)), np.zeros((32, 31)))]
        with pytest.raises(DatasetError, match="corpus pair 0"):
            write_packed(tmp_path / "patches.bin", build_dataset(mismatched, 16, 16))
        assert not list(tmp_path.iterdir())

    def test_packed_dataset_writes_its_own_file_again(self, tmp_path):
        path = packed_16(tmp_path)
        write_packed(tmp_path / "again.bin", PackedDataset(path))
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_empty_corpus_round_trips(self, tmp_path):
        write_packed(tmp_path / "empty.bin", build_dataset([], patch_size=16, stride=16))
        packed = PackedDataset(tmp_path / "empty.bin")
        assert len(packed) == 0 and packed.provenance == []

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_reader_maps_no_part_of_the_file(self, tmp_path):
        path = packed_16(tmp_path)
        packed = PackedDataset(path)
        pairs = [packed[i] for i in range(len(packed))]
        assert len(pairs) == 4
        assert str(path) not in Path("/proc/self/maps").read_text()

    def test_reading_after_close_is_os_error(self, tmp_path):
        packed = PackedDataset(packed_16(tmp_path))
        packed[0]
        packed.close()
        with pytest.raises(OSError):
            packed[0]


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


def enumerated_refs(patch, stride, augmentations, mode, sources, height, width):
    """Every record in dataset order by direct enumeration, as datasets
    listed them when they stored one record per patch."""
    variants = [0, *dict.fromkeys(augmentations)]
    base = [
        (r, c)
        for r in range(0, height - patch + 1, stride)
        for c in range(0, width - patch + 1, stride)
    ]
    if mode == "expand":
        return [(s, r, c, aug) for s in range(sources) for aug in variants for r, c in base]
    return [
        (s, r, c, variants[k % len(variants)])
        for s in range(sources)
        for k, (r, c) in enumerate(base)
    ]


def fields(ref):
    return ref.source, ref.row, ref.col, ref.aug


# Each augmentation written out with numpy alone.
AUGMENTED = {
    0: lambda x: x,
    AUG_HFLIP: lambda x: x[:, ::-1],
    AUG_ROT90: np.rot90,
    AUG_ROT180: lambda x: np.rot90(x, 2),
    AUG_ROT270: lambda x: np.rot90(x, 3),
}


@st.composite
def grids(draw):
    height = draw(st.integers(1, 23), label="height")
    width = draw(st.integers(1, 23), label="width")
    return {
        "sources": draw(st.integers(0, 3), label="sources"),
        "height": height,
        "width": width,
        "patch_size": draw(st.integers(1, min(height, width)), label="patch"),
        "stride": draw(st.integers(1, 9), label="stride"),
        "augmentations": draw(st.lists(st.integers(1, 4), max_size=6), label="augs"),
        "mode": draw(st.sampled_from(["expand", "in_place"]), label="mode"),
    }


class TestDerivedRecords:
    """A dataset holds no records: ``ref(i)`` decodes index ``i`` from the
    grid, in the order the direct enumeration lists them."""

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_records_and_patches_equal_the_enumeration(self, tmp_path_factory, grid):
        rng = np.random.default_rng(grid["sources"] * 31 + grid["height"])
        corpus = [
            tuple(rng.uniform(0, 255, (grid["height"], grid["width"])).astype(np.float32)
                  for _ in range(2))
            for _ in range(grid["sources"])
        ]
        p = grid["patch_size"]
        ds = build_dataset(corpus, p, grid["stride"], grid["augmentations"], grid["mode"])
        want = enumerated_refs(p, grid["stride"], grid["augmentations"], grid["mode"],
                               grid["sources"], grid["height"], grid["width"])
        assert len(ds) == len(want)
        assert [fields(r) for r in ds.provenance] == want
        path = tmp_path_factory.mktemp("grid") / "patches.bin"
        write_packed(path, ds)
        packed = PackedDataset(path)
        assert len(packed) == len(want) and packed.provenance == ds.provenance
        for i, (s, r, c, aug) in enumerate(want):
            assert fields(ds.ref(i)) == fields(packed.ref(i)) == (s, r, c, aug)
            for got, source in zip(ds[i], corpus[s]):
                assert got.tobytes() == AUGMENTED[aug](source[r : r + p, c : c + p]).tobytes()
            for got, want_img in zip(packed[i], ds[i]):
                assert got.tobytes() == want_img.tobytes()

    def test_index_has_list_semantics(self):
        corpus = make_corpus(2, 24, seed=1)
        ds = build_dataset(corpus, patch_size=16, stride=8, augmentations=(AUG_ROT90,))
        n = len(ds)
        assert n == 16
        assert fields(ds.ref(-1)) == fields(ds.ref(n - 1)) == (1, 8, 8, AUG_ROT90)
        assert ds.ref(-n) == ds.ref(0)
        for got, want in zip(ds[-1], ds[n - 1]):
            np.testing.assert_array_equal(got, want)
        for idx in (np.int64(5), np.int32(5), np.uint8(5)):
            assert ds.ref(idx) == ds.ref(5)
            for got, want in zip(ds[idx], ds[5]):
                np.testing.assert_array_equal(got, want)
        for idx in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                ds[idx]
        with pytest.raises(TypeError):
            ds[1.0]
        with pytest.raises(IndexError):
            build_dataset([], patch_size=16, stride=8)[0]


def holdout_by_records(dataset, fraction, seed):
    """``holdout_split`` over the list of every record: the per-record loop
    the arithmetic split must reproduce."""
    sources = np.array([p.source for p in dataset.provenance])
    unique = np.unique(sources)
    if fraction <= 0 or len(dataset) < 2:
        return np.arange(len(dataset)), np.array([], dtype=np.int64)
    rng = derive_rng(seed, 4, 0)
    if len(unique) >= 2:
        shuffled = rng.permutation(unique)
        n_hold = max(1, int(round(fraction * len(unique))))
        held = set(shuffled[:n_hold].tolist())
        mask = np.array([s in held for s in sources])
    else:
        idx = rng.permutation(len(dataset))
        n_hold = max(1, int(round(fraction * len(dataset))))
        mask = np.zeros(len(dataset), dtype=bool)
        mask[idx[:n_hold]] = True
    return np.nonzero(~mask)[0], np.nonzero(mask)[0]


class TestHoldoutSplit:
    @pytest.mark.parametrize(
        "sources, mode, fraction",
        [(7, "expand", 0.3), (7, "in_place", 0.3), (5, "expand", 0.9), (1, "expand", 0.25),
         (1, "in_place", 0.5), (7, "expand", 0.0), (1, "expand", 0.0), (2, "in_place", 0.1)],
        ids=["expand", "in_place", "most-held", "one-source-expand", "one-source-in_place",
             "fraction-0", "one-source-fraction-0", "two-sources"],
    )
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_equals_the_per_record_split(self, sources, mode, fraction, seed):
        ds = build_dataset(make_corpus(sources, 30, seed=seed), patch_size=10, stride=7,
                           augmentations=(AUG_HFLIP, AUG_ROT180), mode=mode)
        got = holdout_split(ds, fraction, seed)
        want = holdout_by_records(ds, fraction, seed)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_zero_sources_give_empty_splits(self, tmp_path):
        write_zero_source_header(tmp_path / "empty.fpds", 2000)
        empty = build_dataset([], patch_size=8, stride=8)
        for ds in (empty, PackedDataset(tmp_path / "empty.fpds")):
            train_idx, eval_idx = holdout_split(ds, 0.5, 0)
            assert train_idx.size == eval_idx.size == 0


class TestZeroSourceHeader:
    """A header naming no sources costs nothing to open, whatever image
    size it names."""

    def test_opens_empty_without_allocating(self, tmp_path):
        path = tmp_path / "empty.fpds"
        write_zero_source_header(path, 2000)
        assert path.stat().st_size == 126
        tracemalloc.start()
        try:
            packed = PackedDataset(path)
            n = len(packed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 0 and packed.provenance == []
        assert peak < 1 << 20
