"""Clean/noisy patch datasets with full provenance.

Patches are cut on a regular grid (offsets 0, stride, 2*stride, ... up to
the largest fit) from a corpus of aligned clean/noisy image pairs.  Every
patch is identified by (source index, row offset, column offset,
augmentation code), so its pixels can be re-materialized from the corpus
at any time; nothing about patch content is stored in the in-memory
dataset.

The packed on-disk form uses the shared container framing
(``container.py``) with magic ``FPDS``; its payload is one
``(count, 2, patch, patch)`` float32 array of clean/noisy pairs, enabling
random access by index and memory-mapped streaming of large datasets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .container import read_container, write_container
from .errors import FringeDenoiseError, is_int

AUG_NONE = 0
AUG_HFLIP = 1
AUG_ROT90 = 2
AUG_ROT180 = 3
AUG_ROT270 = 4

AUG_NAMES = {
    AUG_NONE: "none",
    AUG_HFLIP: "hflip",
    AUG_ROT90: "rot90",
    AUG_ROT180: "rot180",
    AUG_ROT270: "rot270",
}
AUG_CODES = {name: code for code, name in AUG_NAMES.items()}

EXPAND = "expand"
IN_PLACE = "in_place"


class DatasetError(FringeDenoiseError):
    pass


def apply_augmentation(patch: np.ndarray, code: int) -> np.ndarray:
    """A view of ``patch``, or of a stack of patches, mapped on its last two axes."""
    if code == AUG_NONE:
        return patch
    if code == AUG_HFLIP:
        return patch[..., ::-1]
    if code == AUG_ROT90:
        return np.rot90(patch, 1, axes=(-2, -1))
    if code == AUG_ROT180:
        return np.rot90(patch, 2, axes=(-2, -1))
    if code == AUG_ROT270:
        return np.rot90(patch, 3, axes=(-2, -1))
    raise DatasetError(f"unknown augmentation code {code}")


@dataclass(frozen=True)
class PatchRef:
    source: int
    row: int
    col: int
    aug: int = AUG_NONE


def grid_offsets(dim: int, patch_size: int, stride: int) -> range:
    """Regular-grid offsets 0, stride, ... not exceeding dim - patch_size."""
    return range(0, dim - patch_size + 1, stride)


class PatchDataset:
    """Lazy view over a corpus: provenance records plus a patch extractor."""

    def __init__(
        self,
        corpus,
        provenance: list[PatchRef],
        patch_size: int,
        stride: int,
    ) -> None:
        self.corpus = corpus
        self.provenance = provenance
        self.patch_size = patch_size
        self.stride = stride

    def __len__(self) -> int:
        return len(self.provenance)

    def __getitem__(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        ref = self.provenance[idx]
        clean, noisy = self.corpus[ref.source]
        p = self.patch_size
        window = (slice(ref.row, ref.row + p), slice(ref.col, ref.col + p))
        return (
            np.ascontiguousarray(apply_augmentation(clean[window], ref.aug)),
            np.ascontiguousarray(apply_augmentation(noisy[window], ref.aug)),
        )


def build_dataset(
    corpus,
    patch_size: int = 80,
    stride: int = 16,
    augmentations: tuple[int, ...] = (),
    mode: str = EXPAND,
) -> PatchDataset:
    """Cut every corpus pair into grid patches, optionally augmented.

    ``mode="expand"`` emits one extra copy of every patch per selected
    augmentation; ``mode="in_place"`` keeps the base patch count and
    assigns augmentations round-robin over the grid (deterministic, no
    randomness involved).
    """
    if not (is_int(patch_size, 1) and is_int(stride, 1)):
        raise DatasetError(
            f"patch size and stride must be integers >= 1, got {patch_size!r} and {stride!r}"
        )
    if mode not in (EXPAND, IN_PLACE):
        raise DatasetError(f"unknown augmentation mode {mode!r}")
    augs = list(dict.fromkeys(augmentations))
    if AUG_NONE in augs:
        raise DatasetError("augmentations are extras; the identity is implicit")
    provenance: list[PatchRef] = []
    variants = [AUG_NONE] + augs
    for src, (clean, noisy) in enumerate(corpus):
        if clean.shape != noisy.shape:
            raise DatasetError(
                f"corpus pair {src} has mismatched shapes {clean.shape} vs {noisy.shape}"
            )
        h, w = clean.shape
        if h < patch_size or w < patch_size:
            raise DatasetError(
                f"corpus image {src} ({h}x{w}) is smaller than the "
                f"{patch_size}x{patch_size} patch"
            )
        base = [
            (r, c)
            for r in grid_offsets(h, patch_size, stride)
            for c in grid_offsets(w, patch_size, stride)
        ]
        if mode == EXPAND:
            for aug in variants:
                provenance.extend(PatchRef(src, r, c, aug) for r, c in base)
        else:
            for k, (r, c) in enumerate(base):
                provenance.append(PatchRef(src, r, c, variants[k % len(variants)]))
    return PatchDataset(corpus, provenance, patch_size, stride)


# --- packed on-disk form ----------------------------------------------------

PACKED_MAGIC = b"FPDS"
PACKED_VERSION = 2


def write_packed(path, dataset: PatchDataset) -> None:
    """Serialize a ``build_dataset`` dataset to the packed form.

    The write is atomic: a dataset that fails partway, or holds a value that
    is not finite in float32, leaves no file.
    """
    header = {
        "patch_size": dataset.patch_size,
        "stride": dataset.stride,
        "count": len(dataset),
        "provenance": [
            [ref.source, ref.row, ref.col, ref.aug] for ref in dataset.provenance
        ],
    }
    write_container(
        path, PACKED_MAGIC, PACKED_VERSION, header, _source_blocks(dataset), DatasetError
    )


def _source_blocks(dataset: PatchDataset):
    """Each run of consecutive records that share a source, as one float32
    ``(n, 2, patch, patch)`` block: the same values, in the same order, as
    the run's ``dataset[i]`` pairs.  A value beyond float32 casts to
    infinity here, inside ``write_container``'s loop, which refuses it."""
    p = dataset.patch_size
    for source, run in itertools.groupby(dataset.provenance, key=attrgetter("source")):
        rows, cols, augs = np.array([(ref.row, ref.col, ref.aug) for ref in run]).T
        block = np.empty((len(augs), 2, p, p), dtype="<f4")
        for k, plane in enumerate(dataset.corpus[source]):
            block[:, k] = sliding_window_view(plane, (p, p))[rows, cols]
        for code in np.unique(augs[augs != AUG_NONE]):
            hit = augs == code
            block[hit] = apply_augmentation(block[hit], int(code))
        yield block


def _is_record(entry) -> bool:
    """A provenance record: four non-negative integers, the last an augmentation."""
    return (
        isinstance(entry, list) and len(entry) == 4 and all(map(is_int, entry))
        and entry[3] in AUG_NAMES
    )


class PackedDataset:
    """Random access into a packed dataset file via a memory map."""

    def __init__(self, path) -> None:
        header, payload = read_container(
            path, PACKED_MAGIC, PACKED_VERSION, ("patch_size", "stride", "count", "provenance"),
            DatasetError,
        )
        self.patch_size = header["patch_size"]
        self.stride = header["stride"]
        self._count = header["count"]
        if not (is_int(self.patch_size, 1) and is_int(self.stride, 1) and is_int(self._count)):
            raise DatasetError(
                f"{path}: patch_size and stride must be integers >= 1 and count an "
                f"integer >= 0, got {self.patch_size!r}, {self.stride!r}, {self._count!r}"
            )
        records = header["provenance"]
        if not (isinstance(records, list) and all(map(_is_record, records))):
            raise DatasetError(
                f"{path}: provenance must be a list of [source, row, col, aug] "
                "non-negative integers with a known augmentation code"
            )
        self.provenance = [PatchRef(*entry) for entry in records]
        if self._count != len(self.provenance):
            raise DatasetError(
                f"{path}: header count {self._count} disagrees with "
                f"{len(self.provenance)} provenance records"
            )
        expected = self._count * 2 * self.patch_size**2
        if payload.size < expected:
            raise DatasetError(
                f"{path}: truncated payload ({payload.size} values, expected {expected})"
            )
        self._pairs = payload[:expected].reshape(self._count, 2, self.patch_size, self.patch_size)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= idx < self._count:
            raise IndexError(idx)
        return tuple(np.array(self._pairs[idx], dtype=np.float32))  # one owned copy of the pair
