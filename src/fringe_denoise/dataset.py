"""Clean/noisy patch datasets with full provenance.

Patches are cut on a regular grid (offsets 0, stride, 2*stride, ... up to
the largest fit) from a corpus of aligned clean/noisy pairs of one shape.
A dataset holds its corpus and that grid, nothing per patch: each patch's
provenance (source, row, column, augmentation) is decoded from its index
when it is read, and its pixels are cut on demand.  Opening a dataset
costs the same for ten patches as for millions.

The packed form uses the shared container framing (``container.py``) with
magic ``FPDS``: the grid as header, then each source pair once, as float32
``(2, height, width)``.  ``PackedDataset`` maps no part of it: a patch reads
only the rows its window covers, one positioned read per image.
"""

from __future__ import annotations

import operator
import os
import weakref
from typing import NamedTuple

import numpy as np

from .container import read_header, write_container
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

# A dataset's grid and a packed file's header.
GRID_KEYS = ("patch_size", "stride", "augmentations", "mode", "sources", "height", "width")


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


class PatchRef(NamedTuple):
    source: int
    row: int
    col: int
    aug: int = AUG_NONE


def grid_offsets(dim: int, patch_size: int, stride: int) -> range:
    """Regular-grid offsets 0, stride, ... not exceeding dim - patch_size."""
    return range(0, dim - patch_size + 1, stride)


class PatchDataset:
    """Grid patches of an indexable corpus of clean/noisy pairs, cut on demand.

    ``grid`` holds ``GRID_KEYS`` by name: the packed header.  Patches are
    ordered by source; then, with ``mode="expand"``, by variant (the base
    patch, then one extra copy per selected augmentation), row and column;
    with ``mode="in_place"``, by row and column, each patch taking the
    variants round-robin over its source's grid (deterministic, no
    randomness involved).  ``ref`` decodes an index into that order.
    """

    def __init__(self, corpus, grid: dict) -> None:
        patch_size, stride, mode = grid["patch_size"], grid["stride"], grid["mode"]
        augmentations, height, width = grid["augmentations"], grid["height"], grid["width"]
        if not (is_int(patch_size, 1) and is_int(stride, 1)):
            raise DatasetError(
                f"patch size and stride must be integers >= 1, got {patch_size!r} and {stride!r}"
            )
        if mode not in (EXPAND, IN_PLACE):
            raise DatasetError(f"unknown augmentation mode {mode!r}")
        if not isinstance(augmentations, (list, tuple)) or not all(
            is_int(a, 1) and a in AUG_NAMES for a in augmentations
        ):
            raise DatasetError(f"augmentations are extra codes 1-4, got {augmentations!r}; "
                               "the identity is implicit")
        if grid["sources"] and (height < patch_size or width < patch_size):
            raise DatasetError(
                f"corpus image 0 ({height}x{width}) is smaller than the "
                f"{patch_size}x{patch_size} patch"
            )
        self.corpus = corpus
        self.grid = grid
        self.patch_size = patch_size
        self.stride = stride
        self._rows = grid_offsets(height, patch_size, stride)
        self._cols = grid_offsets(width, patch_size, stride)
        self._variants = (AUG_NONE, *dict.fromkeys(augmentations))
        self._per_source = len(self._rows) * len(self._cols)
        if mode == EXPAND:
            self._per_source *= len(self._variants)

    def __len__(self) -> int:
        return self.grid["sources"] * self._per_source

    def ref(self, idx) -> PatchRef:
        """Patch ``idx``'s provenance; ``idx`` is a list index."""
        n, i = len(self), operator.index(idx)
        if not -n <= i < n:
            raise IndexError(f"patch index {i} is out of range for {n} patches")
        source, k = divmod(i % n, self._per_source)
        if self.grid["mode"] == EXPAND:
            variant, k = divmod(k, len(self._rows) * len(self._cols))
        else:
            variant = k % len(self._variants)
        row, col = divmod(k, len(self._cols))
        return PatchRef(source, self._rows[row], self._cols[col], self._variants[variant])

    @property
    def provenance(self) -> list[PatchRef]:
        """Every patch's ``ref``, in dataset order, built when read."""
        return [self.ref(i) for i in range(len(self))]

    def pair(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Corpus pair ``source``; a pair not of the grid's shape is a ``DatasetError``."""
        clean, noisy = self.corpus[source]
        shape = (self.grid["height"], self.grid["width"])
        if not clean.shape == noisy.shape == shape:
            raise DatasetError(
                f"corpus pair {source} has shapes {clean.shape} and {noisy.shape}; "
                f"every image must be {shape[0]}x{shape[1]}, as image 0 is"
            )
        return clean, noisy

    def window_rows(self, ref: PatchRef):
        """Both members' image rows ``ref.row`` to ``ref.row + patch_size``."""
        rows = slice(ref.row, ref.row + self.patch_size)
        return [image[rows] for image in self.pair(ref.source)]

    def __getitem__(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Patch pair ``idx`` as owned arrays: its window's columns of
        ``window_rows``, augmented."""
        ref = self.ref(idx)
        cols = slice(ref.col, ref.col + self.patch_size)
        clean, noisy = (
            apply_augmentation(rows[:, cols], ref.aug).copy() for rows in self.window_rows(ref)
        )
        return clean, noisy


def build_dataset(
    corpus,
    patch_size: int = 80,
    stride: int = 16,
    augmentations: tuple[int, ...] = (),
    mode: str = EXPAND,
) -> PatchDataset:
    """Cut every pair of ``corpus``, a sequence of same-shape pairs, into grid
    patches, optionally augmented (see ``PatchDataset``).

    Only pair 0 is read here, for the shape; every later read of a pair
    checks it against that shape.
    """
    height, width = corpus[0][0].shape if len(corpus) else (0, 0)
    grid = dict(patch_size=patch_size, stride=stride, mode=mode, sources=len(corpus),
                augmentations=list(dict.fromkeys(augmentations)), height=height, width=width)
    return PatchDataset(corpus, grid)


# --- packed on-disk form ----------------------------------------------------

PACKED_MAGIC = b"FPDS"
PACKED_VERSION = 3


def write_packed(path, dataset: PatchDataset) -> None:
    """Write ``dataset``'s grid as the header and each of its corpus pairs once.

    Pairs are read one at a time.  The write is atomic: a pair that cannot
    be read, is not of the grid's shape, or holds a value that is not
    finite in float32 leaves no file.
    """
    members = (m for s in range(dataset.grid["sources"]) for m in dataset.pair(s))
    write_container(path, PACKED_MAGIC, PACKED_VERSION, dataset.grid, members, DatasetError)


class PackedDataset(PatchDataset):
    """The patches of a packed file; ``corpus`` is its path.  A pair or a
    window's rows is read with one positioned read per image, and the file
    stays open until ``close`` or garbage collection.  A version 1 or 2 file
    is refused: run ``dataset`` on its corpus again.
    """

    def __init__(self, path) -> None:
        header, start, size = read_header(
            path, PACKED_MAGIC, PACKED_VERSION, GRID_KEYS, DatasetError
        )
        grid = {key: header[key] for key in GRID_KEYS}
        sources, height, width = grid["sources"], grid["height"], grid["width"]
        if not all(map(is_int, (sources, height, width))):
            raise DatasetError(f"{path}: sources, height and width must be integers >= 0")
        if size - start != sources * 2 * height * width * 4:
            raise DatasetError(
                f"{path}: payload is {size - start} bytes, not the {sources} pairs of "
                f"{height}x{width} float32 images the header names (truncated or corrupt)"
            )
        try:
            super().__init__(path, grid)
        except DatasetError as exc:
            raise DatasetError(f"{path}: {exc}") from None
        self._start = start
        self._fd = os.open(path, os.O_RDONLY)
        self._closer = weakref.finalize(self, os.close, self._fd)

    def close(self) -> None:
        """Close the file; reading a patch afterwards raises ``OSError``."""
        self._closer()
        self._fd = -1

    def _read(self, source: int, row: int, count: int) -> np.ndarray:
        """Rows ``row`` to ``row + count`` of both members of pair ``source``."""
        height, width = self.grid["height"], self.grid["width"]
        out = np.empty((2, count, width), dtype="<f4")
        for k in range(2):
            offset = self._start + 4 * width * ((2 * source + k) * height + row)
            if os.preadv(self._fd, [out[k]], offset) != out[k].nbytes:
                raise DatasetError(f"{self.corpus}: file ends inside pair {source}")
        return out

    def pair(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self._read(source, 0, self.grid["height"]))

    def window_rows(self, ref: PatchRef) -> np.ndarray:
        return self._read(ref.source, ref.row, self.patch_size)
