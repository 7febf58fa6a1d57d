"""Clean/noisy patch datasets with full provenance.

Patches are cut on a regular grid (offsets 0, stride, 2*stride, ... up to
the largest fit) from a corpus of aligned clean/noisy pairs of one shape.
Each patch's provenance (source, row, column, augmentation) is derived from
the grid by ``patch_refs``, never stored, and its pixels are cut on demand.

The packed form uses the shared container framing (``container.py``) with
magic ``FPDS``: the grid as header, then each source pair once, as float32
``(2, height, width)``.  ``PackedDataset`` maps no part of it: a patch reads
only the rows its window covers, one positioned read per image.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

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

# The arguments of ``patch_refs``: a dataset's grid and a packed file's header.
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


@dataclass(frozen=True)
class PatchRef:
    source: int
    row: int
    col: int
    aug: int = AUG_NONE


def grid_offsets(dim: int, patch_size: int, stride: int) -> range:
    """Regular-grid offsets 0, stride, ... not exceeding dim - patch_size."""
    return range(0, dim - patch_size + 1, stride)


def patch_refs(
    patch_size, stride, augmentations, mode, sources: int, height: int, width: int
) -> list[PatchRef]:
    """Every patch of ``sources`` images of ``height`` x ``width``, in dataset order.

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
    if not isinstance(augmentations, (list, tuple)) or not all(
        is_int(a, 1) and a in AUG_NAMES for a in augmentations
    ):
        raise DatasetError(f"augmentations are extra codes 1-4, got {augmentations!r}; "
                           "the identity is implicit")
    if sources and (height < patch_size or width < patch_size):
        raise DatasetError(
            f"corpus image 0 ({height}x{width}) is smaller than the "
            f"{patch_size}x{patch_size} patch"
        )
    variants = [AUG_NONE, *dict.fromkeys(augmentations)]
    base = [
        (r, c)
        for r in grid_offsets(height, patch_size, stride)
        for c in grid_offsets(width, patch_size, stride)
    ]
    if mode == EXPAND:
        return [PatchRef(s, r, c, aug) for s in range(sources) for aug in variants for r, c in base]
    return [
        PatchRef(s, r, c, variants[k % len(variants)])
        for s in range(sources)
        for k, (r, c) in enumerate(base)
    ]


class PatchDataset:
    """Grid patches of an indexable corpus of clean/noisy pairs, cut on demand.

    ``grid`` holds ``patch_refs``'s arguments by name: the packed header.
    """

    def __init__(self, corpus, grid: dict) -> None:
        self.corpus = corpus
        self.grid = grid
        self.patch_size = grid["patch_size"]
        self.stride = grid["stride"]
        self.provenance = patch_refs(**grid)

    def __len__(self) -> int:
        return len(self.provenance)

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
        ref = self.provenance[idx]
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
    patches, optionally augmented (see ``patch_refs``).

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
