"""Corpus generation: randomized clean/noisy image pairs on disk.

Each image pair is produced from a generator derived from (master seed,
image id) alone, so pairs can be regenerated independently and a corpus
could be built image-parallel without changing a single byte of output.
Both members are standardized to [0, 255] and stored as float images under
``clean/`` and ``noisy/`` with matching zero-padded ids.

A configurable number of pairs have their noisy member replaced by (or, in
append mode, duplicated as) the clean image plus white Gaussian noise,
which diversifies the noise statistics seen in training.

``load_corpus`` gives a corpus directory back as a sequence of pairs that
reads each pair only when it is indexed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import image_io
from .config import SimulateConfig
from .image_io import write_image
from .phase import random_phase_spec, spec_to_dict
from .seeding import NS_AWGN, NS_CORPUS, NS_IMAGE, derive_rng
from .speckle import (
    PhaseField,
    SimulationParams,
    add_awgn,
    normalize_to_range,
    phase_field,
    render_clean,
    render_noisy,
)


def pair_buffers(cfg: SimulateConfig) -> tuple[np.ndarray, ...]:
    """The five float64 images one pair is rendered in: the clean and noisy
    results, each its own array, then the phase grid, the fringe cosine and
    a scratch image, as one block.  The layout was chosen by the peak RSS
    and set-up time it gives the benchmark's workloads."""
    shape = (cfg.height, cfg.width)
    return (np.empty(shape), np.empty(shape), *np.empty((3, *shape)))


def generate_pair(
    cfg: SimulateConfig, master_seed: int, image_id: int, buffers=None
) -> tuple[np.ndarray, np.ndarray, dict]:
    """One clean/noisy pair plus its provenance record.

    The pair is rendered in ``buffers`` (from ``pair_buffers``), and the
    images returned are their first two, which the next call given the same
    buffers overwrites.  Without buffers a fresh set is made, so the
    returned images own their memory.

    Draw order within the per-image stream: phase spec, object-beam
    intensity, noise expectation, then the pixel-level noise fields.
    """
    rng = derive_rng(master_seed, NS_IMAGE, image_id)
    spec = random_phase_spec(rng, cfg.height, cfg.width, cfg.min_terms, cfg.max_terms)
    a0c_sq = float(rng.uniform(*cfg.a0c_sq_range))
    ned_lambda = float(rng.uniform(*cfg.ned_lambda_range))
    params = SimulationParams(
        a0c_sq=a0c_sq,
        ned_lambda=ned_lambda,
        width=cfg.width,
        height=cfg.height,
        ar_sq=cfg.ar_sq,
        phi_r=cfg.phi_r,
        index_origin=cfg.index_origin,
    )
    clean, noisy, dphi, fringe_cos, scratch = pair_buffers(cfg) if buffers is None else buffers
    # One grid and one fringe cosine for both renderers.  The noisy image is
    # rendered first, so that the clean image's array can hold its amplitude.
    field = phase_field(params, spec, PhaseField(dphi, fringe_cos), spare=scratch)
    normalize_to_range(render_noisy(params, field, rng, noisy, (scratch, clean)), out=noisy)
    normalize_to_range(render_clean(params, field, clean), out=clean)
    record = {
        "id": image_id,
        "a0c_sq": a0c_sq,
        "ned_lambda": ned_lambda,
        "phase": spec_to_dict(spec),
        "awgn": False,
    }
    return clean, noisy, record


def generate_corpus(cfg: SimulateConfig, master_seed: int, out_dir) -> dict:
    """Write the corpus tree and return its manifest.

    Every pair is rendered in one set of buffers and written as soon as it
    is made, so memory does not grow with ``cfg.count``.  The appended AWGN
    copy of the k-th selected id (counting up from id 0) gets id
    ``count + k``; its record follows the base records.
    """
    out = Path(out_dir)
    (out / "clean").mkdir(parents=True, exist_ok=True)
    (out / "noisy").mkdir(parents=True, exist_ok=True)
    chooser = derive_rng(master_seed, NS_CORPUS, 0)
    selected = set(chooser.permutation(cfg.count)[: cfg.awgn_count].tolist())
    records, appended = [], []
    buffers = pair_buffers(cfg)
    for image_id in range(cfg.count):
        clean, noisy, record = generate_pair(cfg, master_seed, image_id, buffers)
        if image_id in selected:
            # Own derived stream per id: the substitution stays a pure
            # function of (seed, id) like everything else about the pair.
            awgn_rng = derive_rng(master_seed, NS_AWGN, image_id)
            corrupted = add_awgn(clean, cfg.awgn_sigma, awgn_rng)
            if cfg.awgn_mode == "in_place":
                noisy = corrupted
                record["awgn"] = True
            else:
                new_id = cfg.count + len(appended)
                _write_pair(out, new_id, clean, corrupted)
                appended.append(
                    {"id": new_id, "source_id": image_id, "awgn": True, "awgn_sigma": cfg.awgn_sigma}
                )
        _write_pair(out, image_id, clean, noisy)
        records.append(record)
    records += appended
    return {"seed": master_seed, "count": len(records), "images": records}


def _write_pair(out: Path, image_id: int, clean: np.ndarray, noisy: np.ndarray) -> None:
    write_image(clean, out / "clean" / f"{image_id:04d}.fpd1")
    write_image(noisy, out / "noisy" / f"{image_id:04d}.fpd1")


class StoredCorpus:
    """The clean/noisy pairs of a corpus directory, by id, read as float32
    one pair at a time: ``corpus[i]`` reads pair ``i`` from disk, except that
    the pair read last is kept, so a caller that reads a pair twice in a row
    reads the files once."""

    def __init__(self, corpus_dir) -> None:
        corpus_dir = Path(corpus_dir)
        clean_dir = corpus_dir / "clean"
        noisy_dir = corpus_dir / "noisy"
        if not clean_dir.is_dir() or not noisy_dir.is_dir():
            raise FileNotFoundError(
                f"{corpus_dir} is not a corpus (needs clean/ and noisy/ subdirectories)"
            )
        self.paths = []
        for clean_path in sorted(clean_dir.iterdir()):
            noisy_path = noisy_dir / clean_path.name
            if not noisy_path.exists():
                raise FileNotFoundError(f"corpus id {clean_path.stem} has no noisy member")
            self.paths.append((clean_path, noisy_path))
        self._last = (None, None)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        if self._last[0] != idx:  # image_io.read_image is looked up at call time
            pair = tuple(image_io.read_image(p).astype(np.float32) for p in self.paths[idx])
            self._last = (idx, pair)
        return self._last[1]


def load_corpus(corpus_dir) -> StoredCorpus:
    """The corpus in ``corpus_dir``, ordered by id, with no image read yet."""
    return StoredCorpus(corpus_dir)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
