"""The corpus writer: what ``generate_corpus`` writes, and when it writes it."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fringe_denoise import corpus
from fringe_denoise.config import SimulateConfig
from fringe_denoise.corpus import (
    NS_AWGN,
    NS_CORPUS,
    NS_IMAGE,
    generate_corpus,
    generate_pair,
    pair_buffers,
)
from fringe_denoise.image_io import encode_fpd1, write_image
from fringe_denoise.phase import phase_grid, random_phase_spec
from fringe_denoise.seeding import derive_rng
from fringe_denoise.speckle import add_awgn, normalize_to_range, sample_ned

SEED = 11
MODES = {
    "no-awgn": {},
    "in_place": {"awgn_count": 3, "awgn_mode": "in_place"},
    "append": {"awgn_count": 3, "awgn_mode": "append"},
}


def small_config(mode: str) -> SimulateConfig:
    return SimulateConfig(count=6, width=32, height=24, awgn_sigma=7.5, **MODES[mode])


def expected_corpus(cfg: SimulateConfig, seed: int):
    """Files (id -> clean, noisy) and manifest records, built per id from
    ``generate_pair``, ``add_awgn`` and the ``NS_CORPUS`` selection alone."""
    chosen = derive_rng(seed, NS_CORPUS, 0).permutation(cfg.count)[: cfg.awgn_count]
    files, records, appended = {}, [], []
    for image_id in range(cfg.count):
        clean, noisy, record = generate_pair(cfg, seed, image_id)
        files[image_id] = (clean, noisy)
        records.append(record)
    for source in sorted(int(i) for i in chosen):
        clean = files[source][0]
        corrupted = add_awgn(clean, cfg.awgn_sigma, derive_rng(seed, NS_AWGN, source))
        if cfg.awgn_mode == "in_place":
            files[source] = (clean, corrupted)
            records[source]["awgn"] = True
        else:
            new_id = cfg.count + len(appended)
            files[new_id] = (clean, corrupted)
            appended.append(
                {"id": new_id, "source_id": source, "awgn": True, "awgn_sigma": cfg.awgn_sigma}
            )
    return files, records + appended


@pytest.mark.parametrize("mode", list(MODES))
def test_every_file_and_record_matches_its_per_id_recipe(tmp_path, mode):
    cfg = small_config(mode)
    manifest = generate_corpus(cfg, SEED, tmp_path)
    files, records = expected_corpus(cfg, SEED)
    assert manifest == {"seed": SEED, "count": len(files), "images": records}
    for sub, member in (("clean", 0), ("noisy", 1)):
        written = sorted(p.name for p in (tmp_path / sub).iterdir())
        assert written == [f"{i:04d}.fpd1" for i in sorted(files)]
        for image_id, pair in files.items():
            path = tmp_path / sub / f"{image_id:04d}.fpd1"
            assert path.read_bytes() == encode_fpd1(np.asarray(pair[member], "<f4")), path
    if mode == "append":
        extra = [r for r in manifest["images"] if "source_id" in r]
        assert [r["id"] for r in extra] == list(range(cfg.count, cfg.count + cfg.awgn_count))
        sources = [r["source_id"] for r in extra]
        assert sources == sorted(sources) and len(set(sources)) == cfg.awgn_count
    if mode == "in_place":
        assert sum(r["awgn"] for r in manifest["images"]) == cfg.awgn_count


@pytest.mark.parametrize("mode", list(MODES))
def test_each_pair_is_written_before_the_next_is_made(tmp_path, monkeypatch, mode):
    cfg = small_config(mode)
    events = []

    def recording_pair(cfg, master_seed, image_id, buffers=None):
        events.append(("make", image_id))
        return generate_pair(cfg, master_seed, image_id, buffers)

    def recording_write(img, path):
        events.append(("write", int(path.stem)))
        write_image(img, path)

    monkeypatch.setattr(corpus, "generate_pair", recording_pair)
    monkeypatch.setattr(corpus, "write_image", recording_write)
    manifest = generate_corpus(cfg, SEED, tmp_path)
    copies = {r["source_id"]: r["id"] for r in manifest["images"] if "source_id" in r}
    made = {image_id: events.index(("make", image_id)) for image_id in range(cfg.count)}
    for image_id in range(cfg.count):
        ids = {image_id, copies.get(image_id, image_id)}
        writes = [n for n, event in enumerate(events) if event[0] == "write" and event[1] in ids]
        assert len(writes) == 2 * len(ids)
        assert made[image_id] < min(writes)
        if image_id + 1 < cfg.count:
            assert max(writes) < made[image_id + 1], (image_id, events)


def two_grid_pair(cfg: SimulateConfig, seed: int, image_id: int):
    """The clean/noisy pair of ``generate_pair``, with the phase grid and the
    fringe cosine evaluated once for each renderer, formulas written out."""
    rng = derive_rng(seed, NS_IMAGE, image_id)
    spec = random_phase_spec(rng, cfg.height, cfg.width, cfg.min_terms, cfg.max_terms)
    a0c_sq = float(rng.uniform(*cfg.a0c_sq_range))
    ned_lambda = float(rng.uniform(*cfg.ned_lambda_range))
    dphi = phase_grid(spec, cfg.height, cfg.width, cfg.index_origin)
    amp = 4.0 * a0c_sq * cfg.ar_sq
    clean = amp + amp * np.cos(dphi + np.pi)
    dphi = phase_grid(spec, cfg.height, cfg.width, cfg.index_origin)
    shape = (cfg.height, cfg.width)
    phi0 = np.pi - 2.0 * np.pi * rng.random(shape)
    a0_sq = a0c_sq + sample_ned(ned_lambda, rng, shape)
    amp = 4.0 * a0_sq * cfg.ar_sq
    base = amp + amp * np.cos(dphi + np.pi)
    noise = -amp * (1.0 - np.cos(dphi)) * np.cos(2.0 * phi0 + dphi - 2.0 * cfg.phi_r)
    return normalize_to_range(clean), normalize_to_range(base + noise)


@pytest.mark.parametrize("mode", ["no-awgn", "in_place"])
def test_pairs_equal_the_two_grid_recipe_bit_for_bit(tmp_path, mode):
    """20 pairs from one shared phase grid, and the corpus files written from
    them, equal the two-grid recipe bit for bit."""
    cfg = dataclasses.replace(small_config(mode), count=20)
    generate_corpus(cfg, SEED, tmp_path)
    chosen = set(derive_rng(SEED, NS_CORPUS, 0).permutation(cfg.count)[: cfg.awgn_count].tolist())
    for image_id in range(cfg.count):
        clean, noisy = two_grid_pair(cfg, SEED, image_id)
        got = generate_pair(cfg, SEED, image_id)
        assert got[0].tobytes() == clean.tobytes() and got[1].tobytes() == noisy.tobytes()
        if image_id in chosen:
            noisy = add_awgn(clean, cfg.awgn_sigma, derive_rng(SEED, NS_AWGN, image_id))
        for sub, img in (("clean", clean), ("noisy", noisy)):
            path = tmp_path / sub / f"{image_id:04d}.fpd1"
            assert path.read_bytes() == encode_fpd1(np.asarray(img, "<f4")), path


@pytest.mark.parametrize(
    "cfg",
    [
        small_config("in_place"),
        small_config("append"),
        SimulateConfig(count=5, width=19, height=41, ned_lambda_range=(0.0, 0.0)),
        SimulateConfig(count=5, width=48, height=48, min_terms=5, max_terms=5, phi_r=0.4),
    ],
    ids=["in_place", "append", "ned-zero-tall", "five-terms"],
)
@pytest.mark.parametrize("seed", [1, 7, 7919])
def test_reused_buffers_give_the_bytes_of_fresh_ones(tmp_path, cfg, seed):
    """One set of buffers reused across pairs, in any order and starting
    dirty, renders what fresh buffers and the two-grid recipe render, and
    the corpus written through it holds those bytes."""
    manifest = generate_corpus(cfg, seed, tmp_path)
    files, records = expected_corpus(cfg, seed)
    assert manifest["images"] == records
    buffers = pair_buffers(cfg)
    for buf in buffers:
        buf.fill(np.nan)
    for image_id in reversed(range(cfg.count)):
        clean, noisy, record = generate_pair(cfg, seed, image_id, buffers)
        fresh = generate_pair(cfg, seed, image_id)
        recipe = two_grid_pair(cfg, seed, image_id)
        for got, want, by_recipe in zip((clean, noisy), fresh[:2], recipe):
            assert got.tobytes() == want.tobytes() == by_recipe.tobytes(), image_id
        assert record == fresh[2]
        path = tmp_path / "clean" / f"{image_id:04d}.fpd1"
        assert path.read_bytes() == encode_fpd1(np.asarray(clean, "<f4"))
        if not records[image_id]["awgn"]:
            path = tmp_path / "noisy" / f"{image_id:04d}.fpd1"
            assert path.read_bytes() == encode_fpd1(np.asarray(noisy, "<f4"))


def test_returned_images_do_not_alias_the_scratch():
    cfg = small_config("no-awgn")
    buffers = pair_buffers(cfg)
    clean, noisy, _ = generate_pair(cfg, SEED, 0, buffers)
    assert clean is buffers[0] and noisy is buffers[1]
    for scratch in buffers[2:]:
        assert not np.shares_memory(clean, scratch) and not np.shares_memory(noisy, scratch)
    clean, noisy, _ = generate_pair(cfg, SEED, 0)
    assert clean.flags.owndata and noisy.flags.owndata
    assert not np.shares_memory(clean, noisy)


def test_corpus_peak_memory_is_one_pair_of_buffers(tmp_path):
    """At 256^2, ``generate_corpus`` holds the pair's five float64 buffers,
    the float32 image being written, and small objects (half an image at
    most), under tracemalloc (numpy reports its buffers to it)."""
    cfg = SimulateConfig(count=4)
    image = cfg.height * cfg.width * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        generate_corpus(cfg, SEED, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 5 * image + image // 2 + image // 2
    assert peak <= bound, f"peak {peak / image:.2f} images, bound {bound / image:.2f}"
