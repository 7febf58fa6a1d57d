"""Deterministic RNG derivation.

Every stream in the toolkit is derived from the master seed plus a small
namespaced key, so any artifact can be regenerated in isolation (e.g. one
corpus image) without replaying the streams that preceded it.  The
namespace values below are part of every artifact's bits.
"""

from __future__ import annotations

import numpy as np

NS_NETWORK = 0  # network init
NS_IMAGE = 1  # one corpus image, indexed by its id
NS_CORPUS = 2  # corpus-level draws
NS_SHUFFLE = 3  # one epoch's shuffle, indexed by the epoch
NS_HOLDOUT = 4  # the holdout split
NS_AWGN = 5  # white-noise augmentation of one image, indexed by its id


def derive_rng(master_seed: int, namespace: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(namespace, index))
    return np.random.default_rng(seq)
