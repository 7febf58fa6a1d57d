"""Span tracer for the benchmark.

Spans are recorded only from benchmark code: ``Tracer.install`` replaces a
library function by a timing wrapper in the namespace where its caller
looks it up, and ``uninstall`` puts the original back.  Wrapping
``conv2d_forward`` as bound in ``network`` (not in ``layers``) therefore
times the network's own convolutions and leaves the adjoint convolution
that ``conv2d_backward`` runs internally inside the backward span.

For each span name the tracer keeps busy time (sum of span durations),
self time (busy time minus the time of spans opened inside it) and the
call count.  Hooks add counts measured where the work happens: bytes
moved, cached-tensor bytes, and the GEMM shapes of every convolution.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # extra per-span counters, e.g. bytes
        self.peaks: dict[str, float] = {}
        self.conv_shapes: Counter = Counter()  # (direction, n, c, h, w, m, k, dtype)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, hook=None):
        """``name`` is a span name, or a function of (args, kwargs) giving one."""
        tracer = self

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            children = [0.0]
            tracer._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer.busy[span] += dt
                tracer.self_time[span] += dt - children[0]
                tracer.calls[span] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if hook is not None:
                hook(tracer, span, args, kwargs, result)
            return result

        return traced

    def install(self, points) -> None:
        """Patch every (owner, attribute, span name, hook) point."""
        for owner, attr, name, hook in points:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --- hooks -------------------------------------------------------------------


def file_bytes(index, key):
    """Hook adding the size of the file named by argument ``index``/``key``."""

    def hook(tracer, span, args, kwargs, result):
        path = kwargs[key] if key in kwargs else args[index]
        tracer.counts[span + ".bytes"] += os.path.getsize(path)

    return hook


def result_bytes(tracer, span, args, kwargs, result):
    tracer.counts[span + ".bytes"] += sum(a.nbytes for a in result)


def conv_shape(direction):
    """Hook counting the convolution's shape, for FLOPs and the GEMM probe."""

    def hook(tracer, span, args, kwargs, result):
        x, params = args[0], args[1]
        n, c, h, w = x.shape
        m, _, k, _ = params.weights.shape
        tracer.conv_shapes[(direction, n, c, h, w, m, k, x.dtype.str)] += 1

    return hook


def train_cache_mb(tracer, span, args, kwargs, result):
    """Exact bytes of the distinct arrays held in the TRAIN-mode caches."""
    caches = result[1]
    if caches is None:
        return
    arrays = {}
    for conv_in, bn_cache, act_in in caches:
        for item in (conv_in, act_in, *(bn_cache or ())):
            if isinstance(item, np.ndarray):
                arrays[id(item)] = item.nbytes
    mb = sum(arrays.values()) / 2**20
    tracer.peaks[span] = max(tracer.peaks.get(span, 0.0), mb)


def forward_mode(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "infer")
    return f"network.network_forward.{mode}"


def patch_points(fd) -> list:
    """Every traced call site, as (owner, attribute, span name, hook).

    ``fd`` maps module names to the imported ``fringe_denoise`` modules.
    A function looked up at call time by more than one module is patched in
    each of them under one span name.
    """
    cli, network, training = fd["cli"], fd["network"], fd["training"]
    corpus, checkpoint = fd["corpus"], fd["checkpoint"]
    packed = fd["dataset"].PackedDataset
    read_bytes = file_bytes(0, "path")
    points = [
        (network, "conv2d_forward", "layers.conv2d_forward", conv_shape("forward")),
        (network, "conv2d_backward", "layers.conv2d_backward", conv_shape("backward")),
        (network, "batchnorm_forward", "layers.batchnorm_forward", None),
        (network, "batchnorm_backward", "layers.batchnorm_backward", None),
        (network, "leaky_relu_forward", "layers.leaky_relu_forward", None),
        (network, "leaky_relu_backward", "layers.leaky_relu_backward", None),
        (network, "network_forward", forward_mode, None),
        (training, "network_forward", forward_mode, train_cache_mb),
        (training, "network_backward", "network.network_backward", None),
        (training, "euclid_loss", "training.euclid_loss", None),
        (training, "adam_step", "training.adam_step", None),
        (training, "evaluate_patches", "training.evaluate_patches", None),
        (training, "ssim_mean", "quality.ssim_mean", None),
        (training, "train", "training.train", None),
        # train() imports these from checkpoint at call time.
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", file_bytes(0, "path")),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", read_bytes),
        (packed, "__getitem__", "dataset.PackedDataset.getitem", result_bytes),
        (cli, "load_checkpoint", "checkpoint.load_checkpoint", read_bytes),
        (cli, "read_image", "image_io.read_image", read_bytes),
        # load_corpus imports read_image from image_io at call time.
        (fd["image_io"], "read_image", "image_io.read_image", read_bytes),
        (cli, "write_image", "image_io.write_image", file_bytes(1, "path")),
        (corpus, "write_image", "image_io.write_image", file_bytes(1, "path")),
        (cli, "ssim_mean", "quality.ssim_mean", None),
        (cli, "binarize", "quality.binarize", None),
        (cli, "thin", "quality.thin", None),
        (cli, "normalize_to_range", "speckle.normalize_to_range", None),
        (cli, "build_dataset", "dataset.build_dataset", None),
        (cli, "write_packed", "dataset.write_packed", None),
        (cli, "sha256_file", "cli.sha256_file", read_bytes),
        (cli, "cli_dispatch", "cli.cli_dispatch", None),
        (corpus, "generate_pair", "corpus.generate_pair", None),
        (corpus, "render_clean", "speckle.render_clean", None),
        (corpus, "render_noisy", "speckle.render_noisy", None),
        (corpus, "normalize_to_range", "speckle.normalize_to_range", None),
        (fd["speckle"], "phase_grid", "phase.phase_grid", None),
    ]
    return points


SPANS = (
    "layers.conv2d_forward",
    "layers.conv2d_backward",
    "layers.batchnorm_forward",
    "layers.batchnorm_backward",
    "layers.leaky_relu_forward",
    "layers.leaky_relu_backward",
    "network.network_forward.train",
    "network.network_forward.infer",
    "network.network_backward",
    "training.train",
    "training.euclid_loss",
    "training.adam_step",
    "training.evaluate_patches",
    "dataset.PackedDataset.getitem",
    "dataset.write_packed",
    "dataset.build_dataset",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "quality.ssim_mean",
    "quality.binarize",
    "quality.thin",
    "image_io.read_image",
    "image_io.write_image",
    "corpus.generate_pair",
    "speckle.render_clean",
    "speckle.render_noisy",
    "speckle.normalize_to_range",
    "phase.phase_grid",
    "cli.sha256_file",
    "cli.cli_dispatch",
)

BYTE_COUNTS = (
    "dataset.PackedDataset.getitem.bytes",
    "checkpoint.save_checkpoint.bytes",
    "checkpoint.load_checkpoint.bytes",
    "image_io.read_image.bytes",
    "image_io.write_image.bytes",
    "cli.sha256_file.bytes",
)

# Spans that wrap a whole user-level call; their self time is the part of
# that call's wall time that no named child span accounts for.
ROOTS = ("training.train", "cli.cli_dispatch")
