"""Smoke test of the benchmark itself, at its smallest sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

import run  # bench/run.py; pytest puts this directory on sys.path

# run put src/ and tests/ on sys.path.
import reference  # noqa: E402
from fringe_denoise.network import build_network, iter_tensors  # noqa: E402
from oracles import finite_diff_grad, grads_close, naive_conv2d, rel_err  # noqa: E402
from workloads import SMOKE_NET  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        assert run.main(argv + ["--smoke"]) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    details, result = invoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert details["problems"] == {}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["environment"]["blas_threads"] <= details["environment"]["nproc"]


def test_reference_matches_oracles():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    g = rng.standard_normal((2, 4, 6, 5))
    assert rel_err(reference.conv(x, w, b), naive_conv2d(x, w, b)) < 1e-12
    grad_x, grad_w, grad_b = reference.conv_backward(x, w, g)
    for got, wrt in ((grad_x, x), (grad_w, w), (grad_b, b)):
        expect = finite_diff_grad(lambda _: float((reference.conv(x, w, b) * g).sum()), wrt)
        assert grads_close(got, expect, 1e-6)

    params = build_network(SMOKE_NET, rng, np.float64)
    z = rng.standard_normal((2, 1, 5, 5))
    clean = rng.standard_normal((2, 1, 5, 5))

    def loss(_):
        return reference.loss(reference.forward(z, params, True)[0], z, clean)[0]

    v, tape = reference.forward(z, params, True)
    grads = reference.backward(tape, params, reference.loss(v, z, clean)[1])
    for name, arr in iter_tensors(params, trainable_only=True):
        assert grads_close(grads[name], finite_diff_grad(loss, arr), 1e-6), name


def _off_by_one_denoise(monkeypatch):
    original = run.cli.run_denoise
    monkeypatch.setattr(run.cli, "run_denoise", lambda *a, **k: original(*a, **k) + 1.0)


def _noisy_loss(monkeypatch):
    original = run.training.euclid_loss
    rng = np.random.default_rng()

    def euclid_loss(*args):
        loss, grad = original(*args)
        return loss + rng.random(), grad

    monkeypatch.setattr(run.training, "euclid_loss", euclid_loss)


def _shifted_conv(monkeypatch):
    original = run.network.conv2d_forward
    monkeypatch.setattr(
        run.network, "conv2d_forward", lambda *a, **k: np.roll(original(*a, **k), 1, axis=-1)
    )


def _flipped_weight_grad_in_float32(monkeypatch):
    """Wrong in float32 only, as a float32 fast path might be."""
    original = run.network.conv2d_backward

    def conv2d_backward(x, *args, **kwargs):
        grad_x, grad_w, grad_b = original(x, *args, **kwargs)
        if x.dtype == np.float32:
            grad_w = grad_w[:, :, ::-1, ::-1]
        return grad_x, grad_w, grad_b

    monkeypatch.setattr(run.network, "conv2d_backward", conv2d_backward)


def _batchnorm_backward_without_mean(monkeypatch):
    original = run.network.batchnorm_backward

    def batchnorm_backward(cache, grad_out):
        grad_x, grad_gamma, grad_beta = original(cache, grad_out)
        return grad_x + grad_out.mean(axis=(0, 2, 3), keepdims=True), grad_gamma, grad_beta

    monkeypatch.setattr(run.network, "batchnorm_backward", batchnorm_backward)


def _adam_double_step(monkeypatch):
    original = run.training.adam_step

    def adam_step(params, grads, state, config):
        lr = 2 * config.learning_rate
        original(params, grads, state, dataclasses.replace(config, learning_rate=lr))

    monkeypatch.setattr(run.training, "adam_step", adam_step)


def _corrupt_packed_file(monkeypatch):
    original = run.cli.write_packed

    def write_packed(path, dataset):
        original(path, dataset)
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            last = fh.read(1)
            fh.seek(-1, 2)
            fh.write(bytes([last[0] ^ 0x40]))

    monkeypatch.setattr(run.cli, "write_packed", write_packed)


@pytest.mark.parametrize(
    "workload, sabotage",
    [
        ("restore-256", _off_by_one_denoise),
        ("restore-256", _shifted_conv),
        ("train-desk", _noisy_loss),
        ("train-desk", _flipped_weight_grad_in_float32),
        ("train-desk", _adam_double_step),
        ("train-paper", _batchnorm_backward_without_mean),
        ("simulate-pack", _corrupt_packed_file),
    ],
)
def test_checks_catch_wrong_outputs(monkeypatch, workload, sabotage):
    sabotage(monkeypatch)
    details, result = invoke(workload, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1 and details["problems"]
