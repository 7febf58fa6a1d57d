"""Float64 reference of the network's maths, to check the library's kernels.

A fast path that is wrong but deterministic passes every check that only
compares the library with itself (two ``train()`` calls, CLI against
in-process ``denoise``).  So once per run, outside the timed region, the
benchmark compares the library's forward pass, gradients and ADAM update
with the code here.  None of it calls the library's kernels: the
convolution sums k² shifted channel contractions in float64, and batch
norm, the leaky rectifier, the loss and ADAM follow their formulas.
``bench/test_bench.py`` checks this reference against
``tests/oracles.naive_conv2d`` and central differences.
"""

from __future__ import annotations

import copy

import numpy as np

from oracles import grads_close, rel_err

AXES = (0, 2, 3)


def _c(v: np.ndarray) -> np.ndarray:
    """A per-channel vector, broadcast over (N, C, H, W)."""
    return v[None, :, None, None]


def _f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 convolution (cross-correlation) with bias."""
    n, _, h, width = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, w.shape[0], h, width)) + _c(b)
    for u in range(k):
        for v in range(k):
            out += np.einsum(
                "mc,nchw->nmhw", w[:, :, u, v], xp[:, :, u : u + h, v : v + width],
                optimize=True,
            )
    return out


def conv_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """(grad_x, grad_w, grad_b) of ``conv`` for the output gradient ``g``."""
    _, _, h, width = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gxp = np.zeros_like(xp)
    gw = np.empty_like(w)
    for u in range(k):
        for v in range(k):
            window = (slice(None), slice(None), slice(u, u + h), slice(v, v + width))
            gw[:, :, u, v] = np.einsum("nmhw,nchw->mc", g, xp[window], optimize=True)
            gxp[window] += np.einsum("mc,nmhw->nchw", w[:, :, u, v], g, optimize=True)
    return gxp[:, :, p : p + h, p : p + width], gw, g.sum(axis=AXES)


def forward(z: np.ndarray, params, train: bool):
    """Noise estimate of the noise-chain network, and the tape for ``backward``.

    ``train`` normalizes with batch statistics (population variance), as
    TRAIN mode does; otherwise with the running statistics.
    """
    x = _f64(z)
    tape = []
    for stage in params.layers:
        for layer in stage:
            conv_in = x
            w = _f64(layer.conv.weights)
            pre = conv(x, w, _f64(layer.conv.bias))
            norm = None
            if layer.bn is not None:
                bn = layer.bn
                if train:
                    mean, var = pre.mean(axis=AXES), pre.var(axis=AXES)
                else:
                    mean, var = _f64(bn.running_mean), _f64(bn.running_var)
                inv_std = 1.0 / np.sqrt(var + bn.epsilon)
                x_hat = (pre - _c(mean)) * _c(inv_std)
                norm = (x_hat, inv_std, _f64(bn.gamma))
                pre = _c(_f64(bn.gamma)) * x_hat + _c(_f64(bn.beta))
            act_in = pre
            x = pre if layer.alpha is None else np.where(pre > 0, pre, layer.alpha * pre)
            tape.append((conv_in, w, norm, act_in))
    return x, tape


def backward(tape, params, g: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of every trainable tensor, keyed like ``iter_tensors``."""
    grads = {}
    named = [
        (f"s{s:02d}.l{d:02d}", layer)
        for s, stage in enumerate(params.layers)
        for d, layer in enumerate(stage)
    ]
    for (prefix, layer), (conv_in, w, norm, act_in) in zip(reversed(named), reversed(tape)):
        if layer.alpha is not None:
            g = g * np.where(act_in >= 0, 1.0, layer.alpha)
        if norm is not None:
            x_hat, inv_std, gamma = norm
            grads[f"{prefix}.bn.gamma"] = (g * x_hat).sum(axis=AXES)
            grads[f"{prefix}.bn.beta"] = g.sum(axis=AXES)
            gh = g * _c(gamma)
            g = _c(inv_std) * (
                gh - _c(gh.mean(axis=AXES)) - x_hat * _c((gh * x_hat).mean(axis=AXES))
            )
        g, grads[f"{prefix}.conv.weights"], grads[f"{prefix}.conv.bias"] = conv_backward(
            conv_in, w, g
        )
    return grads


def loss(v: np.ndarray, z: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Half mean-per-sample squared error of the residual, and its gradient."""
    diff = v - (_f64(z) - _f64(x))
    return float((diff**2).sum()) / (2 * len(v)), diff / len(v)


def adam(tensors: dict, grad_steps: list[dict], lr, beta1, beta2, eps) -> dict:
    """``tensors`` after one bias-corrected ADAM update per gradient dict."""
    out = {k: _f64(a) for k, a in tensors.items()}
    m = {k: np.zeros_like(a) for k, a in out.items()}
    v = {k: np.zeros_like(a) for k, a in out.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for k in out:
            g = _f64(grads[k])
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1**t)
            v_hat = v[k] / (1 - beta2**t)
            out[k] = out[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def check_library(network, training, params, config, dtype, shape, train: bool, rng):
    """Problems found comparing the library with the reference on one batch.

    ``network`` and ``training`` are the library modules, called as the
    workloads call them, on random inputs of ``shape`` and ``dtype``;
    ``params`` is left unchanged.  Compares the forward pass (INFER, and
    TRAIN if ``train``), and with ``train`` also the loss, every gradient,
    and two ADAM steps.  On the desk and paper networks the largest
    relative errors seen were 3e-13 in float64 and 3e-5 in float32 (with
    no kink, see ``TrainWorkload.check_library``); the tolerances leave
    room above those and stay far below the error of a wrong index, a
    missing term or a wrong scale.
    """
    tol = 1e-9 if dtype == np.float64 else 1e-3
    z = rng.standard_normal(shape).astype(dtype)
    x = rng.standard_normal(shape).astype(dtype)
    problems = []
    for mode in ("infer", "train") if train else ("infer",):
        lib_params = copy.deepcopy(params)  # TRAIN mode updates running statistics
        v, caches = network.network_forward(z, lib_params, config, mode=mode)
        ref_v, tape = forward(z, params, train=mode == "train")
        err = rel_err(v, ref_v)
        if not err <= tol:
            problems.append(f"network_forward ({mode}) differs from the reference: {err:.2e}")
    if not train:
        return problems
    # v, caches, ref_v and tape are from the TRAIN forward, run last.
    lib_loss, grad_v = training.euclid_loss(v, z, x)
    ref_loss, ref_grad_v = loss(ref_v, z, x)
    if not abs(lib_loss - ref_loss) <= tol * ref_loss:
        problems.append(f"euclid_loss {lib_loss!r} differs from the reference {ref_loss!r}")
    grads = network.network_backward(caches, grad_v, lib_params, config)
    ref_grads = backward(tape, params, ref_grad_v)
    # Conv biases ahead of batch norm have a zero gradient; the floor keeps
    # float32 rounding on them from counting as an error.
    floor = tol * max(float(np.linalg.norm(g)) for g in ref_grads.values())
    for name, ref in ref_grads.items():
        if name not in grads or not grads_close(grads[name], ref, tol, floor):
            problems.append(f"network_backward gradient {name} differs from the reference")
    cfg = training.TrainConfig()
    start = {k: _f64(a) for k, a in network.iter_tensors(params, trainable_only=True)}
    steps = [grads, {k: -0.5 * g for k, g in grads.items()}]
    state = training.AdamState.for_params(lib_params)
    for step in steps:
        training.adam_step(lib_params, step, state, cfg)
    expect = adam(start, steps, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    after = dict(network.iter_tensors(lib_params, trainable_only=True))
    for name, ref in expect.items():
        if not rel_err(_f64(after[name]) - start[name], ref - start[name]) <= tol:
            problems.append(f"adam_step update of {name} differs from the reference")
    return problems
