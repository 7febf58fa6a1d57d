#!/usr/bin/env python3
"""Benchmark of the fringe-denoise pipeline, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates operations with and without spans recorded around
the library's calls, and reports the per-layer metrics (per traced
operation), the tracing overhead of traced against untraced operations and
the GEMM-ceiling probe.  Every operation's outputs are checked
outside the timed region, and once per run the library's network maths is
compared with a float64 reference (``bench/reference.py``); a failed check
counts as a failed operation.  The first run in a checkout also trains the
restore workload's checkpoint, which takes a few minutes.

The last line of standard output is the result as one JSON object; the
line before it records the environment and the run's details.
"""

from __future__ import annotations

import os
import sys

# One process, at most one BLAS thread per CPU it may run on; fixed before
# numpy loads its BLAS.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"  # scratch files and the trained restore checkpoint
if not (ROOT / "src" / "fringe_denoise").is_dir():
    sys.exit(f"error: {ROOT / 'src' / 'fringe_denoise'} not found; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from fringe_denoise import (  # noqa: E402
    checkpoint,
    cli,
    corpus,
    dataset,
    image_io,
    network,
    speckle,
    training,
)

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # kept out of tuning; re-check claimed gains on it
# Set-up runs at least SETUP_REPEATS times, then again while it has taken
# less than SETUP_SECONDS in all, up to SETUP_MAX_REPEATS; setup_s is the
# median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
MODULES = {
    "checkpoint": checkpoint,
    "cli": cli,
    "corpus": corpus,
    "dataset": dataset,
    "image_io": image_io,
    "network": network,
    "speckle": speckle,
    "training": training,
}


def git_revision() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }


def measure(workload, seconds: float, tracer=None):
    """Run operations for ``seconds``, and at least ``workload.min_ops`` of
    them; check each one after it ran.

    With a tracer, operations alternate traced and untraced in the order
    T U U T, repeated, so that slow drift affects both kinds alike, and at
    least one of each kind runs.  Returns (results of operations that
    returned, {index: problems} of failed operations, operations attempted).
    """
    points = tr.patch_points(MODULES) if tracer else ()
    min_ops = max(workload.min_ops, 2 if tracer else 1)
    results, failures = [], {}
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        traced = tracer is not None and i % 4 in (0, 3)
        try:
            inputs = workload.prepare_op(i)
            if traced:
                tracer.install(points)
            result = workload.run_op(i, inputs)
        except Exception:
            failures[i] = ["raised: " + traceback.format_exc(limit=-3)]
            result = None
        finally:
            if traced:
                tracer.uninstall()
        if result is not None:
            try:
                problems = workload.check_op(i, result)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=-3)]
            if problems:
                failures[i] = problems
            result["traced"] = traced
            results.append(result)
        i += 1
    return results, failures, i


def time_matmul(a_shape, b_shape, dtype, repeats: int = 3) -> float:
    """Median seconds of one ``np.matmul`` of fresh operands (after a warm call)."""
    rng = np.random.default_rng(0)
    a = rng.random(a_shape, dtype=dtype)
    b = rng.random(b_shape, dtype=dtype)
    np.matmul(a, b)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        np.matmul(a, b)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def gemm_ceiling(conv_shapes) -> dict:
    """Computed FLOPs and plain-GEMM seconds per conv direction.

    Forward is one GEMM of (M, C·k²) by (C·k², H·W) per sample; backward is
    the weight-gradient GEMM plus the adjoint convolution's GEMM, each with
    the forward's FLOPs.  Each distinct shape is timed once here, on the
    same machine and in the same process as the traced convolutions.
    """
    out = defaultdict(lambda: {"flops": 0.0, "ceiling_s": 0.0})
    for (direction, n, c, h, w, m, k, dtype), calls in conv_shapes.items():
        hw, kk = h * w, k * k
        if direction == "forward":
            gemms = [((m, c * kk), (n, c * kk, hw))]
        else:
            gemms = [((n, m, hw), (n, hw, c * kk)), ((c, m * kk), (n, m * kk, hw))]
        seconds = sum(time_matmul(a, b, np.dtype(dtype)) for a, b in gemms)
        out[direction]["flops"] += calls * len(gemms) * 2.0 * n * m * c * kk * hw
        out[direction]["ceiling_s"] += calls * seconds
    return out


def end_to_end_metrics(results: list[dict], setup_times) -> dict:
    """Items per second, median set-up time and peak RSS.

    Items per second is that of the run's fastest operation.  Other tenants
    of the host slow operations, in bursts and for minutes at a time, and
    the fastest operation is the one they slowed least; ``bench/README.md``
    compares its spread over runs with that of the median operation.
    """
    return {
        "items_per_s": (max(r["items"] / r["seconds"] for r in results), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, ops: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, per operation, from the ``ops`` traced operations."""
    metrics = {}
    for span in tr.SPANS:
        metrics[f"{span}.s"] = (tracer.busy[span] / ops, "s")
        metrics[f"{span}.self_s"] = (tracer.self_time[span] / ops, "s")
        metrics[f"{span}.calls"] = (tracer.calls[span] / ops, "count")
    for name in tr.BYTE_COUNTS:
        metrics[name] = (tracer.counts[name] / ops, "bytes")
    ceiling = gemm_ceiling(tracer.conv_shapes)
    for direction in ("forward", "backward"):
        span = f"layers.conv2d_{direction}"
        busy = tracer.busy[span]
        flops, ceiling_s = ceiling[direction]["flops"], ceiling[direction]["ceiling_s"]
        metrics[f"{span}.gflop_s"] = (flops / busy / 1e9 if busy else 0.0, "GFLOP/s")
        metrics[f"{span}.gemm_frac"] = (ceiling_s / busy if busy else 0.0, "ratio")
    metrics["network.train_cache_mb"] = (
        tracer.peaks.get("network.network_forward.train", 0.0),
        "MB",
    )
    root_busy = sum(tracer.busy[s] for s in tr.ROOTS)
    root_self = sum(tracer.self_time[s] for s in tr.ROOTS)
    metrics["trace.unattributed_frac"] = (root_self / root_busy if root_busy else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics


def ensure_model(smoke: bool) -> tuple[Path, float | None]:
    """The restore checkpoint, trained on the first run in a checkout.

    Training takes minutes, so it runs once and the checkpoint is kept in
    ``bench/.work``.  It runs in a child process, so that its memory does
    not count in this process's peak RSS, and is timed apart from set-up.
    Returns the checkpoint and the seconds spent training it (None if it
    was already there).
    """
    path = WORK / ("model-smoke.fpdc" if smoke else "model-desk.fpdc")
    if path.exists():
        return path, None
    t0 = perf_counter()
    argv = [sys.executable, __file__, "--build-model", str(path)] + ["--smoke"] * smoke
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return path, perf_counter() - t0


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    model, model_build_s = ensure_model(smoke)
    workload = wl.make_workload(workload_name, model, smoke=smoke)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        setup_times, failures, attempted = [], {}, 0
        rep = 0
        while rep < SETUP_REPEATS or (
            sum(setup_times) < SETUP_SECONDS and rep < SETUP_MAX_REPEATS
        ):
            workdir = tmp / f"setup{rep}"
            workdir.mkdir()
            t0 = perf_counter()
            warmup = workload.setup(workdir, seed)
            setup_times.append(perf_counter() - t0)
            if warmup is not None:
                attempted += 1
                problems = workload.check_op(-1, warmup)
                if problems:
                    failures[f"setup{rep}"] = problems
            rep += 1
        # The library against the float64 reference: one checked operation.
        problems = workload.check_library(np.random.default_rng(seed))
        attempted += 1
        if problems:
            failures["reference"] = problems
        tracer = tr.Tracer() if trace else None
        results, op_failures, ops = measure(workload, seconds, tracer)
        failures.update(op_failures)
        attempted += ops
        details = {
            "ops": len(results),
            "op_seconds": [r["seconds"] for r in results],
            "setup_seconds": setup_times,
            "model_build_seconds": model_build_s,
        }
        untraced_results = [r for r in results if not r["traced"]]
        details["stage_metrics"] = workload.stage_metrics(untraced_results)
        if trace:
            traced = [r["seconds"] for r in results if r["traced"]]
            untraced = [r["seconds"] for r in results if not r["traced"]]
            details["traced_ops"] = len(traced)
            details["traced_op_seconds_p50"] = statistics.median(traced)
            details["untraced_op_seconds_p50"] = statistics.median(untraced)
            metrics = layer_metrics(
                tracer, len(traced), statistics.median(traced), statistics.median(untraced)
            )
            for name, unit in wl.STAGE_UNITS.items():
                metrics[name] = (details["stage_metrics"].get(name, 0.0), unit)
        else:
            metrics = end_to_end_metrics(results, setup_times)
        details["problems"] = {str(k): v for k, v in failures.items()}
        return {
            "details": details,
            "result": {
                "correct": not failures and bool(results),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            },
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="smallest sizes, for the benchmark's own test"
    )
    parser.add_argument("--build-model", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build_model:
        wl.build_restore_model(Path(args.build_model), args.smoke)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "flops_and_bytes": "computed from array shapes and file sizes, not hardware counters",
        **out["details"],
    }
    print(json.dumps(info))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
