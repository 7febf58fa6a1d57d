"""The benchmark patches library call sites by name and checks what the
library writes and computes; a renamed call site or an output its checks
refuse must fail here, in the fast suite, and not only in the slow
``bench/test_bench.py``."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_modules() -> dict:
    """The ``MODULES`` map of ``bench/run.py``, read from its source so that
    the runner's import-time set-up does not run here."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        targets = getattr(node, "targets", ())
        if [getattr(t, "id", None) for t in targets] == ["MODULES"]:
            names = {key.value: value.id for key, value in zip(node.value.keys, node.value.values)}
            return {k: importlib.import_module(f"fringe_denoise.{v}") for k, v in names.items()}
    raise AssertionError("bench/run.py defines no MODULES map")


def test_every_patch_point_resolves():
    points = load_tracer().patch_points(bench_modules())
    assert len(points) > 30
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in points
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"tracer patch points that no longer resolve: {missing}"


def test_every_workload_passes_its_checks_at_smoke_size(tmp_path, monkeypatch):
    """Set-up, the float64 reference check and two checked operations per
    workload, as ``bench/run.py --smoke`` runs them: packed read-back equal
    to the corpus windows, bit-identical ``train()`` calls, restored images
    equal to in-process ``denoise``."""
    for path in (BENCH, Path(__file__).parent):  # for bench/reference.py and tests/oracles.py
        monkeypatch.syspath_prepend(str(path))
    wl = importlib.import_module("workloads")
    model = tmp_path / "model.fpdc"
    wl.build_restore_model(model, smoke=True)
    problems = {}
    for name in wl.WORKLOADS:
        workload = wl.make_workload(name, model, smoke=True)
        workdir = tmp_path / name
        workdir.mkdir()
        warmup = workload.setup(workdir, 5)
        found = [] if warmup is None else workload.check_op(-1, warmup)
        found += workload.check_library(np.random.default_rng(5))
        for i in range(2):
            found += workload.check_op(i, workload.run_op(i, workload.prepare_op(i)))
        if found:
            problems[name] = found
    assert not problems
