"""The benchmark's tracer patches library call sites by name; a renamed or
moved call site must fail here, in the fast suite, and not only in the slow
``bench/test_bench.py``."""

import ast
import importlib
import importlib.util
from pathlib import Path

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
