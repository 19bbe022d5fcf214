"""The layer trace of bench/tracer.py wraps functions in src/ by name; each
must still exist, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_tracer_target_is_a_function_in_src():
    missing = [
        f"{module}.{func}"
        for module, funcs in tracer.TARGETS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"jkvkit.{module}"), func, None))
    ]
    assert missing == []


def test_the_polytope_caches_the_worker_reads_exist():
    """bench/worker.py:cache_counts reads cache_info() of both polytope
    caches for the hit ratios of `--trace 1`."""
    polytope = importlib.import_module("jkvkit.polytope")
    for name in ("_relint_cached", "_minimal_face_cached"):
        assert callable(getattr(getattr(polytope, name, None), "cache_info", None)), name
