"""The jkvkit benchmark.  Run from the root of a checkout:

    python3 bench/run.py --workload torus-certify --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: set-up time over several fresh
processes, then one fresh process that runs requests in a closed loop with
one caller for --seconds seconds.  --trace 1 measures the per-layer metrics:
a fixed number of requests, twice untraced and twice traced, each in a fresh
process; the two traced passes must do exactly the same work.

Every request's output is checked against bench/expected.json.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from tracer import TARGETS, span_name

SETUP_PROBES = 5

# The machine's speed drifts by more than half within minutes: other
# tenants share its cores, and process CPU time drifts with wall time.  So
# every timed process also times a reference slice (worker.reference_slice),
# and the end-to-end times are scaled to the speed at which one slice takes
# REFERENCE_SLICE_S: time * REFERENCE_SLICE_S / mean slice time.  The mean,
# because the machine switches between two speeds every few seconds and the
# median of the slice times jumps between them (bench/README.md).  Raw wall
# times are printed beside them.
REFERENCE_SLICE_S = 0.008
WORKER = workloads.BENCH_DIR / "worker.py"
WORK_DIR = workloads.ROOT / ".bench_build" / "jkvkit-bench"
TRACE_DIR = WORK_DIR / "traces"
# The CLI problem files, named by a digest of the code that generates them,
# so a checkout whose generator differs writes its own.
FILES_DIR = WORK_DIR / f"cli-files-{workloads.source_digest()}"


class BenchError(Exception):
    pass


def run_worker(mode: str, workload: str, seed: int, *extra: str, timeout: float) -> dict:
    """Run one worker process to completion; returns its result with
    "spawned", the parent's clock just before the process was started."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload, "--seed", str(seed)]
    cmd += ["--files-dir", str(FILES_DIR), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f}s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["spawned"] = spawned
    return result


def ensure_cli_files() -> None:
    """Write the CLI problem files unless FILES_DIR exists.  They go to a
    fresh directory that is then renamed, so FILES_DIR is always complete."""
    if FILES_DIR.is_dir():
        return
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        workloads.write_cli_files(tmp)
        tmp.rename(FILES_DIR)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def percentile_ms(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e3


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median, over fresh processes, of the time from process start until
    the first request is ready: (scaled, raw).  A first, unmeasured probe
    lets bytecode compilation happen once, as it does once per
    installation."""
    run_worker("setup", workload, seed, timeout=120)
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        r = run_worker("setup", workload, seed, timeout=120)
        raw.append(r["ready"] - r["spawned"])
        scaled.append(raw[-1] * REFERENCE_SLICE_S / r["slice_s"])
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    setup, setup_raw = setup_seconds(workload, seed)
    r = run_worker("timed", workload, seed, "--seconds", str(seconds), timeout=seconds + 120)
    lat = r["latencies"]
    scale = REFERENCE_SLICE_S / r["slice_s"]
    rps = (len(lat) - r["failed"]) / r["wall_s"]
    p50, p95 = statistics.median(lat) * 1e3, percentile_ms(lat, 95)
    metrics = {
        "requests_per_s": (rps / scale, "1/s"),
        "request_ms_p50": (p50 * scale, "ms"),
        "request_ms_p95": (p95 * scale, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    raw = {"requests_per_s": rps, "request_ms_p50": p50, "request_ms_p95": p95, "setup_s": setup_raw}
    sys.stderr.write(
        f"machine at {scale:.3f} of reference speed; raw wall-clock values: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
        + "\n"
    )
    return {"attempted": len(lat), "failed": r["failed"], "metrics": metrics}


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def work_counts(r: dict) -> dict:
    """Every deterministic work count of a traced pass."""
    counts = {f"{name}.calls": s["calls"] for name, s in r["spans"].items()}
    counts.update(r["caches"], certified=r["certified"], det_tries=r["det_tries"])
    return counts


def layer_metrics(r: dict, overhead_s: float) -> dict:
    spans = r["spans"]
    metrics = {}
    for module, funcs in TARGETS.items():
        for func in funcs:
            name = span_name(module, func)
            calls_name = name if name == "lp.pivots" else f"{name}.calls"
            metrics[calls_name] = (spans[name]["calls"], "count")
            metrics[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    c = r["caches"]
    metrics["polytope.relint_cache.hit_ratio"] = (
        ratio(c["relint_hits"], c["relint_hits"] + c["relint_misses"]),
        "ratio",
    )
    metrics["polytope.minimal_face_cache.hit_ratio"] = (
        ratio(c["minimal_face_hits"], c["minimal_face_hits"] + c["minimal_face_misses"]),
        "ratio",
    )
    metrics["torus.jkv_certify.ok_ratio"] = (
        ratio(r["certified"], spans["torus.jkv_certify"]["calls"]),
        "ratio",
    )
    metrics["gln.rational_conjugacy.det_tries"] = (r["det_tries"], "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def per_layer(workload: str, seed: int) -> dict:
    """Untraced, traced, traced, untraced: the overhead compares the means of
    each pair, so a steady drift in machine speed cancels."""
    count = str(workloads.WORKLOADS[workload].fixed_requests)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_out = TRACE_DIR / f"{workload}-seed{seed}.json.gz"

    def fixed(*extra):
        return run_worker("fixed", workload, seed, "--count", count, *extra, timeout=170)

    untraced = [fixed()]
    traced = [fixed("--trace-out", str(trace_out)) for _ in range(2)]
    untraced.append(fixed())
    first, second = (work_counts(p) for p in traced)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        raise BenchError(f"work counts differ between two traced passes at seed {seed}: {diff}")
    overhead = statistics.mean(p["wall_s"] for p in traced) - statistics.mean(p["wall_s"] for p in untraced)
    return {
        "attempted": len(traced[0]["latencies"]),
        "failed": max(p["failed"] for p in untraced + traced),
        "metrics": layer_metrics(traced[0], overhead),
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workloads.use_checkout_source()
    if not workloads.EXPECTED_PATH.is_file():
        sys.stderr.write(f"error: {workloads.EXPECTED_PATH} is missing\n")
        return 2
    try:
        if any(k in workloads.CLI_KINDS for k in workloads.WORKLOADS[args.workload].kinds):
            ensure_cli_files()
        if args.trace:
            out = per_layer(args.workload, args.seed)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"attempted {out['attempted']}, failed {out['failed']}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
