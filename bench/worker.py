"""One benchmark process: set up, run requests in a closed loop with one
caller, and print a JSON result as the last line of stdout.

Started by run.py, one fresh process per pass, so the two 200k-entry LRU
caches in jkvkit.polytope start cold, as they do for every jkvkit
invocation.  Modes:

    setup                 set up and report when the first request was ready
    timed --seconds S     run requests until S seconds have passed
    fixed --count N       run the first N requests (--trace-out adds spans)

The setup and timed modes also time a fixed piece of pure-Python work, the
reference slice, so that run.py can scale their times to a reference
machine speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

workloads.use_checkout_source()


# How often the timed loop runs a reference slice between requests.
SLICE_EVERY_S = 0.25
SETUP_SLICES = 3


def reference_slice() -> float:
    """Seconds taken by a fixed piece of work that shares no code with
    jkvkit: small Fraction products and sums, tuples and a dict, as in the
    toolkit's exact arithmetic."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1500):
        q = Fraction(i % 13 + 1, i % 11 + 2)
        acc = acc * q + 1 if i % 16 else q
        table[(i % 17, i % 5)] = acc
    return perf_counter() - start


def cache_counts() -> dict[str, int]:
    from jkvkit import polytope

    out = {}
    for name, fn in (("relint", polytope._relint_cached), ("minimal_face", polytope._minimal_face_cached)):
        info = fn.cache_info()
        out[f"{name}_hits"], out[f"{name}_misses"] = info.hits, info.misses
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_loop(runner, requests, call, deadline=None, count=None, slice_every=None, rss_after=None):
    """Run requests in order (cycling), with a reference slice every
    slice_every seconds if given.  Returns latencies, failed, wall_s (which
    leaves out the slices), slices, and rss_mb: the peak RSS once rss_after
    requests have run, or at the end if fewer did."""
    latencies, slices = [], []
    failed = 0
    rss = None
    start = perf_counter()
    next_slice = start
    i = 0
    while (count is None or i < count) and (deadline is None or perf_counter() < deadline):
        if slice_every is not None and perf_counter() >= next_slice:
            slices.append(reference_slice())
            next_slice = perf_counter() + slice_every
        req = requests[i % len(requests)]
        t0 = perf_counter()
        try:
            output = call(i, req)
        except Exception:
            output = None
            if failed < 3:
                traceback.print_exc()
        latencies.append(perf_counter() - t0)
        if output is None or not runner.check(req, output):
            failed += 1
        i += 1
        if i == rss_after:
            rss = peak_rss_mb()
    return {
        "latencies": latencies,
        "failed": failed,
        "wall_s": perf_counter() - start - sum(slices),
        "slices": slices,
        "rss_mb": rss if rss is not None else peak_rss_mb(),
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "timed", "fixed"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--files-dir", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    requests = workloads.build_requests(args.workload, args.seed, workloads.load_expected())
    runner = workloads.RequestRunner(args.files_dir)
    ready = perf_counter()
    result = {"ready": ready}

    if args.mode == "setup":
        result["slice_s"] = statistics.mean(reference_slice() for _ in range(SETUP_SLICES))
    elif args.mode == "timed":
        loop = run_loop(
            runner,
            requests,
            lambda i, req: runner.call(req),
            deadline=ready + args.seconds,
            slice_every=SLICE_EVERY_S,
            rss_after=workloads.WORKLOADS[args.workload].rss_requests,
        )
        result.update(
            latencies=loop["latencies"],
            failed=loop["failed"],
            wall_s=loop["wall_s"],
            slice_s=statistics.mean(loop["slices"]),
            peak_rss_mb=loop["rss_mb"],
        )
    elif args.mode == "fixed":
        tracer = None
        call = lambda i, req: runner.call(req)  # noqa: E731
        if args.trace_out is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            call = lambda i, req: tracer.run_request(i, runner.call, req)  # noqa: E731
        before = cache_counts()
        try:
            loop = run_loop(runner, requests, call, count=args.count)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(latencies=loop["latencies"], failed=loop["failed"], wall_s=loop["wall_s"])
        if tracer is not None:
            after = cache_counts()
            result["caches"] = {k: after[k] - before[k] for k in after}
            result["spans"] = tracer.summary()
            result["certified"] = tracer.certified
            result["det_tries"] = tracer.child_calls("gln.rational_conjugacy", "ratlinalg.qdet")
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
