"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads
from tracer import Tracer

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(section: str) -> set[str]:
    return {m["name"] for m in BENCHMARK[section]}


def bench_run(*args: str, cwd=workloads.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(workload, monkeypatch):
    small = dataclasses.replace(workloads.WORKLOADS[workload], fixed_requests=3)
    monkeypatch.setitem(workloads.WORKLOADS, workload, small)
    run.ensure_cli_files()
    out = run.per_layer(workload, 5)
    assert out["attempted"] == 3 and out["failed"] == 0
    assert set(out["metrics"]) == names("per_layer")


def test_no_wrapper_left_installed():
    from jkvkit import cli, suites  # noqa: F401  (every module is loaded before the snapshot)

    def snapshot():
        return {
            (mod.__name__, attr): value
            for mod in list(sys.modules.values())
            if mod is not None and mod.__name__.startswith("jkvkit")
            for attr, value in vars(mod).items()
        }

    before = snapshot()
    original_qmul = suites.qmul
    tracer = Tracer()
    tracer.install()
    try:
        assert suites.qmul is not original_qmul
        assert suites.qmul.__bench_original__ is original_qmul
        runner = workloads.RequestRunner(None)
        req = workloads.Request("jkv-gln", 0, "")
        tracer.run_request(0, runner.call, req)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__bench_original__") for v in after.values())
    summary = tracer.summary()
    assert summary["suites.run_suite"]["calls"] == 1
    assert summary["ratlinalg.qmul"]["calls"] > 0


def test_wrong_expected_digest_counts_as_failed():
    requests = workloads.build_requests("relint-cold", 1, workloads.load_expected())[:3]
    runner = workloads.RequestRunner(None)
    call = lambda i, req: runner.call(req)  # noqa: E731
    assert worker.run_loop(runner, requests, call, count=3)["failed"] == 0
    requests[1] = dataclasses.replace(requests[1], expected="00000000")
    assert worker.run_loop(runner, requests, call, count=3)["failed"] == 1


def test_cli_exit_code_other_than_a_verdict_counts_as_failed():
    runner = workloads.RequestRunner(None)
    for code, ok in ((0, True), (1, True), (3, True), (2, False)):
        output = (code, "{}\n")
        d, _ = runner.outcome("cli-jkv", output)
        assert runner.check(workloads.Request("cli-jkv", 0, d), output) is ok


@pytest.mark.xfail(strict=True, reason="known program defect; see KNOWN_FAILURES in workloads.py")
@pytest.mark.parametrize(
    "kind,instance", [(k, i) for k, ids in workloads.KNOWN_FAILURES.items() for i in ids]
)
def test_known_failure_still_fails(kind, instance):
    """Passes (and so fails, being strict) once the program is fixed: then
    take the entry out of KNOWN_FAILURES."""
    run.ensure_cli_files()
    runner = workloads.RequestRunner(run.FILES_DIR)
    expected = workloads.load_expected()[kind][8 * instance : 8 * instance + 8]
    req = workloads.Request(kind, instance, expected)
    assert runner.outcome(kind, runner.call(req))[1]


def test_known_failures_are_left_out():
    for workload, w in workloads.WORKLOADS.items():
        requests = workloads.build_requests(workload, 937838387, workloads.load_expected())
        for kind, ids in workloads.KNOWN_FAILURES.items():
            if kind in w.kinds:
                assert not any(r.kind == kind and r.instance in ids for r in requests)


def test_fails_without_the_program():
    """A directory that holds only BENCHMARK.json and bench/ gives an error
    exit and no result."""
    bare = run.WORK_DIR / "without-program"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(workloads.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("--workload", "relint-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
