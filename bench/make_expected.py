"""Regenerate bench/expected.json: the output digest of every pool entry
of every request kind, all from this checkout.

Run from the repository root, at a commit whose outputs are the reference:

    python3 bench/make_expected.py

Pool entries whose output is a failure are listed on stderr; their digests
are written all the same, and the benchmark counts them as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import ROOT, use_checkout_source


def generate(kind: str, files_dir: Path) -> str:
    runner = workloads.RequestRunner(files_dir)
    digests = []
    for instance in range(workloads.POOL_SIZES[kind]):
        d, passed = runner.outcome(kind, runner.call(workloads.Request(kind, instance, "")))
        if not passed:
            sys.stderr.write(f"{kind} entry {instance}: the output is a failure\n")
        digests.append(d)
    return "".join(digests)


def main() -> int:
    use_checkout_source()
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    files_dir = Path(tempfile.mkdtemp(dir=build))
    expected = {}
    try:
        workloads.write_cli_files(files_dir)
        for kind in workloads.POOL_SIZES:
            start = time.perf_counter()
            expected[kind] = generate(kind, files_dir)
            print(f"{kind}: {workloads.POOL_SIZES[kind]} entries in {time.perf_counter() - start:.1f}s")
    finally:
        shutil.rmtree(files_dir)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items())))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
