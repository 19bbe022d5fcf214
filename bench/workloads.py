"""Workloads, request lists and request execution for the jkvkit benchmark.

A request is one unit of work a user asks for: one suite instance through
``suites.run_suite`` (the entry ``jkvkit verify`` calls), or one in-process
``cli.main(argv)`` call on a problem file written from the workload seed.

Each request kind draws its inputs from a fixed pool of instance ids.
``expected.json`` holds, for every pool entry, the digest of the output it
produced when the pool was generated.  A workload seed shuffles each pool;
requests then follow a fixed rotation of kinds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

# Pool sizes: several times the requests one 30 s run completes at the
# commit that defined the benchmark, so a faster program still sees new
# inputs.  A run that exhausts a pool starts it over, and the caches then
# turn hot.
POOL_SIZES = {
    "jkv-survey": 6000,
    "semisimple": 20000,
    "limit-conjugacy": 1500,
    "jkv-gln": 1500,
}
CLI_POOL_SIZE = 800

# FuzzConfig fields that differ from the defaults, per suite kind.  The
# jkv-survey suite stops at rank 3: a rank-4 instance costs 6 to 7 times a
# rank-3 one (2401 box cocharacters against 343), so at the default rank
# bound a quarter of the instances make four fifths of the time, and the
# p50 and p95 of a 30 s run move by about a quarter from seed to seed.
# The matrix suites stop at size 3: at the default size bound the fast half
# of the instances (size 2, and size 3 of jkv-gln, under 18 ms) and the slow
# half (30 ms to 360 ms) meet at the median, so the p50 of a 30 s run jumped
# between about 16 and 30 ms from seed to seed (quartile spread 0.33 over
# ten seeds).  At size 3 the median falls inside the middle cluster.
SUITE_OPTIONS = {
    "jkv-survey": {"max_rank": 3},
    "limit-conjugacy": {"max_size": 3},
    "jkv-gln": {"max_size": 3},
}

# The CLI rotation: (kind, argv template, problem shape).  "{a}" and "{b}"
# are the problem files of the instance.
CLI_KINDS = {
    "cli-jkv": (["jkv", "torus", "--file", "{a}"], "torus"),
    "cli-survey": (["survey", "torus", "--file", "{a}", "--box", "2"], "torus"),
    "cli-lambda-min": (["lambda-min", "torus", "--file", "{a}", "--box", "2"], "torus"),
    "cli-semisimple-torus": (["semisimple", "torus", "--file", "{a}"], "torus"),
    "cli-orbit-eq": (["orbit-eq", "torus", "--file", "{a}", "--file2", "{b}"], "orbit"),
    "cli-jordan-chevalley": (["jordan-chevalley", "--file", "{a}"], "matrix"),
    "cli-semisimple-gln": (["semisimple", "gln", "--file", "{a}"], "matrix"),
    "cli-conjugacy": (["conjugacy", "--file", "{a}"], "pair"),
}
for _kind in CLI_KINDS:
    POOL_SIZES[_kind] = CLI_POOL_SIZE
# Exit codes of cli.main that answer the question asked: 0, and the
# verdicts 1 and 3.  Any other code means the program failed.
CLI_VERDICT_CODES = (0, 1, 3)
# Pool entries on which the program fails at the commit that defined the
# benchmark.  A workload must be one on which no request fails, so these
# are left out of the request order; test_bench.py runs each of them as a
# strict xfail, so a fix shows there and the entry can come back.
#   cli-orbit-eq 115: same_orbit returns a witness with thousands of
#   digits, and printing it exceeds Python's int-to-str limit (exit 2).
KNOWN_FAILURES = {"cli-orbit-eq": (115,)}


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in BENCHMARK.json and README.md."""

    kinds: tuple[str, ...]
    # Requests in one traced pass.  Fixed, so work counts compare across
    # runs and machines at one seed.
    fixed_requests: int
    # Requests after which a timed run reads its peak RSS: a little below
    # the fewest any 30 s run completed at the commit that defined the
    # benchmark.  Fixed, because the caches grow with every request and a
    # timed run does more requests on a faster machine or program.
    rss_requests: int


WORKLOADS = {
    "torus-certify": Workload(("jkv-survey",), 120, 680),
    "relint-cold": Workload(("semisimple",), 600, 4200),
    "matrix-conjugacy": Workload(("limit-conjugacy", "jkv-gln"), 100, 700),
    "cli-files": Workload(tuple(CLI_KINDS), 300, 2100),
}


def use_checkout_source() -> None:
    """Import jkvkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "jkvkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no jkvkit source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import jkvkit

    if Path(jkvkit.__file__).resolve().parent != src / "jkvkit":
        raise SystemExit(f"error: jkvkit was imported from {jkvkit.__file__}, not {src}")


@dataclass
class Request:
    kind: str
    instance: int
    expected: str


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def build_requests(workload: str, seed: int, expected: dict) -> list[Request]:
    """One pass over every pool entry of the workload's kinds, in request
    order, leaving out KNOWN_FAILURES."""
    kinds = WORKLOADS[workload].kinds
    orders = {}
    for kind in kinds:
        rng = random.Random(f"{workload}:{seed}:{kind}")
        orders[kind] = list(range(POOL_SIZES[kind]))
        rng.shuffle(orders[kind])
        orders[kind] = [i for i in orders[kind] if i not in KNOWN_FAILURES.get(kind, ())]
    out = []
    for j in range(min(len(o) for o in orders.values())):
        for kind in kinds:
            idx = orders[kind][j]
            out.append(Request(kind, idx, expected[kind][8 * idx : 8 * idx + 8]))
    return out


# ---------------------------------------------------------------------------
# Inputs


def cli_problem(kind: str, instance: int) -> list[dict]:
    """The problem file objects of one CLI pool entry."""
    from jkvkit import oracles
    from jkvkit.oracles import FuzzConfig
    from jkvkit.ratlinalg import qinverse, qmul
    from jkvkit.serialize import gln_problem_to_json, matrix_to_json, torus_problem_to_json
    from jkvkit.torus import GroupElement, act

    shape = CLI_KINDS[kind][1]
    rng = random.Random(f"{kind}:{instance}")
    if shape in ("torus", "orbit"):
        rep, v = oracles.sample_torus_instance(rng, FuzzConfig())
        files = [torus_problem_to_json(rep, v)]
        if shape == "orbit":
            torus = tuple(oracles.random_nonzero_fraction(rng, 5) for _ in range(rep.rank))
            finite = rng.randrange(len(rep.finite.elements)) if rep.finite else None
            w = act(rep, GroupElement(torus, finite), v)
            files.append(torus_problem_to_json(rep, w))
        return files
    n = rng.randint(2, 4)
    x, _, _ = oracles.sample_rational_spectrum_matrix(rng, n)
    if shape == "matrix":
        return [gln_problem_to_json(x)]
    h = oracles.sample_invertible_matrix(rng, n)
    y = qmul(qmul(h, x), qinverse(h))
    return [{"n": n, "x": matrix_to_json(x), "y": matrix_to_json(y)}]


def cli_paths(files_dir: Path, kind: str, instance: int) -> list[Path]:
    n = 2 if CLI_KINDS[kind][1] == "orbit" else 1
    return [files_dir / f"{kind}-{instance}-{k}.json" for k in range(n)]


def write_cli_files(files_dir: Path) -> None:
    """Write the problem files of every CLI pool entry into files_dir."""
    files_dir.mkdir(parents=True, exist_ok=True)
    for kind in CLI_KINDS:
        for instance in range(POOL_SIZES[kind]):
            objs = cli_problem(kind, instance)
            for path, obj in zip(cli_paths(files_dir, kind, instance), objs):
                path.write_text(json.dumps(obj), encoding="utf-8")


def source_digest() -> str:
    """Digest of the code that generates the CLI problem files: every file
    of src/jkvkit and this module."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jkvkit").rglob("*.py")) + [Path(__file__).resolve()]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cli_argv(files_dir: Path, req: Request) -> list[str]:
    paths = [str(p) for p in cli_paths(files_dir, req.kind, req.instance)]
    template = CLI_KINDS[req.kind][0]
    return [arg.format(a=paths[0], b=paths[-1]) for arg in template]


# ---------------------------------------------------------------------------
# Execution


def suite_config(kind: str, instance: int):
    from jkvkit.oracles import FuzzConfig

    return FuzzConfig(seed=instance, count=1, **SUITE_OPTIONS.get(kind, {}))


class RequestRunner:
    """Runs requests and checks each output against its expected digest."""

    def __init__(self, files_dir: Path | None):
        from jkvkit import cli, suites

        self.files_dir = files_dir
        self._cli = cli
        self._suites = suites

    def call(self, req: Request):
        """Do the work of one request; returns its raw output."""
        if req.kind in CLI_KINDS:
            argv = cli_argv(self.files_dir, req)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._cli.main(argv)
            return code, out.getvalue()
        return self._suites.run_suite(req.kind, suite_config(req.kind, req.instance))

    def outcome(self, kind: str, output) -> tuple[str, bool]:
        """(digest, passed) of a request's output.  CLI exit codes 1 and 3
        are verdicts; any code other than 0, 1 or 3 is a failure, because
        every pool input is valid."""
        if kind in CLI_KINDS:
            code, stdout = output
            d = digest(f"{code}\n".encode() + stdout.encode())
            return d, code in CLI_VERDICT_CODES
        failures = [[f.index, f.clause, f.payload] for f in output.failures]
        body = {"passed": output.passed, "instances": output.instances, "failures": failures}
        return digest(json.dumps(body, sort_keys=True).encode()), output.passed

    def check(self, req: Request, output) -> bool:
        """Whether the output passed and has the expected digest."""
        d, passed = self.outcome(req.kind, output)
        return passed and d == req.expected
