import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jkvkit import cli, gln, oracles
from jkvkit.cli import main
from jkvkit.oracles import FuzzConfig
from jkvkit.serialize import (
    FORMAT_VERSION,
    load_torus_problem,
    read_json,
    torus_problem_to_json,
    vector_to_json,
)
from jkvkit.torus import lambda_min, limit_survey

SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


@pytest.fixture
def torus_file(tmp_path):
    return write(
        tmp_path,
        "g.json",
        {
            "rank": 1,
            "weights": [{"chi": [-1], "dim": 1}, {"chi": [0], "dim": 1}, {"chi": [1], "dim": 1}],
            "vector": [
                {"chi": [0], "coords": ["2"]},
                {"chi": [1], "coords": ["3"]},
            ],
        },
    )


@pytest.fixture
def matrix_file(tmp_path):
    return write(tmp_path, "m.json", {"n": 2, "matrix": [["2", "1"], ["0", "2"]]})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(argv):
    """Exit code and stdout of the same command in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "jkvkit.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    return proc.returncode, proc.stdout


def test_limit_torus(capsys, torus_file):
    code, out, _ = run(capsys, ["limit", "torus", "--file", torus_file, "--cochar", "1"])
    data = json.loads(out)
    assert code == 0 and data["exists"]
    assert data["limit"] == [{"chi": [0], "coords": ["2"]}]
    assert data["format_version"] == 1
    code, out, _ = run(capsys, ["limit", "torus", "--file", torus_file, "--cochar", "-1"])
    assert code == 1 and not json.loads(out)["exists"]


def test_limit_gln(capsys, tmp_path, matrix_file):
    coch = write(tmp_path, "l.json", {"g": [["1", "0"], ["0", "1"]], "exponents": [1, 0]})
    code, out, _ = run(capsys, ["limit", "gln", "--file", matrix_file, "--cochar-file", coch])
    data = json.loads(out)
    assert code == 0
    assert data["limit"] == [["2", "0"], ["0", "2"]]


def test_limit_gln_rejects_a_bad_cocharacter_on_load(capsys, tmp_path, matrix_file):
    for g, exps, message in (
        ([["1", "0", "0"], ["0", "1", "0"]], [1, 0], "error: g must be a square matrix\n"),
        ([["1", "2"], ["2", "4"]], [1, 0], "error: matrix is singular\n"),
    ):
        coch = write(tmp_path, "l.json", {"g": g, "exponents": exps})
        argv = ["limit", "gln", "--file", matrix_file, "--cochar-file", coch]
        assert run(capsys, argv) == (2, "", message)


def test_semisimple_exit_codes(capsys, torus_file, matrix_file, tmp_path):
    code, out, _ = run(capsys, ["semisimple", "torus", "--file", torus_file])
    assert code == 1 and not json.loads(out)["semisimple"]
    ss = write(
        tmp_path,
        "ss.json",
        {
            "rank": 1,
            "weights": [{"chi": [-1], "dim": 1}, {"chi": [1], "dim": 1}],
            "vector": [{"chi": [-1], "coords": ["1"]}, {"chi": [1], "coords": ["1"]}],
        },
    )
    code, out, _ = run(capsys, ["semisimple", "torus", "--file", ss])
    data = json.loads(out)
    assert code == 0 and data["semisimple"]
    assert data["barycentric"] == {"-1": "1/2", "1": "1/2"}
    code, out, _ = run(capsys, ["semisimple", "gln", "--file", matrix_file])
    assert code == 1 and not json.loads(out)["semisimple"]


def test_nilpotent(capsys, tmp_path, torus_file):
    # the weight-0 component blocks every destabilizing cocharacter
    code, out, _ = run(capsys, ["nilpotent", "torus", "--file", torus_file])
    assert code == 1 and not json.loads(out)["nilpotent"]
    pure = write(
        tmp_path,
        "n.json",
        {
            "rank": 1,
            "weights": [{"chi": [0], "dim": 1}, {"chi": [1], "dim": 1}],
            "vector": [{"chi": [1], "coords": ["3"]}],
        },
    )
    code, out, _ = run(capsys, ["nilpotent", "torus", "--file", pure])
    data = json.loads(out)
    assert code == 0 and data["nilpotent"] and data["cocharacter"] == [1]
    code, out, _ = run(capsys, ["nilpotent", "torus", "--file", pure, "--fixed", "0"])
    assert code == 0 and json.loads(out)["nilpotent"]
    code, out, _ = run(
        capsys, ["nilpotent", "torus", "--file", pure, "--fixed", "1"]
    )
    assert code == 1 and not json.loads(out)["nilpotent"]



def test_nilpotent_names_a_fixed_weight_of_the_wrong_rank_a_weight(capsys, tmp_path):
    rank2 = write(
        tmp_path,
        "r2.json",
        {
            "rank": 2,
            "weights": [{"chi": [1, 0], "dim": 1}],
            "vector": [{"chi": [1, 0], "coords": ["1"]}],
        },
    )
    code, out, err = run(capsys, ["nilpotent", "torus", "--file", rank2, "--fixed", "1,2,3"])
    assert (code, out) == (2, "")
    assert err == "error: weight '1,2,3' has rank 3, expected 2\n"
    code, out, err = run(capsys, ["nilpotent", "torus", "--file", rank2, "--fixed", "1,x"])
    assert (code, out, err) == (2, "", "error: malformed weight '1,x'\n")

def test_jkv_and_certify(capsys, tmp_path, torus_file):
    code, out, _ = run(capsys, ["jkv", "torus", "--file", torus_file])
    data = json.loads(out)
    assert code == 0
    assert data["s"] == [{"chi": [0], "coords": ["2"]}]
    assert data["n"] == [{"chi": [1], "coords": ["3"]}]
    assert data["cocharacter"] == [1]
    assert all(data["clauses"].values())
    dec = write(
        tmp_path,
        "dec.json",
        {"s": data["s"], "n": data["n"], "cocharacter": data["cocharacter"]},
    )
    code, out, _ = run(
        capsys, ["certify-jkv", "torus", "--file", torus_file, "--decomposition", dec]
    )
    assert code == 0 and json.loads(out)["valid"]
    bad = write(
        tmp_path,
        "bad.json",
        {"s": [], "n": data["s"] + data["n"], "cocharacter": [0]},
    )
    code, out, _ = run(
        capsys, ["certify-jkv", "torus", "--file", torus_file, "--decomposition", bad]
    )
    assert code == 1 and not json.loads(out)["valid"]


def test_jkv_gln_and_certify(capsys, tmp_path, matrix_file):
    code, out, _ = run(capsys, ["jkv", "gln", "--file", matrix_file])
    data = json.loads(out)
    assert code == 0
    assert data["s"] == [["2", "0"], ["0", "2"]]
    dec = write(
        tmp_path,
        "decg.json",
        {"s": data["s"], "n": data["n"], "cocharacter": data["cocharacter"]},
    )
    code, out, _ = run(
        capsys, ["certify-jkv", "gln", "--file", matrix_file, "--decomposition", dec]
    )
    assert code == 0 and json.loads(out)["valid"]


def test_jkv_gln_certifies_without_eigenvalues(capsys, tmp_path):
    # [[A, I], [0, A]] with A = [[1, 2], [1, 1]] (eigenvalues 1 +- sqrt 2), the
    # same with R = [[0, -1], [1, 0]] (minimal polynomial (t^2 + 1)^2), and
    # [[p, 1], [0, p]] with p = 2^61 - 1, beyond any trial-division bound
    p = str(2**61 - 1)
    for name, matrix in [
        ("ns.json", [["1", "2", "1", "0"], ["1", "1", "0", "1"], ["0", "0", "1", "2"], ["0", "0", "1", "1"]]),
        ("rr.json", [["0", "-1", "1", "0"], ["1", "0", "0", "1"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]),
        ("pp.json", [[p, "1"], ["0", p]]),
    ]:
        f = write(tmp_path, name, {"n": len(matrix), "matrix": matrix})
        code, out, err = run(capsys, ["jkv", "gln", "--file", f])
        data = json.loads(out)
        assert (code, err) == (0, "")
        assert all(data["clauses"].values()) and len(data["clauses"]) == 6


def test_lambda_min(capsys, torus_file, tmp_path):
    code, out, _ = run(capsys, ["lambda-min", "torus", "--file", torus_file, "--box", "3"])
    data = json.loads(out)
    assert code == 0 and data["min_fixed_dim"] == 1 and data["witnesses"] == [[1]]
    tight = write(
        tmp_path,
        "tight.json",
        {
            "rank": 2,
            "weights": [{"chi": [5, 1], "dim": 1}, {"chi": [-4, -1], "dim": 1}],
            "vector": [
                {"chi": [5, 1], "coords": ["1"]},
                {"chi": [-4, -1], "coords": ["1"]},
            ],
        },
    )
    code, out, err = run(capsys, ["lambda-min", "torus", "--file", tight, "--box", "1"])
    assert code == 3 and "unsupported" in err


def test_orbit_eq(capsys, tmp_path, torus_file):
    other = write(
        tmp_path,
        "g2.json",
        {
            "rank": 1,
            "weights": [{"chi": [-1], "dim": 1}, {"chi": [0], "dim": 1}, {"chi": [1], "dim": 1}],
            "vector": [
                {"chi": [0], "coords": ["2"]},
                {"chi": [1], "coords": ["6"]},
            ],
        },
    )
    code, out, _ = run(capsys, ["orbit-eq", "torus", "--file", torus_file, "--file2", other])
    data = json.loads(out)
    assert code == 0 and data["same_orbit"] and data["witness"]["torus"] == ["2"]
    different = write(
        tmp_path,
        "g3.json",
        {
            "rank": 1,
            "weights": [{"chi": [-1], "dim": 1}, {"chi": [0], "dim": 1}, {"chi": [1], "dim": 1}],
            "vector": [{"chi": [0], "coords": ["5"]}],
        },
    )
    code, out, _ = run(
        capsys, ["orbit-eq", "torus", "--file", torus_file, "--file2", different]
    )
    assert code == 1 and not json.loads(out)["same_orbit"]


@pytest.mark.parametrize("prime", [999_983, 1_000_003])
def test_orbit_eq_with_a_prime_ratio_above_the_factor_bound(capsys, tmp_path, prime):
    """A prime ratio is solved whether or not it lies above the trial-division
    bound: trial division proves it prime."""
    files = [
        write(
            tmp_path,
            f"p{k}.json",
            {"rank": 1, "weights": [{"chi": [1], "dim": 1}], "vector": [{"chi": [1], "coords": [c]}]},
        )
        for k, c in enumerate(("1", str(prime)))
    ]
    code, out, err = run(capsys, ["orbit-eq", "torus", "--file", files[0], "--file2", files[1]])
    assert (code, err) == (0, "")
    assert json.loads(out)["witness"] == {"torus": [str(prime)], "finite_index": None}


def test_compose_mu(capsys, tmp_path):
    f = write(
        tmp_path,
        "rep.json",
        {
            "rank": 2,
            "weights": [
                {"chi": [1, -5], "dim": 1},
                {"chi": [0, 1], "dim": 1},
                {"chi": [-1, 3], "dim": 1},
            ],
            "vector": [],
        },
    )
    code, out, _ = run(
        capsys,
        ["compose-mu", "torus", "--file", f, "--lambda0", "1,0", "--lambda", "0,1"],
    )
    data = json.loads(out)
    assert code == 0 and data["n"] == 6 and data["mu"] == [6, 1]


def test_a_negative_flag_value_is_joined_with_equals(capsys, tmp_path):
    """argparse reads "-1,0" as a separate word for an option, so a negative
    cocharacter or weight is given as --flag=-1,0, as the help says."""
    f = write(
        tmp_path,
        "rep.json",
        {
            "rank": 2,
            "weights": [
                {"chi": [1, -5], "dim": 1},
                {"chi": [0, 1], "dim": 1},
                {"chi": [-1, 3], "dim": 1},
            ],
            "vector": [{"chi": [0, 1], "coords": ["2"]}, {"chi": [-1, 3], "coords": ["1"]}],
        },
    )
    code, out, _ = run(capsys, ["limit", "torus", "--file", f, "--cochar=-1,0"])
    data = json.loads(out)
    assert code == 0 and data["limit"] == [{"chi": [0, 1], "coords": ["2"]}]
    code, out, _ = run(capsys, ["limit", "torus", "--file", f, "--cochar", "-1,0"])
    assert (code, out) == (2, "")
    code, out, _ = run(
        capsys, ["compose-mu", "torus", "--file", f, "--lambda0=-1,0", "--lambda=0,1"]
    )
    data = json.loads(out)
    assert code == 0 and data["n"] == 1 and data["mu"] == [-1, 1]


def test_compose_mu_with_a_huge_lambda_returns_at_once(torus_file):
    # n is solved for, not counted up to: 10^12 + 1 steps would take days.
    code, out = fresh(
        ["compose-mu", "torus", "--file", torus_file, "--lambda0", "1", "--lambda", "-1000000000000"]
    )
    data = json.loads(out)
    assert code == 0 and data["n"] == 1000000000001 and data["mu"] == [1]


def test_bruhat_and_jordan_chevalley(capsys, tmp_path, matrix_file):
    g = write(tmp_path, "inv.json", {"n": 2, "matrix": [["1", "0"], ["1", "1"]]})
    code, out, _ = run(capsys, ["bruhat", "--file", g])
    data = json.loads(out)
    assert code == 0
    assert data["p"] == [["-1", "1"], ["0", "1"]]
    assert data["w"] == [["0", "1"], ["1", "0"]]
    assert data["u"] == [["1", "1"], ["0", "1"]]
    code, out, _ = run(capsys, ["jordan-chevalley", "--file", matrix_file])
    data = json.loads(out)
    assert code == 0
    assert data["s"] == [["2", "0"], ["0", "2"]]
    assert data["n"] == [["0", "1"], ["0", "0"]]


def test_conjugacy(capsys, tmp_path):
    pair = write(
        tmp_path,
        "pair.json",
        {"n": 2, "x": [["0", "1"], ["0", "0"]], "y": [["0", "2"], ["0", "0"]]},
    )
    code, out, _ = run(capsys, ["conjugacy", "--file", pair])
    assert code == 0 and json.loads(out)["conjugate"]
    pair2 = write(
        tmp_path,
        "pair2.json",
        {"n": 2, "x": [["0", "1"], ["0", "0"]], "y": [["0", "0"], ["0", "0"]]},
    )
    code, out, _ = run(capsys, ["conjugacy", "--file", pair2])
    assert code == 1 and not json.loads(out)["conjugate"]


def test_survey(capsys, torus_file):
    code, out, _ = run(capsys, ["survey", "torus", "--file", torus_file, "--box", "2"])
    data = json.loads(out)
    assert code == 0 and len(data["entries"]) == 5
    ss = [e for e in data["entries"] if e["semisimple"]]
    assert [e["cocharacter"] for e in ss] == [[1], [2]]


def test_verify_runs_and_reports(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "bruhat", "--seed", "42", "--count", "5"])
    data = json.loads(out)
    assert code == 0 and data["passed"] and data["instances"] == 5
    assert "suite bruhat" in err  # wall time goes to stderr only
    code, out, _ = run(capsys, ["verify", "--suite", "lemma-limits", "--count", "3"])
    assert code == 0 and json.loads(out)["suite"] == "limits"
    code, out, err = run(capsys, ["verify", "--suite", "nope", "--count", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: unknown suite 'nope'; known: ") and err.count("\n") == 1


def test_usage_and_parse_errors(capsys, tmp_path, torus_file):
    code, _, _ = run(capsys, ["limit", "torus", "--file", "/nonexistent.json", "--cochar", "1"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, _ = run(capsys, ["limit", "torus", "--file", str(bad), "--cochar", "1"])
    assert code == 2
    code, _, _ = run(capsys, ["limit", "torus", "--file", torus_file, "--cochar", "1,0"])
    assert code == 2  # wrong rank
    code, _, _ = run(capsys, ["unknown-command"])
    assert code == 2


@pytest.mark.parametrize("flag", ["--cochar=--", "--box=--", "--fixed=--", "--lambda0=--"])
def test_a_flag_given_as_double_dash_is_a_usage_error(capsys, torus_file, flag):
    """argparse (Python 3.11) parses "--flag=--" to [], skipping the flag's
    type: main rejects it instead of passing it on."""
    command = {"--cochar": "limit", "--box": "survey", "--fixed": "nilpotent"}.get(
        flag.split("=")[0], "compose-mu"
    )
    extra = ["--lambda", "1"] if command == "compose-mu" else []
    code, out, err = run(capsys, [command, "torus", "--file", torus_file, flag, *extra])
    assert (code, out) == (2, "")
    assert err == "error: a flag given as '--flag=--' has no value\n"


def test_paths_that_cannot_be_opened_exit_2_without_a_traceback(capsys, tmp_path, torus_file):
    for path in (f"{torus_file}/x", str(tmp_path / ("a" * 300))):
        code, out, err = run(capsys, ["jkv", "torus", "--file", path])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1, err


def test_files_that_cannot_be_decoded_are_invalid_json(capsys, tmp_path):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes('{"n": 1, "matrix": [["\u00e9"]]}'.encode("latin-1"))
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": ' + "7" * 5000 + ', "matrix": [["1"]]}', encoding="utf-8")
    for path in (undecodable, huge):
        code, out, err = run(capsys, ["jkv", "gln", "--file", str(path)])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.startswith(f"error: {path}: invalid JSON (") and err.endswith(")\n")
        assert err.count("\n") == 1


def test_a_finite_group_joining_weights_of_different_dimension_exits_2(capsys, tmp_path):
    # the flip swaps (1), of dimension 1, and (-1), of dimension 2, so its
    # blocks are 2x1 and 1x2: they match the shapes but cannot be invertible
    problem = write(
        tmp_path,
        "mixed.json",
        {
            "rank": 1,
            "weights": [{"chi": [1], "dim": 1}, {"chi": [-1], "dim": 2}],
            "vector": [{"chi": [1], "coords": ["1"]}],
            "finite_group": {
                "elements": [
                    {"lattice": [[1]], "blocks": {"1": [["1"]], "-1": [["1", "0"], ["0", "1"]]}},
                    {"lattice": [[-1]], "blocks": {"1": [["1"], ["1"]], "-1": [["1", "0"]]}},
                ],
                "table": [[0, 1], [1, 0]],
            },
        },
    )
    code, out, err = run(capsys, ["semisimple", "torus", "--file", problem])
    assert (code, out, err) == (2, "", "error: block maps must be invertible\n")


def test_certify_jkv_gln_checks_the_column_counts(capsys, tmp_path, matrix_file):
    dec = write(
        tmp_path,
        "dec.json",
        {
            "s": [["2", "0", "0"], ["0", "2", "0"]],
            "n": [["0", "1"], ["0", "0"]],
            "cocharacter": {"g": [["1", "0"], ["0", "1"]], "exponents": [0, 0]},
        },
    )
    argv = ["certify-jkv", "gln", "--file", matrix_file, "--decomposition", dec]
    assert run(capsys, argv) == (2, "", "error: decomposition sizes do not match the problem\n")


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, ["jkv", "torus", "--file", str(deep)])
    assert (code, out) == (2, "")
    assert err == f"error: {deep}: invalid JSON (nested too deeply)\n"


def test_determinism_byte_identical(capsys, torus_file, matrix_file, tmp_path):
    commands = [
        ["limit", "torus", "--file", torus_file, "--cochar", "1"],
        ["semisimple", "torus", "--file", torus_file],
        ["jkv", "torus", "--file", torus_file],
        ["survey", "torus", "--file", torus_file, "--box", "3"],
        ["lambda-min", "torus", "--file", torus_file, "--box", "2"],
        ["jordan-chevalley", "--file", matrix_file],
        ["verify", "--suite", "limits", "--seed", "7", "--count", "5"],
    ]
    for argv in commands:
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2, f"non-deterministic output for {argv}"


def test_internal_errors_exit_4_with_a_traceback(capsys, monkeypatch, tmp_path):
    pair = write(tmp_path, "pair.json", {"n": 1, "x": [["1"]], "y": [["1"]]})
    for exc in (
        AssertionError("lost certificate"),
        RuntimeError("pivot limit"),
        ValueError("Exceeds the limit (4300 digits) for integer string conversion"),
    ):

        def broken(x, y, exc=exc):
            raise exc

        # main looks the library function up at call time
        monkeypatch.setattr(gln, "rational_conjugacy", broken)
        code, out, err = run(capsys, ["conjugacy", "--file", pair])
        summary = f"{type(exc).__name__}: {exc}"
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        lines = err.splitlines()
        assert lines[0] == f"internal error: {summary}"
        assert lines[1] == "Traceback (most recent call last):" and lines[-1] == summary


def test_a_failed_gln_recheck_exits_4_under_python_O(tmp_path):
    pair = write(tmp_path, "pair.json", {"n": 2, "x": [["1", "1"], ["0", "2"]], "y": [["2", "0"], ["0", "1"]]})
    # Every integer product differs, so the witness re-check of
    # rational_conjugacy fails; under -O an assert would have let the
    # witness through.
    script = (
        "import itertools, sys\n"
        "from jkvkit import cli, gln\n"
        "assert False, 'asserts must be stripped'\n"
        "products = itertools.count()\n"
        "gln.mat_mul = lambda a, b: next(products)\n"
        f"sys.exit(cli.main(['conjugacy', '--file', {pair!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INTERNAL, "")
    summary = "CertificateError: the witness must intertwine x and y"
    assert proc.stderr.splitlines()[0] == f"internal error: {summary}"


@pytest.mark.parametrize(
    "command, patch, summary",
    [
        (
            ["jordan-chevalley"],
            "decompose = gln.jordan_chevalley\n"
            "gln.jordan_chevalley = lambda x: (lambda s, n, p: (s, s, p))(*decompose(x))\n",
            "CertificateError: x must be s + n with s and n commuting",
        ),
        (
            ["jkv", "gln"],
            "import dataclasses\n"
            "certify = gln.jkv_gln\n"
            "gln.jkv_gln = lambda x: dataclasses.replace(certify(x), ok=False)\n",
            "CertificateError: the decomposition must pass its own certificate",
        ),
    ],
    ids=["jordan-chevalley", "jkv-gln"],
)
def test_a_failed_cli_recheck_exits_4_under_python_O(matrix_file, command, patch, summary):
    # The patched parts do not sum to x (or do not certify); under -O an
    # assert would have printed them as the answer with exit 0.
    argv = command + ["--file", matrix_file]
    script = (
        "import sys\n"
        "from jkvkit import cli, gln\n"
        "assert False, 'asserts must be stripped'\n"
        + patch
        + f"sys.exit(cli.main({argv!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INTERNAL, "")
    assert proc.stderr.splitlines()[0] == f"internal error: {summary}"


def test_oversize_box_sweeps_exit_2_before_any_work(capsys, torus_file):
    too_big = "box 100000 at rank 1 holds 200001 cocharacters, over the limit of 100000"
    for argv in (
        ["survey", "torus", "--file", torus_file, "--box", "100000"],
        ["lambda-min", "torus", "--file", torus_file, "--box", "100000"],
        ["verify", "--suite", "limits", "--seed", "7", "--count", "3", "--box", "100000"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_USAGE, "") and time.perf_counter() - start < 5
        assert err.startswith("error: box 100000 at rank ") and err.count("\n") == 1
        if argv[0] != "verify":
            assert err == f"error: {too_big}\n"


@pytest.fixture
def rank2_file(tmp_path):
    return write(
        tmp_path,
        "r2.json",
        {
            "rank": 2,
            "weights": [
                {"chi": [1, 0], "dim": 1},
                {"chi": [0, 1], "dim": 1},
                {"chi": [-1, -1], "dim": 1},
            ],
            "vector": [{"chi": [1, 0], "coords": ["1"]}, {"chi": [0, 1], "coords": ["2"]}],
        },
    )


def test_a_box_whose_count_has_too_many_digits_still_names_the_budget(capsys, rank2_file):
    # (2 * 10^3000 + 1)^2 has over 4,300 digits, Python's int-to-str limit;
    # seed 1 draws a rank-2 first instance.
    box = str(10**3000)
    for argv in (
        ["survey", "torus", "--file", rank2_file, "--box", box],
        ["lambda-min", "torus", "--file", rank2_file, "--box", box],
        ["verify", "--suite", "limits", "--seed", "1", "--count", "3", "--box", box],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == (
            "error: the box at rank 2 holds too many cocharacters to print, "
            "over the limit of 100000\n"
        )


def test_parser_is_built_once_per_process(capsys, torus_file, rank2_file):
    cli._parser.cache_clear()
    for argv in (
        ["limit", "torus", "--file", torus_file, "--cochar", "1"],
        ["unknown-command"],
        ["nilpotent", "torus", "--file", rank2_file, "--fixed", "1,0"],
        ["semisimple", "torus", "--file", torus_file],
    ):
        run(capsys, argv)
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)  # build_parser ran once


def test_appended_options_do_not_carry_over(capsys, rank2_file):
    argv = ["nilpotent", "torus", "--file", rank2_file]
    _, out, _ = run(capsys, argv + ["--fixed", "1,0", "--fixed", "0,1"])
    assert json.loads(out)["fixed"] == [[1, 0], [0, 1]]
    code, out, _ = run(capsys, argv + ["--fixed", "0,1"])
    assert json.loads(out)["fixed"] == [[0, 1]]
    assert (code, out) == fresh(argv + ["--fixed", "0,1"])


def test_a_usage_error_leaves_the_next_call_unchanged(capsys, torus_file):
    argv = ["limit", "torus", "--file", torus_file, "--cochar", "1"]
    code, out, err = run(capsys, ["limit", "torus", "--cochar", "1"])
    assert code == 2 and out == "" and "--file" in err
    code, out, err = run(capsys, argv)
    assert (code, out) == fresh(argv) and err == ""


def test_help_wraps_to_the_width_at_call_time(capsys, monkeypatch, torus_file):
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    run(capsys, ["semisimple", "torus", "--file", torus_file])  # builds the parser
    wide = cli.build_parser().format_help()
    monkeypatch.setenv("COLUMNS", "50")
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and out == cli.build_parser().format_help() != wide


# ---------------------------------------------------------------------------
# The survey writer against json.dumps of the whole document

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _survey_reference(path, box):
    """stdout of the survey command as json.dumps of every entry's fields."""
    rep, v = load_torus_problem(read_json(path))
    entries = [
        {
            "cocharacter": list(e.cocharacter),
            "exists": e.value is not None,
            "limit": vector_to_json(e.value) if e.value is not None else None,
            "semisimple": e.semisimple,
        }
        for e in limit_survey(rep, v, box).entries
    ]
    payload = {"format_version": FORMAT_VERSION, "command": "survey", "box": box, "entries": entries}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _first_difference(got, want):
    """None, or the first line where two documents differ (a short report:
    pytest's own diff of two long strings takes minutes)."""
    if got == want:
        return None
    pairs = zip(got.splitlines() + [None], want.splitlines() + [None])
    return next((i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b)


_COORDS = st.builds(
    lambda n, d: str(Fraction(n, d)),
    st.integers(-9, 9).filter(bool),
    st.sampled_from([1, 1, 2, 3, 7]),
)


@st.composite
def _survey_problems(draw):
    """Problem files whose limits are all the whole vector ("whole"), None
    off the zero cocharacter ("none": the support holds +-e_i for every i),
    or mixed; the oracle instances bring finite groups."""
    shape = draw(st.sampled_from(["oracle", "whole", "none", "mixed"]))
    if shape == "oracle":
        seed = draw(st.integers(0, 2**32))
        return torus_problem_to_json(*oracles.sample_torus_instance(random.Random(seed), FuzzConfig()))
    rank = draw(st.integers(1, 4))
    if shape == "whole":
        support = [(0,) * rank]
    elif shape == "none":
        support = [tuple(s * (j == i) for j in range(rank)) for i in range(rank) for s in (1, -1)]
    else:
        point = st.tuples(*[st.integers(-2, 2)] * rank)
        support = draw(st.lists(point, min_size=1, max_size=5, unique=True))
    extra = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), max_size=2))
    dims = {chi: draw(st.integers(1, 2)) for chi in dict.fromkeys(support + extra)}
    return {
        "rank": rank,
        "weights": [{"chi": list(chi), "dim": d} for chi, d in sorted(dims.items())],
        "vector": [
            {"chi": list(chi), "coords": [draw(_COORDS) for _ in range(dims[chi])]}
            for chi in sorted(set(support))
        ],
    }


@settings(max_examples=100, deadline=None)
@given(problem=_survey_problems(), box=st.integers(1, 2))
def test_survey_output_is_json_dumps_of_every_entry(problem, box):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["survey", "torus", "--file", str(path), "--box", str(box)])
        assert code == 0
        assert _first_difference(out.getvalue(), _survey_reference(str(path), box)) is None


@pytest.mark.parametrize("name", ["t1", "t2w", "t3", "t3w"])
def test_survey_encodes_each_distinct_limit_once(capsys, monkeypatch, name):
    path = str(GOLDEN_INPUTS / f"{name}.json")
    rep, v = load_torus_problem(read_json(path))
    entries = limit_survey(rep, v, 2).entries
    distinct = {id(e.value) for e in entries if e.value is not None}
    calls = []
    monkeypatch.setattr(cli, "vector_to_json", lambda val: calls.append(val) or vector_to_json(val))
    code, out, _ = run(capsys, ["survey", "torus", "--file", path, "--box", "2"])
    assert code == 0 and _first_difference(out, _survey_reference(path, 2)) is None
    assert len(calls) == len(distinct) < len(entries)


def test_survey_builds_no_survey_entry(capsys, monkeypatch):
    """The survey writer reads the codes and their faces, never the entries."""
    import jkvkit.torus as torus_mod

    built = []
    entry = torus_mod.SurveyEntry
    monkeypatch.setattr(torus_mod, "SurveyEntry", lambda *a: built.append(a) or entry(*a))
    for name in ("t1", "t2w", "t3", "t3w"):
        path = str(GOLDEN_INPUTS / f"{name}.json")
        code, out, _ = run(capsys, ["survey", "torus", "--file", path, "--box", "2"])
        assert code == 0 and built == []
        assert _first_difference(out, _survey_reference(path, 2)) is None
        built.clear()  # the reference reads the entries


@pytest.mark.parametrize("command", [["semisimple", "gln"], ["jordan-chevalley"]])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_minimal_polynomial_per_gln_request(capsys, monkeypatch, command, n):
    calls = []
    monkeypatch.setattr(gln, "minpoly", lambda x, f=gln.minpoly: calls.append(x) or f(x))
    code, _, _ = run(capsys, [*command, "--file", str(GOLDEN_INPUTS / f"m{n}.json")])
    assert code in (0, 1) and len(calls) == 1


def test_semisimple_torus_solves_one_barycentric_lp_per_inside_set(capsys, tmp_path, monkeypatch):
    """The max-min barycentric LP runs for the printed coefficients only:
    once per inside set however often it is asked, never for an outside one."""
    from jkvkit import polytope

    def problem(name, chis):
        weights = [{"chi": chi, "dim": 1} for chi in chis]
        vector = [{"chi": chi, "coords": ["1"]} for chi in chis]
        return write(tmp_path, name, {"rank": 2, "weights": weights, "vector": vector})

    inside = [
        problem("a.json", [[-1, 0], [0, 1], [1, -1]]),
        problem("b.json", [[-1, -1], [1, 1]]),
    ]
    outside = problem("c.json", [[0, 1], [1, 0]])
    calls = []
    original = polytope._barycentric_lp
    monkeypatch.setattr(polytope, "_barycentric_lp", lambda pts: calls.append(pts) or original(pts))
    for cache in (polytope._relint_cached, polytope._minimal_face_cached, polytope._barycentric_cached):
        cache.cache_clear()
    for path in inside + [outside] + inside:
        run(capsys, ["semisimple", "torus", "--file", path])
    assert sorted(calls) == [((-1, -1), (1, 1)), ((-1, 0), (0, 1), (1, -1))]


# ---------------------------------------------------------------------------
# The lambda-min witness list against json.dumps

# Witnesses at box 2 by rank 1-4: +-e_i leaves only the zero cocharacter a
# limit; e_1 has limit 0, fixed dimension 0, wherever lambda_1 >= 1; the zero
# weight is fixed by every cocharacter, so every primitive one is a witness.
_WITNESS_COUNTS = {"+-e_i": (1, 1, 1, 1), "e_1": (1, 7, 41, 223), "zero": (3, 17, 99, 545)}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("support", list(_WITNESS_COUNTS))
def test_lambda_min_witnesses_are_json_dumps_of_the_list(capsys, tmp_path, rank, support):
    units = [tuple(s * (j == i) for j in range(rank)) for i in range(rank) for s in (1, -1)]
    chis = {"+-e_i": units, "e_1": units[:1], "zero": [(0,) * rank]}[support]
    path = write(
        tmp_path,
        "p.json",
        {
            "rank": rank,
            "weights": [{"chi": list(chi), "dim": 1} for chi in chis],
            "vector": [{"chi": list(chi), "coords": ["1"]} for chi in chis],
        },
    )
    code, out, _ = run(capsys, ["lambda-min", "torus", "--file", path, "--box", "2"])
    dim, wits = lambda_min(*load_torus_problem(read_json(path)), 2)
    fields = {"box": 2, "min_fixed_dim": dim, "witnesses": [list(w) for w in wits]}
    payload = {"format_version": FORMAT_VERSION, "command": "lambda-min", **fields}
    assert code == 0 and out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(wits) == _WITNESS_COUNTS[support][rank - 1]


# ---------------------------------------------------------------------------
# orbit-eq's second file: one module validation when it is spelled alike


def _moved():
    """The second file of the t2w orbit-eq case: t2w's module, spelled alike."""
    return read_json(str(GOLDEN_INPUTS / "t2w-moved.json"))


def _orbit_eq(capsys, tmp_path, second):
    """Exit code, stdout and stderr of orbit-eq on t2w.json and second."""
    path = tmp_path / "second.json"
    path.write_text(json.dumps(second), encoding="utf-8")
    first = str(GOLDEN_INPUTS / "t2w.json")
    return run(capsys, ["orbit-eq", "torus", "--file", first, "--file2", str(path)])


def _reversed_keys(x):
    if isinstance(x, dict):
        return {k: _reversed_keys(x[k]) for k in reversed(list(x))}
    return [_reversed_keys(y) for y in x] if isinstance(x, list) else x


def _spaced_block_keys(problem):
    for element in problem["finite_group"]["elements"]:
        element["blocks"] = {k.replace(",", ", "): m for k, m in element["blocks"].items()}
    return problem


@pytest.mark.parametrize("respell", [lambda m: m, _reversed_keys], ids=["alike", "reordered-keys"])
def test_orbit_eq_validates_a_module_spelled_alike_once(capsys, tmp_path, monkeypatch, respell):
    import jkvkit.torus as torus_mod

    calls = []
    original = torus_mod._validate_finite_group
    monkeypatch.setattr(torus_mod, "_validate_finite_group", lambda r: calls.append(r) or original(r))
    code, out, err = _orbit_eq(capsys, tmp_path, respell(_moved()))
    assert (code, err) == (0, "") and json.loads(out)["same_orbit"] and len(calls) == 1


@pytest.mark.parametrize("respell", [_reversed_keys, _spaced_block_keys])
def test_orbit_eq_answers_a_respelled_module_as_the_identical_one(capsys, tmp_path, respell):
    same = _orbit_eq(capsys, tmp_path, _moved())
    assert _orbit_eq(capsys, tmp_path, respell(_moved())) == same and same[0] == 0


def _set_first_dim(problem, value):
    problem["weights"][0]["dim"] = value  # 1 in t2w


def _set_table_entry(problem, value):
    problem["finite_group"]["table"][0][1] = value  # 1 in t2w


@pytest.mark.parametrize("spelling", [True, 1.0])
@pytest.mark.parametrize("where, plant", [("dim", _set_first_dim), ("table", _set_table_entry)])
def test_orbit_eq_refuses_an_integer_spelled_true_or_as_a_float(capsys, tmp_path, spelling, where, plant):
    second = _moved()
    plant(second, spelling)
    assert _orbit_eq(capsys, tmp_path, second) == (2, "", f"error: {where} must be an integer\n")


@pytest.mark.parametrize(
    "respell, message",
    [
        (lambda m: {**m, "weights": m["weights"][::-1]}, "the two problem files must share the same module"),
        (lambda m: [m], "problem must be a JSON object"),
        (lambda m: {k: v for k, v in m.items() if k != "vector"}, "missing fields in problem: ['vector']"),
        (lambda m: {**m, "note": "moved"}, "unknown fields in problem: ['note']"),
    ],
    ids=["reordered-weights", "not-an-object", "no-vector", "unknown-field"],
)
def test_orbit_eq_refuses_a_second_file_as_before(capsys, tmp_path, respell, message):
    assert _orbit_eq(capsys, tmp_path, respell(_moved())) == (2, "", f"error: {message}\n")
