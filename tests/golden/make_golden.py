"""Write the golden CLI corpus: fixed problem files, the command list, and
the exact exit code and stdout of every command.

    PYTHONPATH=src python tests/golden/make_golden.py

tests/test_golden.py replays every command and compares byte for byte.
Regenerate only for a change that is meant to alter CLI output, and say so
in the change description.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from jkvkit import oracles
from jkvkit.cli import main
from jkvkit.gln import jkv_gln
from jkvkit.intlinalg import pairing
from jkvkit.oracles import FuzzConfig
from jkvkit.ratlinalg import qinverse, qmul
from jkvkit.serialize import (
    cocharacter_to_json,
    gln_problem_to_json,
    matrix_to_json,
    torus_problem_to_json,
    vector_to_json,
)
from jkvkit.torus import GroupElement, RepVector, act, limit_survey, vec_add

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
CASES = HERE / "cases.json"


def _pick_torus(rank: int, finite: bool):
    """First seeded instance of the given rank and finite part whose vector
    has a nonzero nilpotent part along some box cocharacter."""
    for seed in range(10_000):
        rep, v = oracles.sample_torus_instance(random.Random(seed), FuzzConfig(max_rank=3))
        if rep.rank != rank or (rep.finite is not None) != finite or len(v.components) < 2:
            continue
        survey = limit_survey(rep, v, 1)
        if any(val != v for _, val in survey.semisimple_entries()):
            return rep, v
    raise RuntimeError("no instance found")


def _torus_files(name: str, rank: int, finite: bool) -> dict[str, object]:
    rep, v = _pick_torus(rank, finite)
    rng = random.Random(f"golden:{name}")
    files: dict[str, object] = {f"{name}.json": torus_problem_to_json(rep, v)}
    torus = tuple(oracles.random_nonzero_fraction(rng, 5) for _ in range(rep.rank))
    idx = len(rep.finite.elements) - 1 if rep.finite else None
    files[f"{name}-moved.json"] = torus_problem_to_json(rep, act(rep, GroupElement(torus, idx), v))
    lam, val = next(e for e in limit_survey(rep, v, 1).semisimple_entries() if e[1] != v)
    # the limit is a projection of v, so v - s is v's components off supp s
    rest = RepVector(v.rank, {chi: c for chi, c in v.components.items() if chi not in val.components})
    dec = {
        "s": vector_to_json(val),
        "n": vector_to_json(rest),
        "cocharacter": list(lam),
    }
    files[f"{name}-dec.json"] = dec
    files[f"{name}-dec-zero.json"] = dict(dec, cocharacter=[0] * rep.rank)
    if name == "t2":
        # s also gets a component at the first module weight outside supp v
        # that the cocharacter fixes, and n = v - s keeps the sum right
        dims = rep.dims()
        off = next(
            chi for chi in sorted(dims)
            if chi not in v.components and pairing(lam, chi) == 0
        )
        s = vec_add(val, RepVector(rep.rank, {off: (1,) * dims[off]}))
        n = vec_add(rest, RepVector(rep.rank, {off: (-1,) * dims[off]}))
        files[f"{name}-dec-offsupport.json"] = dict(
            dec, s=vector_to_json(s), n=vector_to_json(n)
        )
    return files


def _gln_files(name: str, n: int) -> dict[str, object]:
    rng = random.Random(f"golden:{name}")
    x, _, _ = oracles.sample_rational_spectrum_matrix(rng, n)
    h = oracles.sample_invertible_matrix(rng, n)
    y = qmul(qmul(h, x), qinverse(h))
    other = oracles.sample_gln_matrix(rng, n)
    lam = oracles.sample_gln_cocharacter(rng, n)
    cert = jkv_gln(x)
    return {
        f"{name}.json": gln_problem_to_json(x),
        f"{name}-inv.json": gln_problem_to_json(oracles.sample_invertible_matrix(rng, n)),
        f"{name}-pair.json": {"n": n, "x": matrix_to_json(x), "y": matrix_to_json(y)},
        f"{name}-pair-no.json": {"n": n, "x": matrix_to_json(x), "y": matrix_to_json(other)},
        f"{name}-cochar.json": cocharacter_to_json(lam),
        f"{name}-dec.json": {
            "s": matrix_to_json(cert.s),
            "n": matrix_to_json(cert.n),
            "cocharacter": cocharacter_to_json(cert.cocharacter),
        },
    }


def _torus_cases(name: str, rank: int) -> dict[str, list[str]]:
    f = f"{{inputs}}/{name}.json"
    ones = ",".join(["1"] * rank)
    first = ",".join(["1"] + ["0"] * (rank - 1))
    cases = {
        f"{name}-limit": ["limit", "torus", "--file", f, "--cochar", first],
        f"{name}-semisimple": ["semisimple", "torus", "--file", f],
        f"{name}-nilpotent": ["nilpotent", "torus", "--file", f],
        f"{name}-nilpotent-fixed": ["nilpotent", "torus", "--file", f, "--fixed", ones],
        f"{name}-jkv": ["jkv", "torus", "--file", f],
        f"{name}-certify": [
            "certify-jkv", "torus", "--file", f, "--decomposition", f"{{inputs}}/{name}-dec.json",
        ],
        f"{name}-certify-zero": [
            "certify-jkv", "torus", "--file", f,
            "--decomposition", f"{{inputs}}/{name}-dec-zero.json",
        ],
        f"{name}-lambda-min": ["lambda-min", "torus", "--file", f, "--box", "2"],
        f"{name}-orbit-eq": [
            "orbit-eq", "torus", "--file", f, "--file2", f"{{inputs}}/{name}-moved.json",
        ],
        f"{name}-compose-mu": [
            "compose-mu", "torus", "--file", f, "--lambda0", first, "--lambda", ones,
        ],
        f"{name}-survey": ["survey", "torus", "--file", f, "--box", "1"],
    }
    if rank == 3:  # box 2 is the survey the cli-files benchmark prints
        cases[f"{name}-survey-box2"] = ["survey", "torus", "--file", f, "--box", "2"]
    if name == "t2":
        cases[f"{name}-certify-offsupport"] = [
            "certify-jkv", "torus", "--file", f,
            "--decomposition", f"{{inputs}}/{name}-dec-offsupport.json",
        ]
    if name == "t2w":  # box 3 is the survey the jkv-survey suite runs
        cases[f"{name}-survey-box3"] = ["survey", "torus", "--file", f, "--box", "3"]
    return cases


def _gln_cases(name: str) -> dict[str, list[str]]:
    f = f"{{inputs}}/{name}.json"
    return {
        f"{name}-limit": ["limit", "gln", "--file", f, "--cochar-file", f"{{inputs}}/{name}-cochar.json"],
        f"{name}-semisimple": ["semisimple", "gln", "--file", f],
        f"{name}-jkv": ["jkv", "gln", "--file", f],
        f"{name}-certify": [
            "certify-jkv", "gln", "--file", f, "--decomposition", f"{{inputs}}/{name}-dec.json",
        ],
        f"{name}-bruhat": ["bruhat", "--file", f"{{inputs}}/{name}-inv.json"],
        f"{name}-jordan-chevalley": ["jordan-chevalley", "--file", f],
        f"{name}-conjugacy": ["conjugacy", "--file", f"{{inputs}}/{name}-pair.json"],
        f"{name}-conjugacy-no": ["conjugacy", "--file", f"{{inputs}}/{name}-pair-no.json"],
    }


_VERIFY = {
    "limits": 2,
    "semisimple": 20,
    "theorem": 5,
    "jkv-survey": 10,
    "compose-mu": 5,
    "limit-conjugacy": 2,
    "jkv-gln": 3,
    "jordan-chevalley": 3,
    "levi-homomorphism": 3,
    "bruhat": 5,
    "lambda-min-shift": 2,
    "commuting": 2,
}


def build() -> tuple[dict[str, object], dict[str, list[str]]]:
    files: dict[str, object] = {}
    cases: dict[str, list[str]] = {}
    for name, rank, finite in (("t1", 1, False), ("t2", 2, False), ("t3", 3, False),
                               ("t2w", 2, True), ("t3w", 3, True)):
        files.update(_torus_files(name, rank, finite))
        cases.update(_torus_cases(name, rank))
    for n in (2, 3, 4):
        files.update(_gln_files(f"m{n}", n))
        cases.update(_gln_cases(f"m{n}"))
    for suite, count in _VERIFY.items():
        cases[f"verify-{suite}"] = [
            "verify", "--suite", suite, "--seed", "11", "--count", str(count), "--box", "2",
        ]
    return files, cases


def run_case(argv: list[str], inputs: Path) -> str:
    """Exit code line plus the exact stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([a.replace("{inputs}", str(inputs)) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


def write() -> None:
    files, cases = build()
    INPUTS.mkdir(exist_ok=True)
    EXPECTED.mkdir(exist_ok=True)
    for name, obj in files.items():
        (INPUTS / name).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    CASES.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    for name, argv in cases.items():
        (EXPECTED / f"{name}.txt").write_text(run_case(argv, INPUTS), encoding="utf-8")


if __name__ == "__main__":
    write()
