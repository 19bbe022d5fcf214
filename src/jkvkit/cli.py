"""Command-line front end.

Every subcommand reads JSON problem files and returns its exit code and
output fields; `main` alone writes them as one JSON document on stdout
(format_version pinned for downstream scripts), and all diagnostics go
to stderr.  Exit codes: 0 success or true verdict, 1 false verdict or
suite failures, 2 usage errors and every ProblemFormatError (a problem
file or flag that fails its check, or a path that cannot be opened or
decoded), 3 unsupported-input verdicts (box too small, unfactored
ratios), 4 every other exception, ValueError included: an internal
error (traceback on stderr, nothing on stdout).

The document is json.dumps(indent=2, sort_keys=True) of the fields, byte
for byte, but two lists arrive pre-encoded (`_Encoded`) and main splices
them in at their key: the survey entries (each distinct limit encoded
once, the cocharacter lines joined from the box's coordinate strings and
zipped with the survey's codes) and the lambda-min witnesses (one join of
their integer lines).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import gln as gln_model
from . import torus as torus_model
from .checks import ProblemFormatError, require
from .oracles import FuzzConfig
from .polys import is_squarefree
from .polytope import WeightSet
from .rationals import UnfactoredError, format_rational
from .ratlinalg import qmul, qsub
from .serialize import (
    FORMAT_VERSION,
    barycentric_to_json,
    cocharacter_to_json,
    load_gln_cocharacter,
    load_gln_decomposition,
    load_gln_matrix,
    load_gln_pair,
    load_torus_decomposition,
    load_torus_problem,
    load_torus_vector,
    matrix_to_json,
    parse_int_vector,
    read_json,
    vector_to_json,
)
from .suites import run_suite
from .torus import BoxTooSmallError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


class _Encoded(str):
    """A field's value as json.dumps(value, indent=2, sort_keys=True) writes
    it; main splices it into the document at its key's depth."""


def _poly_to_json(p):
    return [format_rational(c) for c in p]


def _cmd_limit(args) -> tuple[int, dict]:
    if args.model == "torus":
        if args.cochar is None:
            raise ProblemFormatError("the torus model needs --cochar")
        rep, v = load_torus_problem(read_json(args.file))
        lam = parse_int_vector(args.cochar, rep.rank, "cocharacter")
        val = torus_model.limit(lam, v)
        cocharacter, to_json = list(lam), vector_to_json
    else:
        if args.cochar_file is None:
            raise ProblemFormatError("the matrix model needs --cochar-file")
        x = load_gln_matrix(read_json(args.file))
        lam = load_gln_cocharacter(read_json(args.cochar_file))
        val = gln_model.limit_conj(lam, x)
        cocharacter, to_json = cocharacter_to_json(lam), matrix_to_json
    return EXIT_OK if val is not None else EXIT_FALSE, {
        "model": args.model,
        "cocharacter": cocharacter,
        "exists": val is not None,
        "limit": to_json(val) if val is not None else None,
    }


def _cmd_semisimple(args) -> tuple[int, dict]:
    if args.model == "torus":
        _, v = load_torus_problem(read_json(args.file))
        res = torus_model.is_semisimple(v)
        if res.inside:
            return EXIT_OK, {
                "model": "torus",
                "semisimple": True,
                "barycentric": barycentric_to_json(res.barycentric),
                "cocharacter": None,
            }
        return EXIT_FALSE, {
            "model": "torus",
            "semisimple": False,
            "barycentric": None,
            "cocharacter": list(res.separator),
        }
    m = gln_model.minpoly(load_gln_matrix(read_json(args.file)))
    verdict = is_squarefree(m)  # gln.is_semisimple_matrix's criterion, on m computed once
    return EXIT_OK if verdict else EXIT_FALSE, {
        "model": "gln",
        "semisimple": verdict,
        "minimal_polynomial": _poly_to_json(m),
    }


def _cmd_nilpotent(args) -> tuple[int, dict]:
    rep, v = load_torus_problem(read_json(args.file))
    fixed_pts = tuple(parse_int_vector(t, rep.rank, "weight") for t in args.fixed or [])
    fixed = WeightSet(rep.rank, tuple(dict.fromkeys(fixed_pts)))
    verdict, lam = torus_model.is_nilpotent(v, fixed)
    return EXIT_OK if verdict else EXIT_FALSE, {
        "nilpotent": verdict,
        "cocharacter": list(lam) if lam is not None else None,
        "fixed": [list(p) for p in fixed.points],
    }


def _cmd_jkv(args) -> tuple[int, dict]:
    if args.model == "torus":
        rep, v = load_torus_problem(read_json(args.file))
        dec = torus_model.jkv_decompose(rep, v)
        return EXIT_OK, {
            "model": "torus",
            "s": vector_to_json(dec.s),
            "n": vector_to_json(dec.n),
            "cocharacter": list(dec.cocharacter),
            "clauses": dec.report.clauses,
        }
    x = load_gln_matrix(read_json(args.file))
    cert = gln_model.jkv_gln(x)
    require(cert.ok, "the decomposition must pass its own certificate")
    return EXIT_OK, {
        "model": "gln",
        "s": matrix_to_json(cert.s),
        "n": matrix_to_json(cert.n),
        "cocharacter": cocharacter_to_json(cert.cocharacter),
        "polynomial": _poly_to_json(cert.polynomial),
        "clauses": cert.clauses,
    }


def _cmd_certify_jkv(args) -> tuple[int, dict]:
    if args.model == "torus":
        rep, gamma = load_torus_problem(read_json(args.file))
        s, n, lam = load_torus_decomposition(read_json(args.decomposition), rep)
        report = torus_model.jkv_certify(rep, gamma, s, n, lam)
        clauses, ok = report.clauses, report.ok
    else:
        x = load_gln_matrix(read_json(args.file))
        s, n, lam = load_gln_decomposition(read_json(args.decomposition))
        if {lam.n, len(s), len(s[0]), len(n), len(n[0])} != {len(x)}:
            raise ProblemFormatError("decomposition sizes do not match the problem")
        clauses = {"sum": qsub(x, s) == n, **gln_model.jkv_certify_gln(x, s, n, lam)}
        ok = all(clauses.values())
    return EXIT_OK if ok else EXIT_FALSE, {"model": args.model, "valid": ok, "clauses": clauses}


def _cmd_lambda_min(args) -> tuple[int, dict]:
    rep, v = load_torus_problem(read_json(args.file))
    dim, wits = torus_model.lambda_min(rep, v, args.box)
    # each witness is a nonempty list of ints, as json.dumps(indent=2) writes it
    rows = ",\n".join(["  [\n    " + ",\n    ".join(map(str, w)) + "\n  ]" for w in wits])
    return EXIT_OK, {"box": args.box, "min_fixed_dim": dim, "witnesses": _Encoded(f"[\n{rows}\n]")}


def _module_text(obj: dict) -> str:
    """The canonical JSON text of a problem object's module: all but its "vector"."""
    return json.dumps({k: v for k, v in obj.items() if k != "vector"}, sort_keys=True)


def _cmd_orbit_eq(args) -> tuple[int, dict]:
    obj = read_json(args.file)
    rep, v = load_torus_problem(obj)
    obj2 = read_json(args.file2)
    # A module spelled in the same canonical text is the one just validated,
    # so only the vector is loaded.  Text, not ==: True == 1 == 1.0, and the
    # loader takes an integer spelled 1 only.
    if isinstance(obj2, dict) and _module_text(obj2) == _module_text(obj):
        v2 = load_torus_vector(obj2, rep)
    else:
        rep2, v2 = load_torus_problem(obj2)
        if rep != rep2:
            raise ProblemFormatError("the two problem files must share the same module")
    g = torus_model.same_orbit(rep, v, v2)
    if g is None:
        return EXIT_FALSE, {"same_orbit": False, "witness": None}
    return EXIT_OK, {
        "same_orbit": True,
        "witness": {
            "torus": [format_rational(a) for a in g.torus],
            "finite_index": g.finite_index,
        },
    }


def _cmd_compose_mu(args) -> tuple[int, dict]:
    rep, _ = load_torus_problem(read_json(args.file))
    lam0 = parse_int_vector(args.lambda0, rep.rank, "cocharacter")
    lam = parse_int_vector(args.lam, rep.rank, "cocharacter")
    n, mu = torus_model.compose_cocharacters(rep, lam0, lam)
    return EXIT_OK, {"n": n, "mu": list(mu)}


def _cmd_bruhat(args) -> tuple[int, dict]:
    g = load_gln_matrix(read_json(args.file))
    p, w, u = gln_model.bruhat(g)
    return EXIT_OK, {
        "p": matrix_to_json(p),
        "w": matrix_to_json(w),
        "u": matrix_to_json(u),
    }


def _cmd_jordan_chevalley(args) -> tuple[int, dict]:
    x = load_gln_matrix(read_json(args.file))
    s, n, p = gln_model.jordan_chevalley(x)
    require(
        qsub(x, s) == n and qmul(s, n) == qmul(n, s), "x must be s + n with s and n commuting"
    )
    require(gln_model.eval_poly_matrix(p, x) == s, "the polynomial must give s at x")
    return EXIT_OK, {
        "s": matrix_to_json(s),
        "n": matrix_to_json(n),
        "polynomial": _poly_to_json(p),
    }


def _cmd_conjugacy(args) -> tuple[int, dict]:
    x, y = load_gln_pair(read_json(args.file))
    g = gln_model.rational_conjugacy(x, y)
    if g is None:
        return EXIT_FALSE, {"conjugate": False, "witness": None}
    return EXIT_OK, {"conjugate": True, "witness": matrix_to_json(g)}


def _cmd_survey(args) -> tuple[int, dict]:
    rep, v = load_torus_problem(read_json(args.file))
    survey = torus_model.limit_survey(rep, v, args.box)
    # Codes that share a zero set hold the same RepVector (or None), which
    # alone fixes "exists", "limit" and "semisimple": encode those once, drop
    # the braces ('{\n  ' and '\n}'), indent the lines for a list entry and
    # close the entry.  The cocharacter lines before each code's text are the
    # box's coordinates, in _box_iter's lexicographic order.
    by_value: dict[int, str] = {}
    tails = {}
    for code, (value, semisimple) in survey.faces.items():
        tail = by_value.get(id(value))
        if tail is None:
            fields = {
                "exists": value is not None,
                "limit": vector_to_json(value) if value is not None else None,
                "semisimple": semisimple,
            }
            text = json.dumps(fields, indent=2, sort_keys=True)
            body = text[4:-2].replace("\n", "\n  ")
            tail = by_value[id(value)] = f"\n    ],\n    {body}\n  }}"
        tails[code] = tail
    steps = [str(a) for a in range(-args.box, args.box + 1)]
    lines = map(",\n      ".join, itertools.product(steps, repeat=rep.rank))
    head = '  {\n    "cocharacter": [\n      '
    entries = ",\n".join([head + lam + tails[code] for lam, code in zip(lines, survey.codes)])
    return EXIT_OK, {"box": args.box, "entries": _Encoded("[\n" + entries + "\n]")}


def _cmd_verify(args) -> tuple[int, dict]:
    config = FuzzConfig(seed=args.seed, count=args.count, box=args.box)
    report = run_suite(args.suite, config)
    sys.stderr.write(f"suite {report.suite}: {report.wall_time:.2f}s\n")
    return EXIT_OK if report.passed else EXIT_FALSE, {
        "suite": report.suite,
        "seed": report.seed,
        "count": report.count,
        "instances": report.instances,
        "failures": [
            {"index": f.index, "clause": f.clause, "input": f.payload}
            for f in report.failures
        ],
        "passed": report.passed,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jkvkit",
        description="Exact cocharacter limits, Jordan-Kac-Vinberg decompositions, "
        "and rational orbit-equivalence certificates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("limit", _cmd_limit, help="limit of a vector along a cocharacter")
    p.add_argument("model", choices=["torus", "gln"])
    p.add_argument("--file", required=True, help="problem file")
    p.add_argument("--cochar", help="integer cocharacter, e.g. --cochar=-1,0 (torus)")
    p.add_argument("--cochar-file", help="cocharacter file (gln)")

    p = add("semisimple", _cmd_semisimple, help="closed-orbit certificate")
    p.add_argument("model", choices=["torus", "gln"])
    p.add_argument("--file", required=True)

    p = add("nilpotent", _cmd_nilpotent, help="nilpotency relative to fixed weights")
    p.add_argument("model", choices=["torus"])
    p.add_argument("--file", required=True)
    p.add_argument("--fixed", action="append", help="weight to fix, e.g. --fixed=-1,0; repeatable")

    p = add("jkv", _cmd_jkv, help="Jordan-Kac-Vinberg decomposition with certificate")
    p.add_argument("model", choices=["torus", "gln"])
    p.add_argument("--file", required=True)

    p = add("certify-jkv", _cmd_certify_jkv, help="check a supplied decomposition")
    p.add_argument("model", choices=["torus", "gln"])
    p.add_argument("--file", required=True)
    p.add_argument("--decomposition", required=True)

    p = add("lambda-min", _cmd_lambda_min, help="minimal fixed-space dimension in a box")
    p.add_argument("model", choices=["torus"])
    p.add_argument("--file", required=True)
    p.add_argument("--box", type=int, default=3)

    p = add("orbit-eq", _cmd_orbit_eq, help="rational orbit equivalence of two vectors")
    p.add_argument("model", choices=["torus"])
    p.add_argument("--file", required=True)
    p.add_argument("--file2", required=True)

    p = add("compose-mu", _cmd_compose_mu, help="compose two cocharacters")
    p.add_argument("model", choices=["torus"])
    p.add_argument("--file", required=True)
    p.add_argument("--lambda0", required=True, help="cocharacter, e.g. --lambda0=-1,0")
    p.add_argument("--lambda", dest="lam", required=True, help="cocharacter, e.g. --lambda=-1,0")

    p = add("bruhat", _cmd_bruhat, help="p * w * u factorization")
    p.add_argument("--file", required=True)

    p = add("jordan-chevalley", _cmd_jordan_chevalley, help="exact S + N decomposition")
    p.add_argument("--file", required=True)

    p = add("conjugacy", _cmd_conjugacy, help="rational conjugacy of a matrix pair")
    p.add_argument("--file", required=True, help="pair file {n, x, y}")

    p = add("survey", _cmd_survey, help="limits over a whole cocharacter box")
    p.add_argument("model", choices=["torus"])
    p.add_argument("--file", required=True)
    p.add_argument("--box", type=int, default=3)

    p = add("verify", _cmd_verify, help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--box", type=int, default=3)

    return parser


# main's parser, built on its first call and then shared: parsing never
# mutates it, and argparse reads the terminal width and sys.stdout/stderr
# only as it prints.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if any(v == [] or (isinstance(v, list) and [] in v) for v in vars(args).values()):
            # argparse (Python 3.11) parses "--flag=--" to [], skipping the flag's type
            raise ProblemFormatError("a flag given as '--flag=--' has no value")
        code, fields = args.handler(args)
        payload = {"format_version": FORMAT_VERSION, "command": args.subcommand, **fields}
        encoded = {k: v for k, v in payload.items() if isinstance(v, _Encoded)}
        text = json.dumps({**payload, **dict.fromkeys(encoded)}, indent=2, sort_keys=True)
        for key, value in encoded.items():  # a newline and two spaces start a top-level key only
            at = f'\n  "{key}": '
            text = text.replace(at + "null", at + value.replace("\n", "\n  "), 1)
        sys.stdout.write(text + "\n")
        return code
    except ProblemFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (BoxTooSmallError, UnfactoredError) as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return EXIT_UNSUPPORTED
    except Exception as exc:
        import traceback  # here, not at the top: it adds ~5 ms to importing cli

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
