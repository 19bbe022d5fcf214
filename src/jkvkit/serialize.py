"""Problem-file formats (JSON, UTF-8) with strict schemas.

Unknown fields are rejected everywhere; rationals travel as the exact
string form "p/q" (or "p"); weights inside JSON object keys are encoded
as comma-separated integers.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .checks import ProblemFormatError
from .gln import GLnCocharacter
from .intlinalg import IntVec
from .rationals import format_rational, parse_rational
from .ratlinalg import QMat, qmat
from .torus import FiniteElement, FiniteGroup, RepVector, TorusRep, validate_vector

FORMAT_VERSION = 1


def _require_keys(obj, required, optional=(), where="object"):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where} must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ProblemFormatError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ProblemFormatError(f"missing fields in {where}: {sorted(missing)}")


def _int(x, where):
    if type(x) is not int:
        raise ProblemFormatError(f"{where} must be an integer")
    return x


def _int_list(x, where):
    if not isinstance(x, list):
        raise ProblemFormatError(f"{where} must be a list of integers")
    return tuple(_int(v, where) for v in x)


def _int_matrix(x, where):
    if not isinstance(x, list) or not x:
        raise ProblemFormatError(f"{where} must be a nonempty list of rows")
    return tuple(_int_list(row, where) for row in x)


def _rational(x, where) -> Fraction:
    if not isinstance(x, str):
        raise ProblemFormatError(f"{where} must be a rational string")
    try:
        return parse_rational(x)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _rational_list(x, where):
    if not isinstance(x, list):
        raise ProblemFormatError(f"{where} must be a list")
    return tuple(_rational(v, where) for v in x)


def _rational_matrix(x, where) -> QMat:
    if not isinstance(x, list) or not x:
        raise ProblemFormatError(f"{where} must be a nonempty list of rows")
    rows = tuple(_rational_list(row, where) for row in x)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ProblemFormatError(f"{where} must be rectangular")
    return qmat(rows)


def weight_key(chi: IntVec) -> str:
    return ",".join(str(int(x)) for x in chi)


def parse_int_vector(text: str, rank: int, what: str) -> IntVec:
    """The comma-separated integers of text (a weight key, a vector flag),
    e.g. "1,-2,0", checked to have rank entries; what names them in errors."""
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ProblemFormatError(f"malformed {what} {text!r}") from exc
    if len(vec) != rank:
        raise ProblemFormatError(f"{what} {text!r} has rank {len(vec)}, expected {rank}")
    return vec


def load_torus_problem(obj) -> tuple[TorusRep, RepVector]:
    """Parse {"rank", "weights", "vector", optional "finite_group"}."""
    _require_keys(obj, ("rank", "weights", "vector"), ("finite_group",), "problem")
    rank = _int(obj["rank"], "rank")
    if rank < 1:
        raise ProblemFormatError("rank must be positive")
    if not isinstance(obj["weights"], list) or not obj["weights"]:
        raise ProblemFormatError("weights must be a nonempty list")
    spaces = []
    for entry in obj["weights"]:
        _require_keys(entry, ("chi", "dim"), (), "weight entry")
        chi = _int_list(entry["chi"], "chi")
        if len(chi) != rank:
            raise ProblemFormatError(f"weight {chi} has the wrong rank")
        spaces.append((chi, _int(entry["dim"], "dim")))
    finite = None
    if "finite_group" in obj:
        finite = _load_finite_group(obj["finite_group"], rank)
    rep = TorusRep(rank, tuple(spaces), finite)
    return rep, _load_vector(obj["vector"], rep, "vector")


def load_torus_vector(obj, rep: TorusRep) -> RepVector:
    """Parse the "vector" of a problem object whose module the caller has
    already loaded as rep (orbit-eq's second file, spelled as the first)."""
    _require_keys(obj, ("rank", "weights", "vector"), ("finite_group",), "problem")
    return _load_vector(obj["vector"], rep, "vector")


def _load_vector(entries, rep: TorusRep, name: str) -> RepVector:
    """Parse a list of {"chi", "coords"} components into a vector of rep."""
    if not isinstance(entries, list):
        raise ProblemFormatError(f"{name} must be a list of components")
    comps = {}
    for entry in entries:
        _require_keys(entry, ("chi", "coords"), (), f"{name} component")
        chi = _int_list(entry["chi"], "chi")
        if chi in comps:
            raise ProblemFormatError(f"duplicate {name} component at weight {chi}")
        comps[chi] = _rational_list(entry["coords"], "coords")
    vec = RepVector(rep.rank, comps)
    validate_vector(rep, vec)
    return vec


def _load_finite_group(obj, rank) -> FiniteGroup:
    _require_keys(obj, ("elements", "table"), (), "finite_group")
    if not isinstance(obj["elements"], list) or not obj["elements"]:
        raise ProblemFormatError("finite_group.elements must be a nonempty list")
    elements = []
    for entry in obj["elements"]:
        _require_keys(entry, ("lattice", "blocks"), (), "finite group element")
        lattice = _int_matrix(entry["lattice"], "lattice")
        if len(lattice) != rank or any(len(r) != rank for r in lattice):
            raise ProblemFormatError("lattice action must be rank x rank")
        if not isinstance(entry["blocks"], dict):
            raise ProblemFormatError("blocks must be an object keyed by weight")
        blocks = {}
        for key, mat in entry["blocks"].items():
            chi = parse_int_vector(key, rank, "weight key")
            blocks[chi] = _rational_matrix(mat, f"block at {key}")
        elements.append(FiniteElement(lattice, blocks))
    return FiniteGroup(tuple(elements), _int_matrix(obj["table"], "table"))


def load_torus_decomposition(obj, rep: TorusRep):
    """Parse {"s", "n", "cocharacter"} against an existing module."""
    _require_keys(obj, ("s", "n", "cocharacter"), (), "decomposition")
    lam = _int_list(obj["cocharacter"], "cocharacter")
    if len(lam) != rep.rank:
        raise ProblemFormatError("cocharacter has the wrong rank")
    return _load_vector(obj["s"], rep, "s"), _load_vector(obj["n"], rep, "n"), lam


def load_gln_matrix(obj) -> QMat:
    """Parse {"n", "matrix"}."""
    _require_keys(obj, ("n", "matrix"), (), "matrix problem")
    n = _int(obj["n"], "n")
    if n < 1:
        raise ProblemFormatError("n must be positive")
    m = _rational_matrix(obj["matrix"], "matrix")
    if len(m) != n or any(len(r) != n for r in m):
        raise ProblemFormatError("matrix must be n x n")
    return m


def load_gln_pair(obj) -> tuple[QMat, QMat]:
    """Parse {"n", "x", "y"}."""
    _require_keys(obj, ("n", "x", "y"), (), "matrix pair")
    n = _int(obj["n"], "n")
    x = _rational_matrix(obj["x"], "x")
    y = _rational_matrix(obj["y"], "y")
    for m in (x, y):
        if len(m) != n or any(len(r) != n for r in m):
            raise ProblemFormatError("matrices must be n x n")
    return x, y


def load_gln_cocharacter(obj) -> GLnCocharacter:
    """Parse {"g", "exponents"}."""
    _require_keys(obj, ("g", "exponents"), (), "cocharacter")
    g = _rational_matrix(obj["g"], "g")
    exps = _int_list(obj["exponents"], "exponents")
    return GLnCocharacter(g, exps)


def load_gln_decomposition(obj):
    """Parse {"s", "n", "cocharacter"} in the matrix model."""
    _require_keys(obj, ("s", "n", "cocharacter"), (), "decomposition")
    s = _rational_matrix(obj["s"], "s")
    n = _rational_matrix(obj["n"], "n")
    lam = load_gln_cocharacter(obj["cocharacter"])
    return s, n, lam


def vector_to_json(v: RepVector) -> list:
    return [
        {"chi": list(chi), "coords": [format_rational(c) for c in coords]}
        for chi, coords in sorted(v.components.items())
    ]


def matrix_to_json(m: QMat) -> list:
    return [[format_rational(x) for x in row] for row in m]


def cocharacter_to_json(lam: GLnCocharacter) -> dict:
    return {"g": matrix_to_json(lam.g), "exponents": list(lam.exponents)}


def barycentric_to_json(bary: dict[IntVec, Fraction]) -> dict:
    return {weight_key(chi): format_rational(c) for chi, c in sorted(bary.items())}


def torus_problem_to_json(rep: TorusRep, v: RepVector) -> dict:
    """Inverse of load_torus_problem, used for replayable failure records."""
    out = {
        "rank": rep.rank,
        "weights": [{"chi": list(chi), "dim": d} for chi, d in rep.weight_spaces],
        "vector": vector_to_json(v),
    }
    if rep.finite is not None:
        out["finite_group"] = {
            "elements": [
                {
                    "lattice": [list(row) for row in el.lattice],
                    "blocks": {
                        weight_key(chi): matrix_to_json(block)
                        for chi, block in sorted(el.blocks.items())
                    },
                }
                for el in rep.finite.elements
            ],
            "table": [list(row) for row in rep.finite.table],
        }
    return out


def gln_problem_to_json(x: QMat) -> dict:
    return {"n": len(x), "matrix": matrix_to_json(x)}


def read_json(path: str):
    """The JSON document at path; a file that cannot be opened or decoded
    raises ProblemFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(str(exc)) from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int over the digit limit
        raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON (nested too deeply)") from exc
