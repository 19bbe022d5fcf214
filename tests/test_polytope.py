import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jkvkit import oracles, polytope, suites
from jkvkit.checks import ProblemFormatError
from jkvkit.intlinalg import int_kernel, pairing, primitive
from jkvkit.lp import INFEASIBLE, OPTIMAL
from jkvkit.polytope import (
    WeightSet,
    _barycentric_lp,
    find_functional,
    minimal_face_origin,
    origin_in_relint,
)
from jkvkit.ratlinalg import scaled
from jkvkit.torus import support

SRC = Path(__file__).resolve().parent.parent / "src"


def ws(*pts):
    return WeightSet(len(pts[0]), tuple(pts)) if pts else WeightSet(1, ())


def test_weightset_validation():
    """Malformed weights are the input's fault: ProblemFormatError, as in
    TorusRep, never a plain ValueError (an internal error in the CLI)."""
    with pytest.raises(ProblemFormatError, match="^weights must be pairwise distinct$"):
        WeightSet(2, ((1, 0), (1, 0)))
    with pytest.raises(ProblemFormatError, match="^weight rank mismatch$"):
        WeightSet(2, ((1,),))


@pytest.mark.parametrize("rank", [-1, 2.5, Fraction(2), "2", None])
def test_weightset_rank_must_be_a_nonnegative_integer(rank):
    with pytest.raises(ProblemFormatError):
        WeightSet(rank, ())


def test_weightset_rank_zero_and_integer_likes():
    assert WeightSet(0, ((),)).rank == 0
    assert origin_in_relint(WeightSet(0, ((),))).barycentric == {(): 1}
    assert type(WeightSet(True, ((1,),)).rank) is int


def test_clear_to_primitive():
    assert primitive(scaled((Fraction(1, 2), Fraction(-3, 2)))[0]) == (1, -3)
    assert primitive(scaled((Fraction(2), Fraction(4)))[0]) == (1, 2)
    assert primitive(scaled(())[0]) == ()


def test_relint_examples():
    res = origin_in_relint(ws((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert res.inside
    assert res.barycentric == {p: Fraction(1, 4) for p in [(1, 0), (-1, 0), (0, 1), (0, -1)]}

    res = origin_in_relint(ws((1, 0), (0, 1)))
    assert not res.inside
    lam = res.separator
    assert all(pairing(lam, p) >= 0 for p in [(1, 0), (0, 1)])
    assert any(pairing(lam, p) > 0 for p in [(1, 0), (0, 1)])

    assert origin_in_relint(ws((0, 0))).inside
    assert origin_in_relint(WeightSet(3, ())).inside


def test_minimal_face_examples():
    face, supporter = minimal_face_origin(ws((0, 0), (1, 0), (0, 1)))
    assert face == ((0, 0),)
    assert pairing(supporter, (1, 0)) >= 1
    assert pairing(supporter, (0, 1)) >= 1
    assert pairing(supporter, (0, 0)) == 0

    face, supporter = minimal_face_origin(ws((1, 1), (-1, -1), (2, 0)))
    assert face == ((-1, -1), (1, 1))
    assert supporter == (1, -1)
    assert origin_in_relint(WeightSet(2, face)).barycentric == {
        (1, 1): Fraction(1, 2),
        (-1, -1): Fraction(1, 2),
    }

    assert minimal_face_origin(ws((0, 0))) == (((0, 0),), (0, 0))

    assert minimal_face_origin(ws((1, 0), (1, 1))) is None


def test_separator_of_a_set_outside_the_hull_is_uniformly_positive():
    res = origin_in_relint(ws((1, 0), (1, 1)))
    assert pairing(res.separator, (1, 0)) >= 1 and pairing(res.separator, (1, 1)) >= 1

    res = origin_in_relint(ws((1,), (-1,)))
    assert res.inside and res.separator is None

    assert origin_in_relint(ws((2,))).separator == (1,)

    res = origin_in_relint(WeightSet(2, ()))
    assert (res.inside, res.separator, res.barycentric) == (True, None, {})


def _positive_circuit_union(points):
    """Independent ground truth: union of supports of minimal positive
    kernel relations among the points (solving the equality system on every
    candidate support subset)."""
    from jkvkit.ratlinalg import kernel_basis, qmat

    m = len(points)
    union = set()
    found = False
    for mask in range(1, 2**m):
        subset = [i for i in range(m) if mask >> i & 1]
        cols = qmat(tuple(zip(*[points[i] for i in subset])))
        kern = kernel_basis(cols)
        if len(kern) != 1:
            continue
        v = kern[0]
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            found = True
            union.update(subset)
    return found, union


def _oracle_relint(points):
    found, union = _positive_circuit_union(points)
    return found and union == set(range(len(points)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_positive_circuits_match_fraction_enumeration(data):
    """The oracle's integer-column enumeration over subsets of at most
    rank + 1 points gives the full Fraction enumeration's answer."""
    rank = data.draw(st.integers(1, 3))
    npts = data.draw(st.integers(0, 6))
    pts = set()
    for _ in range(npts):
        pts.add(tuple(data.draw(st.integers(-4, 4)) for _ in range(rank)))
    pts = sorted(pts)
    assert oracles._positive_circuits(pts) == _positive_circuit_union(pts)


@pytest.mark.parametrize(
    "pts",
    [
        [(1, 0), (0, 1), (-1, -1)],  # one circuit of exactly rank + 1 points
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(-1, 2), (0, 0), (3, 1)],  # contains the origin
        [(k,) for k in (-3, -2, -1, 1, 2, 3)],  # 6 collinear points
    ],
)
def test_positive_circuits_explicit_cases(pts):
    pts = sorted(pts)
    expected = _positive_circuit_union(pts)
    assert oracles._positive_circuits(pts) == expected
    assert expected[0]


@pytest.mark.parametrize(
    "pts, calls",
    [
        ([(k,) for k in (-3, -2, -1, 1, 2, 3)], 21),
        ([(1, 0), (0, 1), (-1, -1), (2, 3), (-4, 1)], 25),
        ([(1, 0, 0), (0, 1, 0)], 3),
    ],
)
def test_positive_circuits_solve_only_small_subsets(monkeypatch, pts, calls):
    """int_kernel runs once per subset of at most min(m, rank + 1) points."""
    m, rank = len(pts), len(pts[0])
    assert calls == sum(comb(m, k) for k in range(1, min(m, rank + 1) + 1))
    seen = []

    def counting_kernel(rows, cols):
        seen.append(cols)
        return int_kernel(rows, cols)

    monkeypatch.setattr(oracles, "int_kernel", counting_kernel)
    oracles._positive_circuits(sorted(pts))
    assert len(seen) == calls
    assert max(seen) == min(m, rank + 1)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_relint_against_circuit_oracle(data):
    rank = data.draw(st.integers(1, 3))
    npts = data.draw(st.integers(1, 5))
    pts = set()
    for _ in range(npts):
        pts.add(tuple(data.draw(st.integers(-3, 3)) for _ in range(rank)))
    pts = sorted(pts)
    res = origin_in_relint(WeightSet(rank, tuple(pts)))
    assert res.inside == _oracle_relint(pts)
    found, union = _positive_circuit_union(pts)
    face = minimal_face_origin(WeightSet(rank, tuple(pts)))
    assert (face is not None) == found
    # trichotomy: relint true <=> the minimal face is the whole set
    if face is not None:
        assert set(face[0]) == {pts[i] for i in union}
        assert res.inside == (set(face[0]) == set(pts))
    # the separator is >= 1 on every point exactly when no positive circuit exists
    uniform = res.separator is not None and all(pairing(res.separator, p) >= 1 for p in pts)
    assert uniform == (not found)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_uniform_separator_vs_box_search(data):
    """Box-exhaustive completeness: any box functional >= 1 on every point
    implies the relint separator is one, and separators landing in the box
    match the box search."""
    rank = data.draw(st.integers(1, 3))
    npts = data.draw(st.integers(1, 4))
    pts = sorted({tuple(data.draw(st.integers(-2, 2)) for _ in range(rank)) for _ in range(npts)})
    box_hit = None
    for lam in product(range(-4, 5), repeat=rank):
        if all(pairing(lam, p) >= 1 for p in pts):
            box_hit = lam
            break
    sep = origin_in_relint(WeightSet(rank, tuple(pts))).separator
    lp_hit = sep if sep is not None and all(pairing(sep, p) >= 1 for p in pts) else None
    if box_hit is not None:
        assert lp_hit is not None
    if lp_hit is not None and max(abs(x) for x in lp_hit) <= 4:
        assert box_hit is not None


def test_face_is_order_independent():
    pts = [(1, 1), (-1, -1), (2, 0), (3, 1)]
    a = minimal_face_origin(WeightSet(2, tuple(pts)))
    b = minimal_face_origin(WeightSet(2, tuple(reversed(pts))))
    assert a == b


def _peeled_minimal_face(rank, points):
    """Reference minimal face: drop the points a nonnegative functional is
    positive on until none exists, then support and solve on what is left."""
    if not points:
        return (), (0,) * rank, {}
    if _barycentric_lp(points)[0] != OPTIMAL:
        return None
    face = list(points)
    while (lam := find_functional((), face)) is not None:
        face = [p for p in face if pairing(lam, p) == 0]
    outside = [p for p in points if p not in face]
    supporter = find_functional(face, outside, uniform=True) if outside else (0,) * rank
    _, _, coeffs = _barycentric_lp(face)
    return tuple(face), supporter, dict(zip(face, coeffs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimal_face_and_separator_match_reference(data):
    rank = data.draw(st.integers(1, 4))
    npts = data.draw(st.integers(0, 6))
    pts = tuple(
        sorted({tuple(data.draw(st.integers(-3, 3)) for _ in range(rank)) for _ in range(npts)})
    )
    cert = minimal_face_origin(WeightSet(rank, pts))
    got = None
    if cert is not None:
        face, supporter = cert
        got = face, supporter, origin_in_relint(WeightSet(rank, face)).barycentric
    assert got == _peeled_minimal_face(rank, pts)
    if pts:
        uniform = find_functional((), pts, uniform=True)
        assert (uniform is None) == (cert is not None)
        if uniform is not None:
            assert origin_in_relint(WeightSet(rank, pts)).separator == uniform


def _barycentric_first_relint(points):
    """The relint decision with the barycentric LP asked first: the separator
    LP runs only when that LP is infeasible, the supporter when eps = 0."""
    if not points:
        return True, {}, None
    status, eps, coeffs = _barycentric_lp(points)
    if status == INFEASIBLE:
        return False, None, find_functional((), points, uniform=True)
    if eps > 0:
        return True, dict(zip(points, coeffs)), None
    return False, None, find_functional((), points, uniform=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_separator_first_matches_barycentric_first(data):
    rank = data.draw(st.integers(1, 4))
    npts = data.draw(st.integers(0, 7))
    pts = tuple(
        sorted({tuple(data.draw(st.integers(-3, 3)) for _ in range(rank)) for _ in range(npts)})
    )
    res = origin_in_relint(WeightSet(rank, pts))
    assert (res.inside, res.barycentric, res.separator) == _barycentric_first_relint(pts)


@pytest.mark.parametrize(
    "points, lps",
    [
        (((0, 1), (1, 0)), 1),  # outside the hull: the separator LP alone
        (((-1, 0), (0, -1), (0, 1), (1, 0)), 2),  # relative interior
        (((0, 0), (1, 0)), 3),  # boundary: plus the supporter LP
    ],
)
def test_relint_lp_count(monkeypatch, points, lps):
    calls = []
    original = polytope.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polytope, "solve_lp", counting)
    polytope._relint_cached.__wrapped__(2, points)
    assert len(calls) == lps


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_relint_verdict_matches_barycentric_lp_and_oracle(data):
    """The positive-combination verdict is the max-min LP's eps > 0, and the
    circuit oracle's verdict."""
    rank = data.draw(st.integers(0, 4))
    npts = data.draw(st.integers(0, 7))
    pts = tuple(
        sorted({tuple(data.draw(st.integers(-3, 3)) for _ in range(rank)) for _ in range(npts)})
    )
    ws = WeightSet(rank, pts)
    verdict = origin_in_relint(ws)
    if pts:
        status, eps, _ = _barycentric_lp(pts)
        assert verdict.inside == (status == OPTIMAL and eps > 0)
    else:
        assert verdict.inside
    assert verdict.inside == oracles.oracle_relint(ws)


def test_relint_at_the_torus_sampler_shape_matches_the_oracle():
    """The supports of sample_torus_instance (rank <= 4, up to MAX_POINTS
    weights, coordinates up to COEFF_BOUND) against the circuit oracle: the
    verdict, and the minimal face as the union of the positive circuits."""
    cfg = oracles.FuzzConfig(seed=7, max_rank=4)
    rng = cfg.rng()
    for _ in range(200):
        _, gamma = oracles.sample_torus_instance(rng, cfg)
        supp = support(gamma)
        pts = supp.sorted_points()
        assert origin_in_relint(supp).inside == oracles.oracle_relint(supp)
        found, union = oracles._positive_circuits(pts)
        expected = tuple(pts[i] for i in sorted(union)) if found or not pts else None
        face = minimal_face_origin(supp)
        assert (None if face is None else face[0]) == expected


def test_jkv_survey_solves_no_barycentric_lp(monkeypatch):
    """The survey suite reads verdicts, faces and supporters only."""
    calls = []
    original = polytope._barycentric_lp
    monkeypatch.setattr(polytope, "_barycentric_lp", lambda pts: calls.append(pts) or original(pts))
    for cache in (polytope._relint_cached, polytope._minimal_face_cached, polytope._barycentric_cached):
        cache.cache_clear()
    for seed in range(30):
        cfg = oracles.FuzzConfig(seed=seed, count=4, max_rank=3, box=2)
        assert suites.run_suite("jkv-survey", cfg).passed
    assert calls == []


def test_corrupted_positive_combination_fails_its_check_under_O():
    """The positive combination is re-checked by `require`, which python -O
    keeps: a combination moved off 0 raises CertificateError."""
    script = (
        "from jkvkit import polytope\n"
        "from jkvkit.checks import CertificateError\n"
        "from jkvkit.lp import LpResult\n"
        "solve = polytope.solve_lp\n"
        "def corrupt(num_vars, cons, objective, nonneg=None):\n"
        "    res = solve(num_vars, cons, objective, nonneg)\n"
        "    if nonneg == [True] * num_vars and res.x is not None:\n"
        "        return LpResult(res.status, res.value, (res.x[0] + 1, *res.x[1:]))\n"
        "    return res\n"
        "polytope.solve_lp = corrupt\n"
        "try:\n"
        "    polytope.origin_in_relint(polytope.WeightSet(1, ((-1,), (1,))))\n"
        "except CertificateError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "the positive combination is 0\n", "")
