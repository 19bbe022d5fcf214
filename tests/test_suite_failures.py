"""Planted faults: each suite's system function is patched to return a wrong
answer, and the report must name the clause and the failing indices, with a
payload that reloads through the ``serialize`` loaders to the sampled
instance."""

import json
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from jkvkit import gln, oracles, suites, torus
from jkvkit.cli import main
from jkvkit.intlinalg import pairing
from jkvkit.oracles import FuzzConfig
from jkvkit.polys import ONE, poly_add
from jkvkit.polytope import WeightSet
from jkvkit.ratlinalg import qidentity, qmat, qmul, qsub, qzeros
from jkvkit.serialize import (
    cocharacter_to_json,
    load_gln_cocharacter,
    load_gln_matrix,
    load_torus_problem,
    torus_problem_to_json,
)
from jkvkit.suites import run_suite


def _recorded(monkeypatch, name):
    """The list of every result of oracles.<name> from now on."""
    made = []
    sample = getattr(oracles, name)

    def recorded(*args, **kw):
        made.append(sample(*args, **kw))
        return made[-1]

    monkeypatch.setattr(oracles, name, recorded)
    return made


def _plus(a, b):
    return qsub(a, qsub(qzeros(len(b), len(b)), b))


def _times(c, a):
    return tuple(tuple(c * v for v in row) for row in a)


def _elementary(n):
    """The n x n matrix with a single 1, in row 0 and column 1."""
    return qmat([[int((i, j) == (0, 1)) for j in range(n)] for i in range(n)])


def _indexed(report):
    return [(f.index, f.clause) for f in report.failures]


def _check_torus_payload(payload, rep, gamma):
    assert torus_problem_to_json(*load_torus_problem(payload)) == payload
    assert payload == torus_problem_to_json(rep, gamma)


def _check_matrix_payload(payload, x):
    assert load_gln_matrix(payload) == qmat(x)


def test_limits_reports_a_wrong_limit_at_the_first_box_cocharacter(monkeypatch):
    made = _recorded(monkeypatch, "sample_torus_instance")
    monkeypatch.setattr(suites, "limit", lambda lam, v: "wrong")
    cfg = FuzzConfig(seed=1, count=4)
    report = run_suite("limits", cfg)
    assert [f.index for f in report.failures] == [0, 1, 2, 3]
    for f, (rep, gamma) in zip(report.failures, made, strict=True):
        assert f.clause == f"disagreement at cocharacter {next(torus._box_iter(rep.rank, cfg.box))}"
        _check_torus_payload(f.payload, rep, gamma)


def _stand_in(res, **changes):
    """A stand-in for the relint result: its verdict, coefficients and
    separator as plain fields, with the given ones replaced."""
    fields = {"inside": res.inside, "barycentric": res.barycentric, "separator": res.separator}
    return SimpleNamespace(**{**fields, **changes})


_RELINT_FAULTS = {
    "verdict": lambda res: _stand_in(res, inside=not res.inside),
    "certificate": lambda res: (
        _stand_in(res, barycentric={chi: 2 * c for chi, c in res.barycentric.items()})
        if res.inside
        else _stand_in(res, separator=tuple(-a for a in res.separator))
    ),
    "support": lambda res: (
        _stand_in(res, barycentric=dict(list(res.barycentric.items())[1:])) if res.inside else res
    ),
}


def _relint_clause(fault, truth):
    if fault == "verdict":
        return f"verdict {not truth} against oracle {truth}"
    if fault == "certificate":
        return "barycentric identity" if truth else "separating cocharacter"
    return "barycentric support" if truth else None


@pytest.mark.parametrize("fault", sorted(_RELINT_FAULTS))
def test_semisimple_reports_a_wrong_verdict_or_certificate(monkeypatch, fault):
    made = _recorded(monkeypatch, "sample_weight_set")
    relint = suites.origin_in_relint
    monkeypatch.setattr(suites, "origin_in_relint", lambda ws: _RELINT_FAULTS[fault](relint(ws)))
    report = run_suite("semisimple", FuzzConfig(seed=2, count=10))
    clauses = [_relint_clause(fault, oracles.oracle_relint(ws)) for ws in made]
    assert _indexed(report) == [(i, c) for i, c in enumerate(clauses) if c]
    assert len(set(clauses) - {None}) == (1 if fault == "support" else 2)
    for f in report.failures:
        assert WeightSet(f.payload["rank"], tuple(map(tuple, f.payload["points"]))) == made[f.index]


def test_jkv_survey_reports_a_survey_entry_that_fails_its_certificate(monkeypatch):
    """The certifier passes the constructive cocharacter, its first call, and
    fails every later one: the first semisimple survey entry is named."""
    made = _recorded(monkeypatch, "sample_torus_instance")
    certifier = suites.jkv_certifier

    def failing_after_the_first_call(rep, gamma, s, n):
        certify = certifier(rep, gamma, s, n)
        seen = []

        def check(lam):
            seen.append(lam)
            return certify(lam) if len(seen) == 1 else SimpleNamespace(ok=False)

        return check

    monkeypatch.setattr(suites, "jkv_certifier", failing_after_the_first_call)
    cfg = FuzzConfig(seed=0, count=6, max_rank=3)
    report = run_suite("jkv-survey", cfg)
    want = []
    for i, (rep, gamma) in enumerate(made):
        entries = torus.limit_survey(rep, gamma, cfg.box).semisimple_entries()
        if entries:
            want.append((i, f"semisimple limit at {entries[0][0]} failed its certificate"))
    assert want and _indexed(report) == want
    for f in report.failures:
        _check_torus_payload(f.payload, *made[f.index])


@pytest.mark.parametrize(
    "fault, clause", [("mu", "mu is not n*lam0 + lam"), ("n", "n is not minimal")]
)
def test_compose_mu_reports_a_wrong_composition_with_a_replayable_payload(
    monkeypatch, capsys, tmp_path, fault, clause
):
    """A wrong mu, or an n one too large with its mu, is named on every
    instance; the payload replays through the compose-mu command."""
    made = _recorded(monkeypatch, "sample_torus_instance")
    compose = suites.compose_cocharacters
    calls = []

    def wrong(rep, lam0, lam):
        calls.append((lam0, lam))
        n, mu = compose(rep, lam0, lam)
        if fault == "mu":
            return n, tuple(a + 1 for a in mu)
        return n + 1, tuple((n + 1) * a + b for a, b in zip(lam0, lam))

    monkeypatch.setattr(suites, "compose_cocharacters", wrong)
    report = run_suite("compose-mu", FuzzConfig(seed=3, count=4))
    assert _indexed(report) == [(i, clause) for i in range(4)]
    for f, (rep, gamma), (lam0, lam) in zip(report.failures, made, calls, strict=True):
        assert sorted(f.payload) == ["lambda", "lambda0", "problem"]
        _check_torus_payload(f.payload["problem"], rep, gamma)
        assert (f.payload["lambda0"], f.payload["lambda"]) == (list(lam0), list(lam))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(f.payload["problem"]), encoding="utf-8")
        flags = [f"--{k}={','.join(map(str, f.payload[k]))}" for k in ("lambda0", "lambda")]
        code = main(["compose-mu", "torus", "--file", str(path), *flags])
        out = json.loads(capsys.readouterr().out)
        n, mu = compose(rep, lam0, lam)
        assert code == 0 and (out["n"], out["mu"]) == (n, list(mu))


_SIGN_CLAUSES = (
    "fixed-space intersection relation",
    "positive-part containment",
    "nonnegative-part containment",
)


def _zero_multiple_clause(rep, lam0, lam):
    """The sign clause that n = 0, mu = lam breaks first, or None."""
    pairs = [(pairing(lam0, chi), pairing(lam, chi)) for chi in rep.weights()]
    broken = (
        any(p1 == 0 and p0 != 0 for p0, p1 in pairs),
        any(p0 > 0 and p1 <= 0 for p0, p1 in pairs),
        any(p0 < 0 and p1 >= 0 for p0, p1 in pairs),
    )
    return next((c for c, b in zip(_SIGN_CLAUSES, broken) if b), None)


def test_compose_mu_reports_each_broken_sign_relation(monkeypatch):
    """compose_cocharacters answers n = 0, mu = lam: the first sign relation
    that mu breaks is named; where it breaks none, the limit check may fail."""
    made = _recorded(monkeypatch, "sample_torus_instance")
    calls = []

    def zero_multiple(rep, lam0, lam):
        calls.append((lam0, lam))
        return 0, lam

    monkeypatch.setattr(suites, "compose_cocharacters", zero_multiple)
    report = run_suite("compose-mu", FuzzConfig(seed=3, count=40))
    clauses = [_zero_multiple_clause(rep, *lams) for (rep, _), lams in zip(made, calls)]
    want = [(i, c) for i, c in enumerate(clauses) if c]
    assert {c for _, c in want} == set(_SIGN_CLAUSES)
    assert [(i, c) for i, c in _indexed(report) if c in _SIGN_CLAUSES] == want


def test_compose_mu_reports_a_composed_limit_mismatch(monkeypatch):
    """The limit along mu is wrong: every instance where the limit along
    lam0 and then along lam exists is named."""
    made = _recorded(monkeypatch, "sample_torus_instance")
    compose, limit = suites.compose_cocharacters, suites.limit
    calls = []

    def recorded(rep, lam0, lam):
        calls.append((lam0, lam, compose(rep, lam0, lam)[1]))
        return compose(rep, lam0, lam)[0], calls[-1][2]

    monkeypatch.setattr(suites, "compose_cocharacters", recorded)
    monkeypatch.setattr(
        suites, "limit", lambda lam, v: "wrong" if lam is calls[-1][2] else limit(lam, v)
    )
    report = run_suite("compose-mu", FuzzConfig(seed=3, count=10))
    want = []
    for i, ((_, gamma), (lam0, lam, _)) in enumerate(zip(made, calls, strict=True)):
        v0 = limit(lam0, gamma)
        if v0 is not None and limit(lam, v0) is not None:
            want.append((i, "composed limit mismatch"))
    assert want and _indexed(report) == want


def test_jkv_gln_reports_the_first_false_certificate_clause(monkeypatch):
    made = _recorded(monkeypatch, "sample_rational_spectrum_matrix")
    certify = suites.jkv_gln
    falsified = []

    def wrong(x):
        cert = certify(x)
        falsified.append(list(cert.clauses)[-1])
        return replace(cert, clauses={**cert.clauses, falsified[-1]: False}, ok=False)

    monkeypatch.setattr(suites, "jkv_gln", wrong)
    report = run_suite("jkv-gln", FuzzConfig(seed=5, count=4))
    assert _indexed(report) == list(enumerate(falsified))
    for f, (x, _, _) in zip(report.failures, made, strict=True):
        _check_matrix_payload(f.payload, x)


def _jc_faults(x, s, nm, p):
    """Wrong (s, n, p) triples for x, by the clause each breaks first, with
    whether it breaks that clause for this x."""
    size = len(x)
    one, e = qidentity(size), _elementary(size)
    return {
        "x != s + n": ((s, _plus(nm, one), p), True),
        "parts do not commute": ((_plus(s, e), qsub(nm, e), p), qmul(e, x) != qmul(x, e)),
        "nilpotency": ((qsub(s, one), _plus(nm, one), p), True),
        "semisimplicity of s": ((qmat(x), qzeros(size, size), p), nm != qzeros(size, size)),
        "polynomial witness": ((s, nm, poly_add(p, ONE)), True),
    }


@pytest.mark.parametrize(
    "fault",
    [
        "x != s + n",
        "parts do not commute",
        "nilpotency",
        "semisimplicity of s",
        "polynomial witness",
        "conjugation equivariance",
    ],
)
def test_jordan_chevalley_reports_each_broken_invariant(monkeypatch, fault):
    """The first call of an instance decomposes the sampled x, the second its
    conjugate; the fault corrupts the one that reaches its clause.  The
    clause is named on exactly the instances whose x it breaks; on the others
    the fault may break a later clause."""
    made = _recorded(monkeypatch, "sample_rational_spectrum_matrix")
    decompose = suites.jordan_chevalley
    expected = []

    def wrong(y):
        s, nm, p = decompose(y)
        if fault == "conjugation equivariance":
            if y is made[-1][0]:
                expected.append(True)
                return s, nm, p
            return _plus(s, qidentity(len(y))), qsub(nm, qidentity(len(y))), p
        triple, breaks = _jc_faults(y, s, nm, p)[fault]
        if y is made[-1][0]:
            expected.append(breaks)
        return triple

    monkeypatch.setattr(suites, "jordan_chevalley", wrong)
    report = run_suite("jordan-chevalley", FuzzConfig(seed=6, count=8))
    assert len(expected) == 8 and any(expected)
    named = [(i, c) for i, c in _indexed(report) if c == fault]
    assert named == [(i, fault) for i, breaks in enumerate(expected) if breaks]
    for f in report.failures:
        _check_matrix_payload(f.payload, made[f.index][0])


def test_jordan_chevalley_reports_an_eigenvalue_oracle_disagreement(monkeypatch):
    """The sampler's ground-truth s is off by the identity, so the correct
    decomposition disagrees with it on every instance."""
    made = []
    sample = oracles.sample_rational_spectrum_matrix

    def sample_with_a_wrong_s(rng, n, **kw):
        x, s, nm = sample(rng, n, **kw)
        made.append(x)
        return x, _plus(s, qidentity(n)), nm

    monkeypatch.setattr(oracles, "sample_rational_spectrum_matrix", sample_with_a_wrong_s)
    report = run_suite("jordan-chevalley", FuzzConfig(seed=6, count=3))
    assert _indexed(report) == [(i, "eigenvalue oracle disagreement") for i in range(3)]
    for f, x in zip(report.failures, made, strict=True):
        _check_matrix_payload(f.payload, x)


@pytest.mark.parametrize(
    "fault", ["homomorphism", "sampled matrix must have a limit", "limit equivariance"]
)
def test_levi_homomorphism_reports_a_wrong_levi_part_or_limit(monkeypatch, fault):
    lams = _recorded(monkeypatch, "sample_gln_cocharacter")
    parabolics = _recorded(monkeypatch, "sample_parabolic_element")
    xs = _recorded(monkeypatch, "sample_matrix_with_limit")
    levi, limit_conj = suites.levi_part, suites.limit_conj
    if fault == "homomorphism":
        monkeypatch.setattr(suites, "levi_part", lambda lam, p: _times(2, levi(lam, p)))
    elif fault == "sampled matrix must have a limit":
        monkeypatch.setattr(suites, "limit_conj", lambda lam, y: None)
    else:

        def wrong(lam, y):
            val = limit_conj(lam, y)
            return val if y is xs[-1] else _plus(val, qidentity(lam.n))

        monkeypatch.setattr(suites, "limit_conj", wrong)
    report = run_suite("levi-homomorphism", FuzzConfig(seed=7, count=4))
    assert _indexed(report) == [(i, fault) for i in range(4)]
    for f in report.failures:
        lam, x = lams[f.index], xs[f.index]
        p1, p2 = parabolics[2 * f.index : 2 * f.index + 2]
        assert sorted(f.payload) == ["cocharacter", "p1", "p2", "problem"]
        _check_matrix_payload(f.payload["problem"], x)
        back = load_gln_cocharacter(f.payload["cocharacter"])
        assert cocharacter_to_json(back) == f.payload["cocharacter"] == cocharacter_to_json(lam)
        for key, p in (("p1", p1), ("p2", p2)):
            assert load_gln_matrix({"n": lam.n, "matrix": f.payload[key]}) == p


def _bruhat_faults(p, w, u):
    """Wrong (p, w, u) triples, by the clause each breaks first, with whether
    it breaks that clause for this factorization."""
    size = len(w)
    half = Fraction(1, 2)
    return {
        "product identity": ((_times(2, p), w, u), True),
        "p not upper triangular": ((qmul(p, w), qidentity(size), u), w != qidentity(size)),
        "u not upper unitriangular": ((_times(2, p), w, _times(half, u)), True),
        "w not a permutation": ((_times(half, p), _times(2, w), u), True),
    }


@pytest.mark.parametrize(
    "fault",
    [
        "product identity",
        "p not upper triangular",
        "u not upper unitriangular",
        "w not a permutation",
    ],
)
def test_bruhat_reports_each_broken_factor(monkeypatch, fault):
    made = _recorded(monkeypatch, "sample_invertible_matrix")
    factor = gln.bruhat
    expected = []

    def wrong(g):
        triple, breaks = _bruhat_faults(*factor(g))[fault]
        expected.append(breaks)
        return triple

    monkeypatch.setattr(gln, "bruhat", wrong)
    report = run_suite("bruhat", FuzzConfig(seed=8, count=8))
    assert _indexed(report) == [(i, fault) for i, breaks in enumerate(expected) if breaks]
    assert report.failures
    for f in report.failures:
        _check_matrix_payload(f.payload, made[f.index])


@pytest.mark.parametrize("fault", ["minimizers", "orbit"])
def test_lambda_min_shift_reports_changed_minimizers_or_split_orbits(monkeypatch, fault):
    """lambda_min answers wrongly for the moved vector, or same_orbit finds no
    element; instances whose box is too small are skipped."""
    made = _recorded(monkeypatch, "sample_torus_instance")
    minimize = suites.lambda_min
    if fault == "minimizers":
        monkeypatch.setattr(
            suites,
            "lambda_min",
            lambda rep, v, box: minimize(rep, v, box) if v is made[-1][1] else (-1, ()),
        )
    else:
        monkeypatch.setattr(suites, "same_orbit", lambda rep, v, w: None)
    cfg = FuzzConfig(seed=9, count=6, max_rank=3)
    report = run_suite("lambda-min-shift", cfg)
    want = []
    for i, (rep, gamma) in enumerate(made):
        try:
            _, wits = torus.lambda_min(rep, gamma, cfg.box)
        except torus.BoxTooSmallError:
            continue
        if fault == "minimizers":
            want.append((i, "minimizer set changed under the torus action"))
        else:
            want.append((i, f"shifted limits not in one orbit at {wits[0]}"))
    assert want and _indexed(report) == want
    for f in report.failures:
        _check_torus_payload(f.payload, *made[f.index])
