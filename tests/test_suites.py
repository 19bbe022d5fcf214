import random

import pytest

from jkvkit import oracles, suites
from jkvkit.checks import ProblemFormatError
from jkvkit.oracles import FuzzConfig
from jkvkit.ratlinalg import qmat
from jkvkit.serialize import load_gln_matrix, load_torus_problem
from jkvkit.suites import run_suite, suite_names


def test_all_suites_pass_small():
    for name in suite_names():
        report = run_suite(name, FuzzConfig(seed=3, count=10))
        assert report.passed, (name, report.failures[:1])
        assert report.instances == 10
        assert report.suite == name


def test_aliases_resolve():
    assert run_suite("lemma-limits", FuzzConfig(seed=1, count=2)).suite == "limits"
    assert run_suite("relint", FuzzConfig(seed=1, count=2)).suite == "semisimple"


def test_unknown_suite():
    known = ", ".join(suite_names())
    with pytest.raises(ProblemFormatError) as info:
        run_suite("no-such-suite", FuzzConfig(count=1))
    assert str(info.value) == f"unknown suite 'no-such-suite'; known: {known}"


def test_run_suite_feeds_one_seeded_stream_through_every_index(monkeypatch):
    draws = []

    def stub(rng, cfg):
        draws.append(rng.random())
        idx = len(draws) - 1
        if idx in (1, 4, 5):
            return f"clause {idx}", {"draw": draws[idx]}
        return None

    monkeypatch.setitem(suites._SUITES, "stub", stub)
    report = run_suite("stub", FuzzConfig(seed=11, count=7))
    stream = random.Random(11)
    assert draws == [stream.random() for _ in range(7)]
    assert (report.suite, report.seed, report.count, report.instances) == ("stub", 11, 7, 7)
    assert [(f.index, f.clause, f.payload) for f in report.failures] == [
        (i, f"clause {i}", {"draw": draws[i]}) for i in (1, 4, 5)
    ]
    assert not report.passed and report.wall_time > 0


def test_jkv_survey_searches_the_stabilizers_of_gamma_once(monkeypatch):
    import jkvkit.oracles as oracles_mod
    import jkvkit.torus as torus_mod

    finite_instances = []
    self_transfers = []
    sample, transfers = oracles_mod.sample_torus_instance, torus_mod._transfers

    def counted_sample(rng, cfg):
        rep, gamma = sample(rng, cfg)
        if rep.finite is not None:
            finite_instances.append(gamma)
        return rep, gamma

    def counted_transfers(rep, v, target):
        if v is target:
            self_transfers.append(v)
        return transfers(rep, v, target)

    monkeypatch.setattr(oracles_mod, "sample_torus_instance", counted_sample)
    monkeypatch.setattr(torus_mod, "_transfers", counted_transfers)
    report = run_suite("jkv-survey", FuzzConfig(seed=3, count=10))
    assert report.passed and finite_instances
    assert self_transfers == finite_instances


def test_reports_are_deterministic():
    a = run_suite("theorem", FuzzConfig(seed=5, count=15))
    b = run_suite("theorem", FuzzConfig(seed=5, count=15))
    assert a.failures == b.failures and a.instances == b.instances


def test_failure_payloads_replay(monkeypatch):
    """Corrupt one invariant check so a failure record is produced, then
    reload its serialized input bit-exactly."""
    import jkvkit.suites as suites_mod

    original = suites_mod._check_theorem_instance

    def broken(rep, gamma, box):
        res = original(rep, gamma, box)
        return res or "forced failure"

    monkeypatch.setattr(suites_mod, "_check_theorem_instance", broken)
    report = run_suite("theorem", FuzzConfig(seed=8, count=3))
    assert not report.passed and len(report.failures) == 3
    for f in report.failures:
        rep, gamma = load_torus_problem(f.payload)
        assert rep.rank == f.payload["rank"]


def test_matrix_suite_failure_payloads_replay(monkeypatch):
    """Swap the sampler's ground-truth parts so every jkv-gln instance fails,
    then reload each failure's matrix and find the sampled one."""
    sampled = []
    sample = oracles.sample_rational_spectrum_matrix

    def recorded_sample(rng, n, **kw):
        x, s, nm = sample(rng, n, **kw)
        sampled.append(x)
        return x, nm, s

    monkeypatch.setattr(oracles, "sample_rational_spectrum_matrix", recorded_sample)
    report = run_suite("jkv-gln", FuzzConfig(seed=4, count=4))
    assert [f.index for f in report.failures] == [0, 1, 2, 3]
    for f, x in zip(report.failures, sampled, strict=True):
        assert f.clause == "decomposition disagrees with the construction ground truth"
        assert load_gln_matrix(f.payload) == qmat(x)


def _scaled(v):
    """2v, a new vector."""
    from jkvkit.torus import RepVector

    return RepVector(v.rank, {chi: tuple(2 * c for c in t) for chi, t in v.components.items()})


def _corrupted_cocharacter(rep, gamma, box):
    """The last cocharacter in the box whose limit is semisimple and nonzero,
    or None: the one entry whose value the patched survey scales."""
    from jkvkit.torus import limit_survey

    found = None
    for lam, val in limit_survey(rep, gamma, box).semisimple_entries():
        if not val.is_zero():
            found = lam
    return found


def _scaling_survey(limit_survey):
    """limit_survey with the value of one semisimple entry, the one at
    _corrupted_cocharacter, replaced by a scaled copy: that cocharacter gets
    a fresh code whose face holds the scaled value."""
    from jkvkit.torus import _box_iter

    def survey(rep, gamma, box=3):
        res = limit_survey(rep, gamma, box)
        bad = _corrupted_cocharacter(rep, gamma, box)
        for k, lam in enumerate(_box_iter(res.rank, res.box)):
            if lam == bad:
                fresh = max(res.faces) + 1
                res.faces[fresh] = _scaled(res.faces[res.codes[k]][0]), True
                res.codes[k] = fresh
        return res

    return survey


def _reference_semisimple_limits(rep, gamma, box):
    """(cocharacter, limit) of every semisimple box limit, one limit per
    entry, with the limit at _corrupted_cocharacter scaled."""
    from jkvkit.polytope import origin_in_relint
    from jkvkit.torus import _box_iter, limit, support

    bad = _corrupted_cocharacter(rep, gamma, box)
    for lam in _box_iter(rep.rank, box):
        val = limit(lam, gamma)
        if val is not None and origin_in_relint(support(val)).inside:
            yield lam, _scaled(val) if lam == bad else val


def _reference_jkv_survey(rng, cfg):
    """jkv-survey with a fresh jkv_certify for every entry."""
    from jkvkit import torus
    from jkvkit.serialize import torus_problem_to_json

    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    dec = torus.jkv_decompose(rep, gamma)
    for lam, s in _reference_semisimple_limits(rep, gamma, cfg.box):
        if s != dec.s:
            clause = f"semisimple limit at {lam} is not the constructive part"
        elif not torus.jkv_certify(rep, gamma, dec.s, dec.n, lam).ok:
            clause = f"semisimple limit at {lam} failed its certificate"
        else:
            continue
        return clause, torus_problem_to_json(rep, gamma)
    return None


def _reference_commuting(rng, cfg):
    """commuting with a fresh limit at the minimizer for every entry."""
    from jkvkit import torus
    from jkvkit.serialize import torus_problem_to_json

    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    try:
        _, wits = torus.lambda_min(rep, gamma, cfg.box)
    except torus.BoxTooSmallError:
        return None
    for lam, val in _reference_semisimple_limits(rep, gamma, cfg.box):
        if val != torus.limit(wits[0], gamma):
            clause = f"limit at {lam} differs from the limit at the minimizer"
            return clause, torus_problem_to_json(rep, gamma)
    return None


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_orbit_failures_name_the_first_entry_as_the_per_entry_loop_does(monkeypatch, seed):
    """With one semisimple survey value scaled, jkv-survey and commuting
    report the same index, clause and payload as loops that check every
    entry."""
    monkeypatch.setattr(suites, "limit_survey", _scaling_survey(suites.limit_survey))
    monkeypatch.setitem(suites._SUITES, "ref-jkv-survey", _reference_jkv_survey)
    monkeypatch.setitem(suites._SUITES, "ref-commuting", _reference_commuting)
    for name in ("jkv-survey", "commuting"):
        cfg = FuzzConfig(seed=seed, count=8)
        got = run_suite(name, cfg).failures
        want = run_suite(f"ref-{name}", cfg).failures
        assert got and [(f.index, f.clause, f.payload) for f in got] == [
            (f.index, f.clause, f.payload) for f in want
        ]


def test_a_constructive_decomposition_that_fails_its_certificate_is_a_clause(monkeypatch):
    """Corrupt the constructive n of instance 2 only: jkv-survey names the
    instance, with the clause, rather than raising CertificateError."""
    from jkvkit import torus
    from jkvkit.serialize import torus_problem_to_json

    parts = torus._constructive_parts
    instances = []

    def corrupted(rep, gamma):
        s, n, lam = parts(rep, gamma)
        instances.append((rep, gamma))
        if len(instances) == 3:
            n = torus.vec_add(n, gamma)  # s + n is now 2 gamma
        return s, n, lam

    monkeypatch.setattr(torus, "_constructive_parts", corrupted)
    report = run_suite("jkv-survey", FuzzConfig(seed=0, count=5))
    rep, gamma = instances[2]
    assert len(instances) == 5 and not gamma.is_zero()
    assert [(f.index, f.clause, f.payload) for f in report.failures] == [
        (2, "constructive decomposition failed its own certificate", torus_problem_to_json(rep, gamma))
    ]


def _reference_limit_conjugacy(rng, cfg):
    """limit-conjugacy with the three limit checks run for every limit found."""
    from jkvkit.gln import central_cocharacter, conj_limiter
    from jkvkit.ratlinalg import qmul
    from jkvkit.serialize import gln_problem_to_json

    n = rng.randint(2, cfg.max_size)
    x, _, _ = oracles.sample_rational_spectrum_matrix(rng, n, diagonalizable=True)
    limit_of = conj_limiter(x)
    clause = None
    found = tries = 0
    while found < 5 and tries < 200:
        tries += 1
        val = limit_of(oracles.sample_gln_cocharacter(rng, n))
        if val is None:
            continue
        found += 1
        if not suites.is_semisimple_matrix(val):
            clause = "limit of a semisimple matrix must stay semisimple"
            break
        g = suites.rational_conjugacy(val, x)
        if g is None:
            clause = "limit not conjugate to the input"
            break
        if qmul(g, val) != qmul(x, g):
            clause = "conjugacy witness failed re-verification"
            break
    if found < 5 and clause is None:
        val = limit_of(central_cocharacter(n))
        if val != x or suites.rational_conjugacy(val, x) is None:
            clause = "central limit must be the matrix itself"
    if clause:
        return clause, gln_problem_to_json(x)
    return None


def _double_corner(g):
    return tuple(tuple(2 * v if i == j == 0 else v for j, v in enumerate(row)) for i, row in enumerate(g))


@pytest.mark.parametrize("failing", ["not conjugate", "not semisimple", "by value"])
def test_limit_conjugacy_reports_match_the_per_limit_loop(monkeypatch, failing):
    """With the limit checks failing everywhere or on a value-dependent
    subset of limits, limit-conjugacy reports the same index, clause and
    payload as a loop that checks every limit it finds."""
    conjugacy, semisimple = suites.rational_conjugacy, suites.is_semisimple_matrix
    if failing == "not conjugate":
        monkeypatch.setattr(suites, "rational_conjugacy", lambda v, x: None)
    elif failing == "not semisimple":
        monkeypatch.setattr(suites, "is_semisimple_matrix", lambda v: False)
    else:

        def by_value(v, x):
            g = conjugacy(v, x)
            return {0: g, 1: None, 2: _double_corner(g)}[hash(v) % 3]

        monkeypatch.setattr(suites, "rational_conjugacy", by_value)
        monkeypatch.setattr(suites, "is_semisimple_matrix", lambda v: hash(v) % 5 != 0 and semisimple(v))
    monkeypatch.setitem(suites._SUITES, "ref-limit-conjugacy", _reference_limit_conjugacy)
    clauses = set()
    for seed in (0, 7, 19, 23):
        cfg = FuzzConfig(seed=seed, count=6)
        got = run_suite("limit-conjugacy", cfg).failures
        want = run_suite("ref-limit-conjugacy", cfg).failures
        assert got and [(f.index, f.clause, f.payload) for f in got] == [
            (f.index, f.clause, f.payload) for f in want
        ]
        clauses.update(f.clause for f in got)
    if failing == "by value":
        assert len(clauses) == 3, clauses


def test_limit_conjugacy_decides_each_distinct_limit_once(monkeypatch):
    """is_semisimple_matrix and rational_conjugacy run once per distinct
    limit value of an instance; only the central padding calls
    rational_conjugacy again, on x."""
    instances = []
    limiter, central = suites.conj_limiter, suites.central_cocharacter
    conjugacy, semisimple = suites.rational_conjugacy, suites.is_semisimple_matrix

    def recorded_limiter(x):
        rec = {"x": x, "found": [], "padded": False, "semisimple": [], "conjugacy": []}
        instances.append(rec)
        limit_of = limiter(x)

        def limit(lam):
            val = limit_of(lam)
            if val is not None and not rec["padded"]:
                rec["found"].append(val)
            return val

        return limit

    def recorded_central(n):
        instances[-1]["padded"] = True
        return central(n)

    def recorded_conjugacy(v, x):
        assert x == instances[-1]["x"]
        instances[-1]["conjugacy"].append(v)
        return conjugacy(v, x)

    def recorded_semisimple(v):
        instances[-1]["semisimple"].append(v)
        return semisimple(v)

    monkeypatch.setattr(suites, "conj_limiter", recorded_limiter)
    monkeypatch.setattr(suites, "central_cocharacter", recorded_central)
    monkeypatch.setattr(suites, "rational_conjugacy", recorded_conjugacy)
    monkeypatch.setattr(suites, "is_semisimple_matrix", recorded_semisimple)
    assert run_suite("limit-conjugacy", FuzzConfig(seed=5, count=40)).passed
    assert len(instances) == 40
    repeats = padded = 0
    for rec in instances:
        distinct = list(dict.fromkeys(rec["found"]))
        repeats += len(rec["found"]) - len(distinct)
        padded += rec["padded"]
        assert rec["semisimple"] == distinct
        assert rec["conjugacy"] == distinct + [rec["x"]] * rec["padded"]
    assert repeats >= 20 and padded >= 1, (repeats, padded)
