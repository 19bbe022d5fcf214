import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jkvkit.intlinalg import pairing
from jkvkit.oracles import FuzzConfig, sample_torus_instance
from jkvkit.polytope import WeightSet, origin_in_relint
from jkvkit.torus import (
    BOX_BUDGET,
    BoxTooSmallError,
    FiniteElement,
    FiniteGroup,
    GroupElement,
    RepVector,
    TorusRep,
    act,
    compose_cocharacters,
    fixed_dim,
    is_nilpotent,
    is_semisimple,
    jkv_certifier,
    jkv_certify,
    jkv_decompose,
    lambda_min,
    limit,
    limit_survey,
    same_orbit,
    solve_multiplicative,
    support,
    vec_add,
    vec_sub,
    zero_vector,
)
from jkvkit.torus import _box_iter, _constructive_parts, _transfers

F = Fraction


def rep1(finite=None):
    """Rank-1 module with weights -1, 0, 1, all one-dimensional."""
    return TorusRep(1, (((-1,), 1), ((0,), 1), ((1,), 1)))


def vec(rank, **unused):
    raise NotImplementedError


def rv(rank, comps):
    return RepVector(rank, comps)


def swap_group():
    """Order-2 group swapping the two coordinates of a rank-2 lattice."""
    ident = FiniteElement(
        ((1, 0), (0, 1)),
        {(1, 0): ((F(1),),), (0, 1): ((F(1),),)},
    )
    swap = FiniteElement(
        ((0, 1), (1, 0)),
        {(1, 0): ((F(1),),), (0, 1): ((F(1),),)},
    )
    return FiniteGroup((ident, swap), ((0, 1), (1, 0)))


def swap_rep():
    return TorusRep(2, (((1, 0), 1), ((0, 1), 1)), swap_group())


def test_support_examples():
    assert support(zero_vector(2)).points == ()
    v = rv(2, {(1, 0): (F(1),), (0, 2): (F(3),)})
    assert set(support(v).points) == {(1, 0), (0, 2)}


def test_act_scaling_example():
    rep = TorusRep(1, (((2,), 1),))
    v = rv(1, {(2,): (F(3),)})
    g = GroupElement((F(1, 2),))
    assert act(rep, g, v) == rv(1, {(2,): (F(3, 4),)})


def test_act_preserves_support_and_inverts():
    rep = swap_rep()
    v = rv(2, {(1, 0): (F(2),), (0, 1): (F(-5, 3),)})
    a = GroupElement((F(2), F(-3)), None)
    assert set(support(act(rep, a, v)).points) == set(support(v).points)
    g = GroupElement((F(2), F(7, 5)), 1)
    moved = act(rep, g, v)
    back = same_orbit(rep, moved, v)
    assert back is not None and act(rep, back, moved) == v
    # (a, w)^-1 = (w^-1(a^-1), w^-1); the swap is its own inverse
    ginv = GroupElement((F(5, 7), F(1, 2)), 1)
    assert act(rep, ginv, moved) == v
    assert act(rep, g, act(rep, ginv, v)) == v


def test_limit_examples():
    v = rv(1, {(-1,): (F(1),), (0,): (F(2),), (2,): (F(3),)})
    assert limit((0,), v) == v
    assert limit((1,), v) is None
    w = rv(1, {(0,): (F(2),), (2,): (F(3),)})
    assert limit((1,), w) == rv(1, {(0,): (F(2),)})


def test_graded_dims():
    rep = rep1()
    assert fixed_dim(rep, (0,)) == 3
    assert fixed_dim(rep, (1,)) == 1


def test_is_semisimple_examples():
    assert is_semisimple(zero_vector(2)).inside
    v = rv(2, {(1, 0): (F(1),), (-1, 0): (F(1),)})
    res = is_semisimple(v)
    assert res.inside and res.barycentric is not None and res.separator is None
    w = rv(2, {(1, 0): (F(1),), (1, 1): (F(1),)})
    res = is_semisimple(w)
    assert not res.inside and res.barycentric is None
    lam = res.separator
    lim = limit(lam, w)
    assert lim is not None and lim != w


def test_is_nilpotent_examples():
    ok, lam = is_nilpotent(zero_vector(1), WeightSet(1, ((1,),)))
    assert ok and lam == (0,)
    v = rv(1, {(1,): (F(1),)})
    ok, lam = is_nilpotent(v, WeightSet(1, ()))
    assert ok and pairing(lam, (1,)) >= 1
    ok, lam = is_nilpotent(v, WeightSet(1, ((1,),)))
    assert not ok and lam is None


def test_jkv_decompose_semisimple_case():
    rep = rep1()
    v = rv(1, {(-1,): (F(2),), (1,): (F(5),)})
    d = jkv_decompose(rep, v)
    assert d.s == v and d.n.is_zero() and d.cocharacter == (0,)
    assert d.report.ok


def test_jkv_decompose_mixed_case():
    rep = rep1()
    g = rv(1, {(0,): (F(2),), (1,): (F(3),)})
    d = jkv_decompose(rep, g)
    assert d.s == rv(1, {(0,): (F(2),)})
    assert d.n == rv(1, {(1,): (F(3),)})
    assert d.cocharacter == (1,)


def test_jkv_decompose_nilpotent_case():
    rep = rep1()
    g = rv(1, {(1,): (F(3),)})
    d = jkv_decompose(rep, g)
    assert d.s.is_zero() and d.n == g and d.cocharacter == (1,)


def test_jkv_decompose_zero():
    rep = rep1()
    d = jkv_decompose(rep, zero_vector(1))
    assert d.s.is_zero() and d.n.is_zero() and d.cocharacter == (0,)


def test_jkv_certify_rejects_bad_decomposition():
    rep = rep1()
    g = rv(1, {(-1,): (F(1),), (1,): (F(1),)})  # semisimple, nonzero
    rept = jkv_certify(rep, g, zero_vector(1), g, (0,))
    assert not rept.ok
    assert rept.clauses["limit"] is False
    good = jkv_certify(rep, g, g, zero_vector(1), (0,))
    assert good.ok


def test_certifier_uses_lam_as_witness_without_lp(monkeypatch):
    import jkvkit.polytope as polytope

    rep = rep1()
    g = rv(1, {(0,): (F(2),), (1,): (F(3),)})
    s, n = rv(1, {(0,): (F(2),)}), rv(1, {(1,): (F(3),)})
    is_semisimple(s)  # warm the relint cache: only the nilpotency LP is left
    calls = []
    original = polytope.solve_lp
    monkeypatch.setattr(polytope, "solve_lp", lambda *a, **k: calls.append(a) or original(*a, **k))
    report = jkv_certifier(rep, g, s, n)((2,))
    assert report.ok and report.nilpotent_witness == (2,)
    assert calls == []


def test_certifier_falls_back_to_the_lp():
    rep = rep1()
    g = rv(1, {(0,): (F(2),), (1,): (F(3),)})
    s, n = rv(1, {(0,): (F(2),)}), rv(1, {(1,): (F(3),)})
    certify = jkv_certifier(rep, g, s, n)
    for lam in ((0,), (-1,)):
        report = certify(lam)
        assert not report.ok
        assert (report.clauses["nilpotent"], report.nilpotent_witness) == is_nilpotent(n, support(s))
    # n = 0 with lam fixing s: lam is the witness
    report = jkv_certifier(rep, g, g, zero_vector(1))((0,))
    assert report.clauses["nilpotent"] and report.nilpotent_witness == (0,)
    # n not nilpotent relative to supp s: no witness at all
    s2, n2 = rv(1, {(0,): (F(2),), (1,): (F(1),)}), rv(1, {(1,): (F(2),)})
    report = jkv_certifier(rep, g, s2, n2)((0,))
    assert report.clauses["nilpotent"] is False and report.nilpotent_witness is None
    assert is_nilpotent(n2, support(s2)) == (False, None)


def test_certifier_checks_every_stabilizer_of_gamma():
    rep = swap_rep()
    g = rv(2, {(1, 0): (F(2),), (0, 1): (F(2),)})
    full = jkv_certifier(rep, g, g, zero_vector(2))((0, 0))
    assert full.clauses["stabilizer"] and full.stabilizer_checks == [(0, True), (1, True)]
    half = jkv_certifier(rep, g, rv(2, {(1, 0): (F(2),)}), rv(2, {(0, 1): (F(2),)}))((1, 0))
    assert half.stabilizer_checks == [(0, True), (1, False)]
    assert not half.clauses["stabilizer"]
    # no torus part makes the swap fix this gamma: a1 = 1 but a1^2 = 1/2
    weights = ((1, 0), (0, 1), (2, 0), (0, 2))
    one = ((F(1),),)
    ident = FiniteElement(((1, 0), (0, 1)), {chi: one for chi in weights})
    swap = FiniteElement(((0, 1), (1, 0)), {chi: one for chi in weights})
    rep2 = TorusRep(2, tuple((chi, 1) for chi in weights), FiniteGroup((ident, swap), ((0, 1), (1, 0))))
    g2 = rv(2, {(1, 0): (F(1),), (0, 1): (F(1),), (2, 0): (F(1),), (0, 2): (F(2),)})
    assert jkv_certifier(rep2, g2, g2, zero_vector(2))((0, 0)).stabilizer_checks == [(0, True)]


def test_certifier_equals_jkv_certify_on_finite_group_instances():
    """Every box cocharacter on one certifier gives the report of a fresh
    jkv_certify, for the constructive parts and for s = 0, n = gamma."""
    import random

    from jkvkit import oracles
    from jkvkit.oracles import FuzzConfig

    cfg = FuzzConfig(max_rank=3)
    rng = random.Random(3)
    seen = 0
    while seen < 6:
        rep, gamma = oracles.sample_torus_instance(rng, cfg)
        if rep.finite is None:
            continue
        seen += 1
        dec = jkv_decompose(rep, gamma)
        for s, n in ((dec.s, dec.n), (zero_vector(rep.rank), gamma)):
            certify = jkv_certifier(rep, gamma, s, n)
            for lam in _box_iter(rep.rank, 1):
                assert certify(lam) == jkv_certify(rep, gamma, s, n, lam)


def test_certifier_reuse_matches_fresh_certify(monkeypatch):
    """One certifier of (s, n) answers every cocharacter as a fresh
    jkv_certify does, returns a fresh report each time, and calls
    is_nilpotent exactly for the cocharacters that are not witnesses."""
    import jkvkit.torus as torus_mod

    rep = rep1()
    g = rv(1, {(0,): (F(2),), (1,): (F(3),)})
    lams = [(2,), (0,), (-1,), (1,), (2,)]
    cases = [
        # (s, n), then per lam: ok and nilpotency witness; then how many
        # lams are not witnesses themselves, so is_nilpotent runs
        ((rv(1, {(0,): (F(2),)}), rv(1, {(1,): (F(3),)})),
         [True, False, False, True, True], [(2,), (1,), (1,), (1,), (2,)], 2),
        # wrong n: the sum fails, the witnesses are as above
        ((rv(1, {(0,): (F(2),)}), rv(1, {(1,): (F(5),)})),
         [False] * 5, [(2,), (1,), (1,), (1,), (2,)], 2),
        # s not semisimple and n not nilpotent relative to supp s
        ((rv(1, {(1,): (F(3),)}), rv(1, {(0,): (F(2),)})), [False] * 5, [None] * 5, 5),
        # n = 0: only lam = 0 fixes s = g, which is not semisimple
        ((g, zero_vector(1)), [False] * 5, [(0,)] * 5, 4),
    ]
    original = torus_mod.is_nilpotent
    for (s, n), oks, witnesses, lp_lams in cases:
        fresh = [jkv_certify(rep, g, s, n, lam) for lam in lams]
        nilpotent_calls = []
        monkeypatch.setattr(
            torus_mod, "is_nilpotent", lambda *a: nilpotent_calls.append(a) or original(*a)
        )
        certify = jkv_certifier(rep, g, s, n)
        for lam, expected in zip(lams, fresh, strict=True):
            report = certify(lam)
            assert report == expected
            # every report is fresh: changing one leaves the later ones alone
            report.clauses["sum"] = False
            report.stabilizer_checks.append((9, False))
        monkeypatch.setattr(torus_mod, "is_nilpotent", original)
        assert [r.ok for r in fresh] == oks
        assert [r.nilpotent_witness for r in fresh] == witnesses
        assert len(nilpotent_calls) == lp_lams


def test_jkv_survey_never_solves_the_nilpotency_lp(monkeypatch):
    """Every jkv-survey entry certifies along its own cocharacter, which is
    its own nilpotency witness."""
    import jkvkit.suites as suites
    import jkvkit.torus as torus_mod

    calls = []
    original = torus_mod.is_nilpotent
    monkeypatch.setattr(torus_mod, "is_nilpotent", lambda *a: calls.append(a) or original(*a))
    report = suites.run_suite("jkv-survey", FuzzConfig(seed=0, count=30, max_rank=3))
    assert report.passed and calls == []


def test_lambda_min_examples():
    rep = rep1()
    g = rv(1, {(0,): (F(1),), (1,): (F(1),)})
    dim, wits = lambda_min(rep, g, 3)
    assert dim == 1 and wits == [(1,)]
    g2 = rv(1, {(-1,): (F(1),), (1,): (F(1),)})
    dim, wits = lambda_min(rep, g2, 3)
    assert dim == 3 and wits == [(0,)]
    # the zero weight of rep1 pairs to zero with everything, so 1 is the floor
    dim, wits = lambda_min(rep, zero_vector(1), 3)
    assert dim == 1 and wits == [(-1,), (1,)]
    # without a zero weight, cocharacters avoiding zero pairings reach dim 0
    rep2 = TorusRep(1, (((-1,), 1), ((1,), 1)))
    dim, wits = lambda_min(rep2, zero_vector(1), 3)
    assert dim == 0


def test_lambda_min_box_too_small():
    # only cocharacters like (2, -9) destabilize this support, so box 1 fails
    rep = TorusRep(2, (((5, 1), 1), ((-4, -1), 1)))
    g = rv(2, {(5, 1): (F(1),), (-4, -1): (F(1),)})
    with pytest.raises(BoxTooSmallError):
        lambda_min(rep, g, 1)
    dim, wits = lambda_min(rep, g, 9)
    assert dim == 0 and (2, -9) in wits


def test_box_sweeps_stop_at_the_budget():
    assert BOX_BUDGET == 100_000
    assert sum(1 for _ in _box_iter(1, 49_999)) == 99_999
    with pytest.raises(
        ValueError, match="^box 50000 at rank 1 holds 100001 cocharacters, over the limit of 100000$"
    ):
        _box_iter(1, 50_000)
    rep = TorusRep(2, (((5, 1), 1), ((-4, -1), 1)))
    g = rv(2, {(5, 1): (F(1),), (-4, -1): (F(1),)})
    for sweep in (limit_survey, lambda_min):
        with pytest.raises(ValueError, match="^box 158 at rank 2 holds 100489 cocharacters"):
            sweep(rep, g, 158)


def test_compose_cocharacters_examples():
    rep = TorusRep(2, (((1, -5), 1), ((0, 1), 1), ((-1, 3), 1)))
    n, mu = compose_cocharacters(rep, (1, 0), (0, 1))
    assert n == 6 and mu == (6, 1)
    n, mu = compose_cocharacters(rep, (1, 0), (0, 0))
    assert n == 1 and mu == (1, 0)
    n, mu = compose_cocharacters(rep, (0, 0), (0, 1))
    assert n == 1 and mu == (0, 1)


def _compose_by_counting(rep, lam0, lam):
    """The smallest n >= 1 found by trying n = 1, 2, ... in turn."""
    weights = rep.weights()
    n = 1
    while not all(
        (pairing(lam0, chi) <= 0 or n * pairing(lam0, chi) + pairing(lam, chi) > 0)
        and (pairing(lam0, chi) >= 0 or n * pairing(lam0, chi) + pairing(lam, chi) < 0)
        for chi in weights
    ):
        n += 1
    return n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_cocharacters_matches_counting(data):
    rank = data.draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-5, 5)] * rank)
    weights = data.draw(st.sets(st.tuples(*[st.integers(-4, 4)] * rank), min_size=1, max_size=5))
    rep = TorusRep(rank, tuple((chi, 1) for chi in sorted(weights)))
    lam0, lam = data.draw(vec), data.draw(vec)
    n, mu = compose_cocharacters(rep, lam0, lam)
    assert n == _compose_by_counting(rep, lam0, lam)
    assert mu == tuple(n * a + b for a, b in zip(lam0, lam))


def test_solve_multiplicative_examples():
    a = solve_multiplicative(2, {(1, 0): F(2), (1, 1): F(6)})
    assert a == (F(2), F(3))
    assert solve_multiplicative(1, {(2,): F(2)}) is None
    assert solve_multiplicative(1, {(1,): F(2), (2,): F(5)}) is None
    assert solve_multiplicative(2, {}) == (F(1), F(1))
    # signs: a^2 = 4 admits +-2; whichever root, it verifies
    a = solve_multiplicative(1, {(2,): F(4)})
    assert a is not None and a[0] ** 2 == 4
    with pytest.raises(ValueError):
        solve_multiplicative(1, {(1,): F(0)})


def test_solve_multiplicative_reduces_the_exponent_system_once(monkeypatch):
    """One Smith form serves every prime: here 2, 3, 5 and 7."""
    from jkvkit import intlinalg

    calls = []
    snf = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: calls.append(a) or snf(a))
    a = solve_multiplicative(2, {(1, 0): F(10, 7), (1, 1): F(-3)})
    assert a == (F(10, 7), F(-21, 10)) and calls == [((1, 0), (1, 1))]
    calls.clear()
    assert solve_multiplicative(1, {(1,): F(-1)}) == (F(-1),) and calls == []


def test_same_orbit_examples():
    rep = rep1()
    v = rv(1, {(0,): (F(2),), (1,): (F(3),)})
    g = same_orbit(rep, v, v)
    assert g is not None and g.torus == (F(1),)
    w = act(rep, GroupElement((F(5),)), v)
    g = same_orbit(rep, v, w)
    assert g is not None and act(rep, g, v) == w
    # a^2 = 4
    rep2 = TorusRep(1, (((2,), 1),))
    v1 = rv(1, {(2,): (F(1),)})
    v2 = rv(1, {(2,): (F(4),)})
    g = same_orbit(rep2, v1, v2)
    assert g is not None and act(rep2, g, v1) == v2
    # incompatible: a^2 = 2 has no rational solution
    v3 = rv(1, {(2,): (F(2),)})
    assert same_orbit(rep2, v1, v3) is None


def test_same_orbit_uses_finite_part():
    rep = swap_rep()
    v = rv(2, {(1, 0): (F(2),)})
    w = rv(2, {(0, 1): (F(3),)})
    assert same_orbit(TorusRep(2, rep.weight_spaces), v, w) is None
    g = same_orbit(rep, v, w)
    assert g is not None and g.finite_index == 1
    assert act(rep, g, v) == w


def test_same_orbit_of_equal_vectors_is_the_first_transfer():
    # Equal vectors get what the search over finite elements yields first:
    # the identity, all-ones torus part.
    rng = random.Random(5)
    cfg = FuzzConfig(seed=5, count=1)
    seen = {False: 0, True: 0}
    while min(seen.values()) < 40:
        rep, v = sample_torus_instance(rng, cfg)
        g = same_orbit(rep, v, RepVector(v.rank, dict(v.components)))
        assert g == next(_transfers(rep, v, v))
        assert g == GroupElement((1,) * rep.rank, rep.finite.identity if rep.finite else None)
        assert act(rep, g, v) == v
        seen[rep.finite is not None] += 1
    bad = rv(1, {(7,): (F(1),)})
    with pytest.raises(ValueError, match="absent weight"):
        same_orbit(rep1(), bad, bad)


def test_same_orbit_nonparallel_blocks():
    rep = TorusRep(1, (((1,), 2),))
    v = rv(1, {(1,): (F(1), F(0))})
    w = rv(1, {(1,): (F(0), F(1))})
    assert same_orbit(rep, v, w) is None
    w2 = rv(1, {(1,): (F(3), F(0))})
    g = same_orbit(rep, v, w2)
    assert g is not None and act(rep, g, v) == w2


def test_limit_survey_examples():
    rep = rep1()
    g0 = zero_vector(1)
    survey = limit_survey(rep, g0, 2)
    assert all(e.semisimple and e.value.is_zero() for e in survey.entries)
    g = rv(1, {(0,): (F(1),), (1,): (F(1),)})
    survey = limit_survey(rep, g, 2)
    ss = {e.cocharacter for e in survey.semisimple_entries()}
    assert ss == {(1,), (2,)}
    vals = {e.cocharacter: e.value for e in survey.entries if e.value is not None}
    assert vals[(1,)] == rv(1, {(0,): (F(1),)})
    g2 = rv(1, {(-1,): (F(1),), (1,): (F(1),)})
    survey = limit_survey(rep, g2, 1)
    ss = [e for e in survey.semisimple_entries()]
    assert len(ss) == 1 and ss[0].cocharacter == (0,) and ss[0].value == g2


def test_limit_survey_matches_limit_and_relint_per_cocharacter():
    rng = random.Random(12)
    cfg = FuzzConfig(max_rank=3)
    finite = 0
    for _ in range(16):
        rep, gamma = sample_torus_instance(rng, cfg)
        finite += rep.finite is not None
        shared = {}
        entries = limit_survey(rep, gamma, 2).entries
        for e in entries:
            value = limit(e.cocharacter, gamma)
            assert e.value == value
            if value is None:
                assert not e.semisimple
                continue
            assert e.semisimple == origin_in_relint(support(value)).inside
            zero = frozenset(chi for chi in gamma.components if pairing(e.cocharacter, chi) == 0)
            assert shared.setdefault(zero, e.value) is e.value
        assert len(shared) < len(entries)
    assert finite >= 3


def _draw_module(data, max_rank):
    """A module and a vector in it: either a seeded sampler instance (with a
    finite part about half the time) or drawn weights, then sometimes with
    a zero weight in the support or a single-weight support."""
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        finite = data.draw(st.booleans())
        while True:
            rep, gamma = sample_torus_instance(rng, FuzzConfig(max_rank=max_rank))
            if (rep.finite is not None) == finite:
                return rep, gamma
    rank = data.draw(st.integers(0, max_rank))
    weights = data.draw(st.sets(st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        weights.add((0,) * rank)
    rep = TorusRep(rank, tuple((chi, data.draw(st.integers(1, 2))) for chi in sorted(weights)))
    coord = st.integers(-3, 3).filter(bool)
    if data.draw(st.booleans()):
        chosen = [data.draw(st.sampled_from(sorted(weights)))]
    else:
        chosen = [chi for chi in sorted(weights) if data.draw(st.booleans())]
    dims = rep.dims()
    return rep, rv(rank, {chi: tuple(F(data.draw(coord)) for _ in range(dims[chi])) for chi in chosen})


def _survey_by_limit(rep, gamma, box):
    """The survey as one `limit` and one `origin_in_relint` call per
    cocharacter: (cocharacter, value, semisimple) in box order."""
    out = []
    for lam in _box_iter(rep.rank, box):
        val = limit(lam, gamma)
        out.append((lam, val, val is not None and origin_in_relint(support(val)).inside))
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_limit_survey_matches_the_per_cocharacter_loop(data):
    import jkvkit.torus as torus_mod

    rep, gamma = _draw_module(data, 4)
    box = data.draw(st.integers(1, 3))
    expected = _survey_by_limit(rep, gamma, box)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus_mod, "origin_in_relint", lambda w: calls.append(w) or origin_in_relint(w))
        entries = limit_survey(rep, gamma, box).entries
    assert [(e.cocharacter, e.value, e.semisimple) for e in entries] == expected
    shared = {}
    for e in entries:
        if e.value is not None:
            zero = frozenset(chi for chi in gamma.components if pairing(e.cocharacter, chi) == 0)
            assert shared.setdefault(zero, e.value) is e.value
    assert len(calls) == len(shared)


def _certifier_by_limit(rep, gamma, s, n):
    """jkv_certifier with fixes_s, the witness test and `limit(lam, gamma)
    == s` each pairing lam with the weights on every call."""
    import jkvkit.torus as torus_mod

    stabilizers = []
    if rep.finite is not None:
        stabilizers = sorted(_transfers(rep, gamma, gamma), key=lambda g: g.finite_index)
    sums = vec_add(s, n) == gamma
    semisimple = is_semisimple(s).inside
    supp_s = support(s)
    in_support = set(supp_s.points) <= set(gamma.components)
    checks = [(g.finite_index, act(rep, g, s) == s) for g in stabilizers]
    stabilizer = in_support and all(ok for _, ok in checks)

    def certify(lam):
        fixes_s = all(pairing(lam, chi) == 0 for chi in supp_s.points)
        if fixes_s and all(pairing(lam, chi) >= 1 for chi in n.components):
            nilp, witness = True, lam
        else:
            nilp, witness = torus_mod.is_nilpotent(n, supp_s)
        clauses = {
            "sum": sums,
            "semisimple": semisimple,
            "fixes_s": fixes_s,
            "limit": limit(lam, gamma) == s,
            "support": in_support,
            "nilpotent": nilp,
            "stabilizer": stabilizer,
        }
        return all(clauses.values()), clauses, witness, checks

    return certify


def _draw_vector(data, rep):
    """Small integer components at some of the module weights."""
    dims = rep.dims()
    chosen = [chi for chi in sorted(dims) if data.draw(st.booleans())]
    return rv(rep.rank, {chi: tuple(F(data.draw(st.integers(-2, 2))) for _ in range(dims[chi]))
                         for chi in chosen})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certifier_matches_the_per_call_limit_certifier(data):
    """(s, n, lam) drawn with s or n off supp gamma, s not a projection of
    gamma, wrong sums, negative pairings and lam = 0."""
    import jkvkit.torus as torus_mod

    rep, gamma = _draw_module(data, 3)
    mode = data.draw(st.sampled_from(["constructive", "projection", "off-support", "random"]))
    if mode == "constructive":
        s, n, lam = _constructive_parts(rep, gamma)
    else:
        keep = [chi for chi in gamma.components if data.draw(st.booleans())]
        s = rv(rep.rank, {chi: gamma.components[chi] for chi in keep})
        if mode == "off-support":
            s = vec_add(s, _draw_vector(data, rep))
        elif mode == "random":
            s = _draw_vector(data, rep)
        n = vec_sub(gamma, s)
        if data.draw(st.booleans()):
            n = vec_add(n, _draw_vector(data, rep))
        lam = data.draw(st.tuples(*[st.integers(-2, 2)] * rep.rank))
    lams = [lam, (0,) * rep.rank, tuple(-a for a in lam)]
    reports = {}
    for name, make in (("reference", _certifier_by_limit), ("certifier", jkv_certifier)):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            original = torus_mod.is_nilpotent
            mp.setattr(torus_mod, "is_nilpotent", lambda *a: calls.append(a) or original(*a))
            certify = make(rep, gamma, s, n)
            reports[name] = [certify(mu) for mu in lams], len(calls)
    got, got_calls = reports["certifier"]
    expected, expected_calls = reports["reference"]
    assert [(r.ok, r.clauses, r.nilpotent_witness, r.stabilizer_checks) for r in got] == expected
    assert got_calls == expected_calls
    with pytest.raises(ValueError):
        jkv_certifier(rep, gamma, s, n)(lam + (0,))


def test_jkv_survey_never_takes_a_limit_or_a_zero_set(monkeypatch):
    """The survey reads every limit off its pairing rows and the certifier
    reads the limit clause off its one pairing per weight."""
    import jkvkit.suites as suites
    import jkvkit.torus as torus_mod

    calls = []
    for name in ("limit", "_zero_set"):
        original = getattr(torus_mod, name)
        monkeypatch.setattr(
            torus_mod, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    report = suites.run_suite("jkv-survey", FuzzConfig(seed=0, count=30, max_rank=3))
    assert report.passed and calls == []


def test_pure_torus_rigidity():
    rep = TorusRep(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((2, 1), 1)))
    g = rv(
        2,
        {(1, 0): (F(1),), (0, 1): (F(2),), (-1, -1): (F(3),), (2, 1): (F(4),)},
    )
    survey = limit_survey(rep, g, 3)
    sses = survey.semisimple_entries()
    d = jkv_decompose(rep, g)
    for e in sses:
        assert e.value == d.s


def test_equivariance_under_torus():
    rep = rep1()
    v = rv(1, {(-1,): (F(1),), (0,): (F(2),), (1,): (F(3),)})
    a = GroupElement((F(5, 3),))
    for lam in [(-2,), (0,), (1,), (3,)]:
        lhs = limit(lam, act(rep, a, v))
        rhs = limit(lam, v)
        if rhs is None:
            assert lhs is None
        else:
            assert lhs == act(rep, a, rhs)


def test_vector_arithmetic():
    v = rv(1, {(0,): (F(1),), (1,): (F(2),)})
    w = rv(1, {(1,): (F(-2),), (0,): (F(1),)})
    assert vec_add(v, w) == rv(1, {(0,): (F(2),)})
    assert vec_sub(v, v).is_zero()


def test_finite_group_validation_errors():
    weights = (((1, 0), 1), ((0, 1), 1))
    one = ((F(1),),)
    ident = FiniteElement(((1, 0), (0, 1)), {(1, 0): one, (0, 1): one})
    swap = FiniteElement(((0, 1), (1, 0)), {(1, 0): one, (0, 1): one})
    cases = [
        (FiniteElement(((2, 0), (0, 1)), ident.blocks), "lattice action must be unimodular"),
        (FiniteElement(((-1, 0), (0, 1)), ident.blocks), "must permute the weight set"),
        (FiniteElement(swap.lattice, {(1, 0): one}), "must cover exactly the weight set"),
        (FiniteElement(swap.lattice, {(1, 0): ((F(1), F(0)),), (0, 1): one}), "shape mismatch"),
        (FiniteElement(swap.lattice, {(1, 0): ((F(0),),), (0, 1): one}), "must be invertible"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            TorusRep(2, weights, FiniteGroup((ident, bad), ((0, 1), (1, 0))))
    # the table names the swap as its identity
    with pytest.raises(ValueError, match="lattice actions do not respect the table"):
        TorusRep(2, weights, FiniteGroup((swap, ident), ((0, 1), (1, 0))))
    # the swap's blocks multiply to 2 at each weight, where the identity's are 1
    swap2 = FiniteElement(swap.lattice, {(1, 0): ((F(2),),), (0, 1): one})
    with pytest.raises(ValueError, match="block maps do not respect the table"):
        TorusRep(2, weights, FiniteGroup((ident, swap2), ((0, 1), (1, 0))))
    bad_lattice = FiniteElement(((1, 1), (0, 1)), {(1, 0): ((F(1),),), (0, 1): ((F(1),),)})
    with pytest.raises(ValueError):
        TorusRep(2, (((1, 0), 1), ((0, 1), 1)), FiniteGroup((bad_lattice,), ((0,),)))
    # table that is not a group: no identity
    el = FiniteElement(((0, 1), (1, 0)), {(1, 0): ((F(1),),), (0, 1): ((F(1),),)})
    with pytest.raises(ValueError):
        FiniteGroup((el,), ((0,),)) and TorusRep(
            2, (((1, 0), 1), ((0, 1), 1)), FiniteGroup((el,), ((0,),))
        )


# The block checks of the finite-group validation as they were, on
# Fraction matrices through qmul and qdet, kept here only as an oracle.


def _old_validation_error(weight_spaces, grp):
    from jkvkit.intlinalg import is_unimodular, mat_mul, mat_vec
    from jkvkit.ratlinalg import qdet, qmat, qmul

    dims = dict(weight_spaces)
    weights = set(dims)
    images = []
    for el in grp.elements:
        if not is_unimodular(el.lattice):
            return "lattice action must be unimodular"
        image = {chi: mat_vec(el.lattice, chi) for chi in weights}
        if set(image.values()) != weights:
            return "lattice action must permute the weight set"
        if set(el.blocks) != weights:
            return "block maps must cover exactly the weight set"
        for chi, block in el.blocks.items():
            if len(block) != dims[image[chi]] or any(len(r) != dims[chi] for r in block):
                return "block map shape mismatch"
            if qdet(block) == 0:
                return "block maps must be invertible"
        images.append(image)
    for i, gi in enumerate(grp.elements):
        for j, gj in enumerate(grp.elements):
            gk = grp.elements[grp.table[i][j]]
            if mat_mul(gi.lattice, gj.lattice) != gk.lattice:
                return "lattice actions do not respect the table"
            for chi, mid in images[j].items():
                if qmul(gi.blocks[mid], gj.blocks[chi]) != qmat(gk.blocks[chi]):
                    return "block maps do not respect the table"
    return None


def _new_validation_error(weight_spaces, grp):
    try:
        TorusRep(len(weight_spaces[0][0]), weight_spaces, grp)
    except ValueError as exc:
        return str(exc)
    return None


def _rotation_group(rng):
    """The cyclic group of order 4 generated by the quarter turn of Z^2 on
    the weights +-e1, +-e2, with 1 x 1 blocks whose product around the
    orbit is 1, and its powers composed through the blocks."""
    from jkvkit.intlinalg import mat_mul, mat_vec

    turn = ((0, -1), (1, 0))
    orbit = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    cs = [F(rng.choice([1, -2, 3]), rng.choice([1, 2, 5])) for _ in range(3)]
    gen = dict(zip(orbit, [((c,),) for c in cs + [1 / (cs[0] * cs[1] * cs[2])]]))
    elements = []
    lattice = ((1, 0), (0, 1))
    blocks = {chi: ((F(1),),) for chi in orbit}
    for _ in range(4):
        elements.append(FiniteElement(lattice, blocks))
        blocks = {chi: ((gen[mat_vec(lattice, chi)][0][0] * b[0][0],),) for chi, b in blocks.items()}
        lattice = mat_mul(turn, lattice)
    table = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    return tuple((chi, 1) for chi in sorted(orbit)), FiniteGroup(tuple(elements), table)


def test_finite_group_validation_matches_the_fraction_block_check():
    """Integer block checks give the same verdict and message as the
    Fraction product check, on sampled groups and on copies with one
    block entry perturbed."""
    rng = random.Random(2012)
    groups = [_rotation_group(rng) for _ in range(5)]
    while len(groups) < 40:
        rep, _ = sample_torus_instance(rng, FuzzConfig(max_rank=3))
        if rep.finite is not None:
            groups.append((rep.weight_spaces, rep.finite))
    seen = {}
    for spaces, grp in groups:
        assert _old_validation_error(spaces, grp) is None
        assert _new_validation_error(spaces, grp) is None
        for idx, el in enumerate(grp.elements):
            for chi, block in sorted(el.blocks.items()):
                for delta in (F(1), F(-1, 3)):
                    rows = [list(r) for r in block]
                    rows[0][0] += delta
                    blocks = {**el.blocks, chi: tuple(map(tuple, rows))}
                    bad = list(grp.elements)
                    bad[idx] = FiniteElement(el.lattice, blocks)
                    bad_grp = FiniteGroup(tuple(bad), grp.table)
                    want = _old_validation_error(spaces, bad_grp)
                    assert _new_validation_error(spaces, bad_grp) == want
                    seen[want] = seen.get(want, 0) + 1
    assert seen.get("block maps do not respect the table", 0) >= 50, seen
    assert seen.get("block maps must be invertible", 0) >= 5, seen
