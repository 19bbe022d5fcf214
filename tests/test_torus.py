from fractions import Fraction

import pytest

from jkvkit.intlinalg import pairing
from jkvkit.polytope import WeightSet
from jkvkit.torus import (
    BoxTooSmallError,
    FiniteElement,
    FiniteGroup,
    GroupElement,
    RepVector,
    TorusRep,
    act,
    compose_cocharacters,
    fixed_dim,
    graded_dim,
    group_identity,
    group_inverse,
    group_mul,
    is_nilpotent,
    is_semisimple,
    jkv_certifier,
    jkv_certify,
    jkv_decompose,
    lambda_min,
    limit,
    limit_survey,
    nonneg_dim,
    same_orbit,
    solve_multiplicative,
    support,
    vec_add,
    vec_sub,
    zero_vector,
)

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
    ginv = group_inverse(rep, g)
    assert act(rep, ginv, act(rep, g, v)) == v
    assert act(rep, g, act(rep, ginv, v)) == v


def test_group_law_matches_action_composition():
    rep = swap_rep()
    v = rv(2, {(1, 0): (F(1),), (0, 1): (F(4, 7),)})
    g1 = GroupElement((F(2), F(3)), 1)
    g2 = GroupElement((F(1, 2), F(-5)), 1)
    prod = group_mul(rep, g1, g2)
    assert act(rep, prod, v) == act(rep, g1, act(rep, g2, v))
    e = group_identity(rep)
    assert act(rep, e, v) == v


def test_limit_examples():
    v = rv(1, {(-1,): (F(1),), (0,): (F(2),), (2,): (F(3),)})
    assert limit((0,), v) == v
    assert limit((1,), v) is None
    w = rv(1, {(0,): (F(2),), (2,): (F(3),)})
    assert limit((1,), w) == rv(1, {(0,): (F(2),)})


def test_graded_dims():
    rep = rep1()
    assert graded_dim(rep, (0,), 0) == 3
    assert graded_dim(rep, (0,), 1) == 0
    assert graded_dim(rep, (1,), 0) == 1
    assert fixed_dim(rep, (1,)) == 1
    assert nonneg_dim(rep, (1,)) == 2


def test_is_semisimple_examples():
    assert is_semisimple(zero_vector(2)).semisimple
    v = rv(2, {(1, 0): (F(1),), (-1, 0): (F(1),)})
    res = is_semisimple(v)
    assert res.semisimple and res.barycentric is not None
    w = rv(2, {(1, 0): (F(1),), (1, 1): (F(1),)})
    res = is_semisimple(w)
    assert not res.semisimple
    lam = res.cocharacter
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
    report = jkv_certifier(rep, g)(s, n, (2,))
    assert report.ok and report.nilpotent_witness == (2,)
    assert calls == []


def test_certifier_falls_back_to_the_lp():
    rep = rep1()
    g = rv(1, {(0,): (F(2),), (1,): (F(3),)})
    s, n = rv(1, {(0,): (F(2),)}), rv(1, {(1,): (F(3),)})
    certify = jkv_certifier(rep, g)
    for lam in ((0,), (-1,)):
        report = certify(s, n, lam)
        assert not report.ok
        assert (report.clauses["nilpotent"], report.nilpotent_witness) == is_nilpotent(n, support(s))
    # n = 0 with lam fixing s: lam is the witness
    report = certify(g, zero_vector(1), (0,))
    assert report.clauses["nilpotent"] and report.nilpotent_witness == (0,)
    # n not nilpotent relative to supp s: no witness at all
    s2 = rv(1, {(0,): (F(2),), (1,): (F(1),)})
    report = certify(s2, rv(1, {(1,): (F(2),)}), (0,))
    assert report.clauses["nilpotent"] is False and report.nilpotent_witness is None
    assert is_nilpotent(rv(1, {(1,): (F(2),)}), support(s2)) == (False, None)


def test_certifier_checks_every_stabilizer_of_gamma():
    rep = swap_rep()
    g = rv(2, {(1, 0): (F(2),), (0, 1): (F(2),)})
    certify = jkv_certifier(rep, g)
    full = certify(g, zero_vector(2), (0, 0))
    assert full.clauses["stabilizer"] and full.stabilizer_checks == [(0, True), (1, True)]
    half = certify(rv(2, {(1, 0): (F(2),)}), rv(2, {(0, 1): (F(2),)}), (1, 0))
    assert half.stabilizer_checks == [(0, True), (1, False)]
    assert not half.clauses["stabilizer"]
    # no torus part makes the swap fix this gamma: a1 = 1 but a1^2 = 1/2
    weights = ((1, 0), (0, 1), (2, 0), (0, 2))
    one = ((F(1),),)
    ident = FiniteElement(((1, 0), (0, 1)), {chi: one for chi in weights})
    swap = FiniteElement(((0, 1), (1, 0)), {chi: one for chi in weights})
    rep2 = TorusRep(2, tuple((chi, 1) for chi in weights), FiniteGroup((ident, swap), ((0, 1), (1, 0))))
    g2 = rv(2, {(1, 0): (F(1),), (0, 1): (F(1),), (2, 0): (F(1),), (0, 2): (F(2),)})
    assert jkv_certifier(rep2, g2)(g2, zero_vector(2), (0, 0)).stabilizer_checks == [(0, True)]


def test_certifier_equals_jkv_certify_on_finite_group_instances():
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
        certify = jkv_certifier(rep, gamma)
        for e in limit_survey(rep, gamma, 2).semisimple_entries():
            n = vec_sub(gamma, e.value)
            for lam in (e.cocharacter, (0,) * rep.rank):
                assert certify(e.value, n, lam) == jkv_certify(rep, gamma, e.value, n, lam)


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


def test_compose_cocharacters_examples():
    rep = TorusRep(2, (((1, -5), 1), ((0, 1), 1), ((-1, 3), 1)))
    n, mu = compose_cocharacters(rep, (1, 0), (0, 1))
    assert n == 6 and mu == (6, 1)
    n, mu = compose_cocharacters(rep, (1, 0), (0, 0))
    assert n == 1 and mu == (1, 0)
    n, mu = compose_cocharacters(rep, (0, 0), (0, 1))
    assert n == 1 and mu == (0, 1)


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
    assert all(e.exists and e.semisimple and e.value.is_zero() for e in survey.entries)
    g = rv(1, {(0,): (F(1),), (1,): (F(1),)})
    survey = limit_survey(rep, g, 2)
    ss = {e.cocharacter for e in survey.semisimple_entries()}
    assert ss == {(1,), (2,)}
    vals = {e.cocharacter: e.value for e in survey.entries if e.exists}
    assert vals[(1,)] == rv(1, {(0,): (F(1),)})
    g2 = rv(1, {(-1,): (F(1),), (1,): (F(1),)})
    survey = limit_survey(rep, g2, 1)
    ss = [e for e in survey.semisimple_entries()]
    assert len(ss) == 1 and ss[0].cocharacter == (0,) and ss[0].value == g2


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
    bad_lattice = FiniteElement(((1, 1), (0, 1)), {(1, 0): ((F(1),),), (0, 1): ((F(1),),)})
    with pytest.raises(ValueError):
        TorusRep(2, (((1, 0), 1), ((0, 1), 1)), FiniteGroup((bad_lattice,), ((0,),)))
    # table that is not a group: no identity
    el = FiniteElement(((0, 1), (1, 0)), {(1, 0): ((F(1),),), (0, 1): ((F(1),),)})
    with pytest.raises(ValueError):
        FiniteGroup((el,), ((0,),)) and TorusRep(
            2, (((1, 0), 1), ((0, 1), 1)), FiniteGroup((el,), ((0,),))
        )
