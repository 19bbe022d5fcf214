"""Cross-module property tests on seeded random instances."""

import random
from fractions import Fraction

from jkvkit.gln import (
    eval_poly_matrix,
    invariant_factors,
    is_semisimple_matrix,
    jkv_gln,
    limit_conj,
    minpoly,
    rational_conjugacy,
)
from jkvkit.oracles import (
    FuzzConfig,
    charpoly,
    random_nonzero_fraction,
    sample_gln_matrix,
    sample_torus_instance,
)
from jkvkit.polys import is_zero, poly_mod
from jkvkit.ratlinalg import is_zero_mat, qinverse, qmat, qmul
from jkvkit.torus import (
    GroupElement,
    act,
    chi_eval,
    same_orbit,
    solve_multiplicative,
)

F = Fraction


def test_solve_multiplicative_roundtrip():
    rng = random.Random(2024)
    cfg = FuzzConfig(seed=2024, count=1)
    for _ in range(300):
        rep, gamma = sample_torus_instance(rng, cfg)
        a = tuple(random_nonzero_fraction(rng, 9) for _ in range(rep.rank))
        chis = [chi for chi, _ in rep.weight_spaces if rng.random() < 0.7]
        ratios = {chi: chi_eval(a, chi) for chi in chis}
        found = solve_multiplicative(rep.rank, ratios)
        assert found is not None
        assert all(chi_eval(found, chi) == ratios[chi] for chi in chis)


def test_same_orbit_roundtrip_through_group():
    rng = random.Random(99)
    cfg = FuzzConfig(seed=99, count=1)
    checked = 0
    while checked < 200:
        rep, v = sample_torus_instance(rng, cfg)
        if v.is_zero():
            continue
        torus = tuple(random_nonzero_fraction(rng, 9) for _ in range(rep.rank))
        idx = None
        if rep.finite is not None:
            idx = rng.randrange(len(rep.finite.elements))
        g = GroupElement(torus, idx)
        v2 = act(rep, g, v)
        witness = same_orbit(rep, v, v2)
        assert witness is not None
        assert act(rep, witness, v) == v2
        checked += 1


def test_conjugacy_distinguishes_jordan_types():
    # same characteristic polynomial x^3, different block structure
    j21 = qmat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    j3 = qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rational_conjugacy(j21, j3) is None
    assert invariant_factors(j21) != invariant_factors(j3)
    # conjugating by anything invertible keeps the class
    h = qmat([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    moved = qmul(qmul(h, j3), qinverse(h))
    g = rational_conjugacy(j3, moved)
    assert g is not None and qmul(g, j3) == qmul(moved, g)


def test_minpoly_divides_charpoly_and_cayley_hamilton():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        x = sample_gln_matrix(rng, n)
        c = charpoly(x)
        m = minpoly(x)
        assert is_zero(poly_mod(c, m))
        assert is_zero_mat(eval_poly_matrix(c, x))
        assert is_zero_mat(eval_poly_matrix(m, x))


def test_theorem_check_gln_seeded_fuzz():
    """Every semisimple limit along the sampled cocharacters is rationally
    conjugate to the semisimple part of x, split over Q or not."""
    from jkvkit.oracles import sample_gln_cocharacter, sample_rational_spectrum_matrix

    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        if rng.random() < 0.5:
            x, _, _ = sample_rational_spectrum_matrix(rng, n)
        else:
            x = sample_gln_matrix(rng, n)
        lams = [sample_gln_cocharacter(rng, n) for _ in range(5)]
        reference = jkv_gln(x).s
        for lam in lams:
            val = limit_conj(lam, x)
            if val is None or not is_semisimple_matrix(val):
                continue
            assert rational_conjugacy(val, reference) is not None
            checked += 1
    assert checked >= 10, checked


def test_levi_part_is_block_diagonal_in_the_grading():
    from jkvkit.gln import GLnCocharacter, levi_part
    from jkvkit.oracles import sample_parabolic_element

    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(2, 4)
        from jkvkit.oracles import sample_gln_cocharacter

        lam = sample_gln_cocharacter(rng, n)
        p = sample_parabolic_element(rng, lam)
        h = levi_part(lam, p)
        y = qmul(qmul(qinverse(lam.g), h), lam.g)
        e = lam.exponents
        for i in range(n):
            for j in range(n):
                if e[i] != e[j]:
                    assert y[i][j] == 0


def test_invariant_factors_divisibility_chain():
    rng = random.Random(13)
    from jkvkit.polys import poly_mod as pmod

    for _ in range(60):
        n = rng.randint(1, 4)
        x = sample_gln_matrix(rng, n)
        facs = invariant_factors(x)
        assert facs, "at least one nonunit factor"
        for a, b in zip(facs, facs[1:]):
            assert is_zero(pmod(b, a))
        prod = (F(1),)
        from jkvkit.polys import poly_mul

        for f in facs:
            prod = poly_mul(prod, f)
        assert prod == charpoly(x)
