import ast
import random
from pathlib import Path

import pytest

from jkvkit import oracles
from jkvkit.oracles import (
    FuzzConfig,
    oracle_limit,
    oracle_relint,
    sample_gln_cocharacter,
    sample_rational_spectrum_matrix,
    sample_torus_instance,
    sample_weight_set,
)
from jkvkit.polytope import WeightSet
from jkvkit.ratlinalg import qdet, qmul
from jkvkit.torus import RepVector, limit, zero_vector
from fractions import Fraction
from itertools import product

F = Fraction


def test_oracle_limit_trivial_cases():
    v = RepVector(1, {(-1,): (F(1),), (0,): (F(2),)})
    assert oracle_limit((0,), v) == v
    assert oracle_limit((1,), v) is None
    assert oracle_limit((5,), zero_vector(1)) == zero_vector(1)


def test_oracle_limit_agrees_with_limit_seeded():
    rng = random.Random(123)
    cfg = FuzzConfig(seed=123, count=50)
    for _ in range(200):
        rep, gamma = sample_torus_instance(rng, cfg)
        lam = tuple(rng.randint(-3, 3) for _ in range(rep.rank))
        assert limit(lam, gamma) == oracle_limit(lam, gamma)


def test_oracle_limit_rank_mismatch():
    v = RepVector(2, {(1, 0): (F(1),)})
    with pytest.raises(ValueError, match="cocharacter rank mismatch"):
        oracle_limit((1,), v)
    with pytest.raises(ValueError, match="cocharacter rank mismatch"):
        oracle_limit((1, 0, 0), zero_vector(2))


def test_oracle_limit_first_component_negative():
    v = RepVector(2, {(-1, 0): (F(3),), (0, 1): (F(1),), (2, 0): (F(1, 2),)})
    assert list(v.components)[0] == (-1, 0)
    assert oracle_limit((1, 0), v) is None
    assert limit((1, 0), v) is None
    assert oracle_limit((-1, 0), v) is None
    assert oracle_limit((0, 1), v) == RepVector(2, {(-1, 0): (F(3),), (2, 0): (F(1, 2),)})


def test_oracle_limit_matches_limit_over_box_sweep():
    """Every cocharacter of the box-2 sweep, on 50 seeded instances: the
    same existence, value and component order as torus.limit."""
    rng = random.Random(2024)
    cfg = FuzzConfig(seed=2024, count=50)
    for _ in range(50):
        rep, gamma = sample_torus_instance(rng, cfg)
        for lam in product(range(-2, 3), repeat=rep.rank):
            got, want = oracle_limit(lam, gamma), limit(lam, gamma)
            assert got == want
            if want is not None:
                assert list(got.components) == list(want.components)


def test_oracles_import_only_data_from_checked_modules():
    """The references share no code with what they check: nothing from
    jkvkit.lp, only WeightSet from jkvkit.polytope, and only the data types
    of jkvkit.torus."""
    allowed = {
        "polytope": {"WeightSet"},
        "torus": {"FiniteElement", "FiniteGroup", "RepVector", "TorusRep"},
        "lp": set(),
    }
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = {name: set() for name in allowed}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = {a.name.removeprefix("jkvkit.") for a in node.names}
            assert not modules & set(allowed), modules
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "jkvkit":
                    continue
                module = module.removeprefix("jkvkit").lstrip(".")
            if not module:  # "from . import lp" names a module
                assert not {a.name for a in node.names} & set(allowed)
            elif module in allowed:
                imported[module].update(a.name for a in node.names)
    for module, names in imported.items():
        assert names <= allowed[module], (module, names - allowed[module])
    assert imported["polytope"] == {"WeightSet"}


def test_oracle_relint_examples():
    square = WeightSet(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert oracle_relint(square)
    assert not oracle_relint(WeightSet(2, ((1, 0), (0, 1))))
    assert oracle_relint(WeightSet(2, ((0, 0),)))
    assert oracle_relint(WeightSet(0, ((),)))  # the origin of a rank-0 lattice


def test_oracle_relint_bounds():
    """The oracle answers up to the torus sampler's shape (rank 4, one point
    more than MAX_POINTS) and refuses anything beyond it."""
    assert oracle_relint(WeightSet(4, ((1, 0, 0, 0), (-1, 0, 0, 0))))
    with pytest.raises(ValueError):
        oracle_relint(WeightSet(5, ((1, 0, 0, 0, 0),)))
    edge = tuple((k,) for k in range(-5, 7) if k)
    assert len(edge) == oracles.MAX_POINTS + 1
    assert oracle_relint(WeightSet(1, edge))
    with pytest.raises(ValueError):
        oracle_relint(WeightSet(1, edge + ((0,),)))


def test_fuzzconfig_validation_and_determinism():
    with pytest.raises(ValueError):
        FuzzConfig(count=0)
    cfg = FuzzConfig(seed=9, count=5)
    a = sample_torus_instance(cfg.rng(), cfg)
    b = sample_torus_instance(cfg.rng(), cfg)
    assert a[0] == b[0] and a[1] == b[1]


def test_weight_set_sampler_in_bounds():
    rng = random.Random(5)
    for _ in range(100):
        ws = sample_weight_set(rng)
        assert ws.rank <= 3 and len(ws.points) <= 6


def test_rational_spectrum_sampler_ground_truth():
    rng = random.Random(11)
    for _ in range(20):
        x, s, n = sample_rational_spectrum_matrix(rng, 3)
        assert qmul(s, n) == qmul(n, s)
        top = n
        for _ in range(2):
            top = qmul(top, n)
        assert all(v == 0 for row in top for v in row)


def test_cocharacter_sampler_valid():
    rng = random.Random(3)
    for _ in range(50):
        lam = sample_gln_cocharacter(rng, 3)
        assert qdet(lam.g) != 0
        assert list(lam.exponents) == sorted(lam.exponents, reverse=True)
        assert qmul(lam.g, lam.g_inv) == qmul(lam.g_inv, lam.g)


def test_finite_part_instances_are_valid_groups():
    # validation happens inside TorusRep; drawing many instances exercises it
    rng = random.Random(77)
    cfg = FuzzConfig(seed=77, count=1)
    seen_finite = False
    for _ in range(60):
        rep, gamma = sample_torus_instance(rng, cfg)
        if rep.finite is not None:
            seen_finite = True
            assert len(rep.finite.elements) == 2
    assert seen_finite
