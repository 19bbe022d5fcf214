from fractions import Fraction

import pytest

from jkvkit.serialize import (
    ProblemFormatError,
    gln_problem_to_json,
    load_gln_cocharacter,
    load_gln_matrix,
    load_gln_pair,
    load_torus_decomposition,
    load_torus_problem,
    torus_problem_to_json,
    weight_key,
)

F = Fraction


def sample_problem():
    return {
        "rank": 2,
        "weights": [
            {"chi": [1, 0], "dim": 1},
            {"chi": [0, 1], "dim": 2},
        ],
        "vector": [
            {"chi": [1, 0], "coords": ["2/3"]},
            {"chi": [0, 1], "coords": ["1", "-5"]},
        ],
    }


def test_torus_roundtrip():
    rep, v = load_torus_problem(sample_problem())
    assert rep.rank == 2
    assert v.components[(1, 0)] == (F(2, 3),)
    again = torus_problem_to_json(rep, v)
    rep2, v2 = load_torus_problem(again)
    assert rep2 == rep and v2 == v


def test_torus_with_finite_group_roundtrip():
    obj = sample_problem()
    obj["weights"] = [{"chi": [1, 0], "dim": 1}, {"chi": [0, 1], "dim": 1}]
    obj["vector"] = [{"chi": [1, 0], "coords": ["3"]}]
    obj["finite_group"] = {
        "elements": [
            {
                "lattice": [[1, 0], [0, 1]],
                "blocks": {"1,0": [["1"]], "0,1": [["1"]]},
            },
            {
                "lattice": [[0, 1], [1, 0]],
                "blocks": {"1,0": [["2"]], "0,1": [["1/2"]]},
            },
        ],
        "table": [[0, 1], [1, 0]],
    }
    rep, v = load_torus_problem(obj)
    assert rep.finite is not None and rep.finite.identity == 0
    rep2, v2 = load_torus_problem(torus_problem_to_json(rep, v))
    assert rep2 == rep and v2 == v


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(extra=1),
        lambda o: o["weights"][0].update(color="red"),
        lambda o: o["vector"][0].update(tag=0),
        lambda o: o.update(rank=0),
        lambda o: o["vector"].append({"chi": [1, 0], "coords": ["1"]}),
        lambda o: o["vector"].__setitem__(0, {"chi": [3, 3], "coords": ["1"]}),
        lambda o: o["vector"][0].update(coords=["1", "2"]),
        lambda o: o["weights"].append({"chi": [1, 0], "dim": 1}),
        lambda o: o["vector"][0].update(coords=["0.5"]),
        lambda o: o.update(rank=True),
    ],
)
def test_torus_rejects_malformed(mutate):
    obj = sample_problem()
    mutate(obj)
    with pytest.raises(ProblemFormatError):
        load_torus_problem(obj)


def test_gln_matrix_and_pair():
    x = load_gln_matrix({"n": 2, "matrix": [["1", "1/2"], ["0", "-3"]]})
    assert x[0][1] == F(1, 2)
    with pytest.raises(ProblemFormatError):
        load_gln_matrix({"n": 3, "matrix": [["1"]]})
    with pytest.raises(ProblemFormatError):
        load_gln_matrix({"n": 2, "matrix": [["1", "2"], ["3", "4"]], "junk": 0})
    a, b = load_gln_pair({"n": 1, "x": [["2"]], "y": [["2"]]})
    assert a == b
    assert gln_problem_to_json(x)["matrix"][1] == ["0", "-3"]


def test_gln_cocharacter():
    lam = load_gln_cocharacter({"g": [["1", "0"], ["0", "1"]], "exponents": [2, -1]})
    assert lam.exponents == (2, -1)
    # unsorted exponents are canonicalized, not rejected
    lam = load_gln_cocharacter({"g": [["1", "0"], ["0", "1"]], "exponents": [-1, 2]})
    assert lam.exponents == (2, -1)
    with pytest.raises(ProblemFormatError):
        load_gln_cocharacter({"g": [["1", "1"], ["1", "1"]], "exponents": [0, 0]})


def test_torus_decomposition():
    rep, v = load_torus_problem(sample_problem())
    s, n, lam = load_torus_decomposition(
        {
            "s": [{"chi": [1, 0], "coords": ["2/3"]}],
            "n": [{"chi": [0, 1], "coords": ["1", "-5"]}],
            "cocharacter": [0, 1],
        },
        rep,
    )
    assert lam == (0, 1)
    from jkvkit.torus import vec_add

    assert vec_add(s, n) == v


def test_duplicate_components_name_their_vector():
    obj = sample_problem()
    rep, _ = load_torus_problem(obj)
    twice = [{"chi": [0, 1], "coords": ["1", "-5"]}] * 2
    obj["vector"] = twice
    with pytest.raises(ProblemFormatError, match=r"^duplicate vector component at weight"):
        load_torus_problem(obj)
    for name in ("s", "n"):
        dec = {"s": [], "n": [], "cocharacter": [0, 1], name: twice}
        message = rf"^duplicate {name} component at weight \(0, 1\)$"
        with pytest.raises(ProblemFormatError, match=message):
            load_torus_decomposition(dec, rep)


def test_weight_key():
    assert weight_key((1, -2)) == "1,-2"


@pytest.mark.parametrize(
    "key, message",
    [
        ("1", "weight key '1' has rank 1, expected 2"),
        ("1,a", "malformed weight key '1,a'"),
    ],
)
def test_weight_key_errors_name_the_key(key, message):
    obj = sample_problem()
    obj["weights"] = [{"chi": [1, 0], "dim": 1}]
    obj["vector"] = [{"chi": [1, 0], "coords": ["3"]}]
    obj["finite_group"] = {
        "elements": [{"lattice": [[1, 0], [0, 1]], "blocks": {key: [["1"]]}}],
        "table": [[0]],
    }
    with pytest.raises(ProblemFormatError) as info:
        load_torus_problem(obj)
    assert str(info.value) == message
