from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from jkvkit import lp
from jkvkit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, lp_solve, solve_lp

F = Fraction


def test_lp_solve_examples():
    # maximize x s.t. x <= 3, x >= 0
    value, x = lp_solve([[-1], [1]], [-3, 0], [1])
    assert value == 3 and x == (3,)
    # maximize x s.t. x >= 1, x <= 0
    assert lp_solve([[1], [-1]], [1, 0], [1]) == INFEASIBLE
    # unbounded
    assert lp_solve([[1]], [0], [1]) == UNBOUNDED


def test_epsilon_max_lp_example():
    # maximize eps s.t. c1+c2 = 1, c1 - c2 = 0, c_i >= eps  ->  eps = 1/2
    cons = [
        ([1, 1, 0], "=", 1),
        ([1, -1, 0], "=", 0),
        ([1, 0, -1], ">=", 0),
        ([0, 1, -1], ">=", 0),
    ]
    res = solve_lp(3, cons, [0, 0, 1], nonneg=[True, True, False])
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 2)
    assert res.x[0] == res.x[1] == Fraction(1, 2)


def test_equality_only_system():
    res = solve_lp(2, [([1, 1], "=", 2), ([1, -1], "=", 0)], [0, 0])
    assert res.status == OPTIMAL
    assert res.x == (1, 1)


def test_degenerate_and_redundant_rows():
    cons = [([1], "="), ([2], "=")]
    res = solve_lp(1, [([1], "=", 1), ([2], "=", 2)], [1])
    assert res.status == OPTIMAL and res.x == (1,)


def _brute_force_max(num_vars, rows, objective):
    """Vertex-enumeration oracle: try every square subsystem of active
    constraints (A x = b), keep feasible solutions, compare objectives.
    Only sound for bounded-or-infeasible programs."""
    from jkvkit.ratlinalg import qmat, solve_right, rref

    best = None
    for subset in combinations(range(len(rows)), num_vars):
        a = qmat([rows[i][0] for i in subset])
        b = tuple(Fraction(rows[i][2]) for i in subset)
        red, piv = rref(a)
        if len(piv) < num_vars:
            continue
        x = solve_right(a, b)
        if x is None:
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(c * xv for c, xv in zip(coeffs, x))
            if rel == ">=" and lhs < rhs:
                ok = False
            if rel == "<=" and lhs > rhs:
                ok = False
            if rel == "=" and lhs != rhs:
                ok = False
        if ok:
            val = sum(c * xv for c, xv in zip(objective, x))
            if best is None or val > best:
                best = val
    return best


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simplex_matches_vertex_enumeration(data):
    nv = data.draw(st.integers(1, 3))
    nc = data.draw(st.integers(nv, 5))
    rows = []
    for _ in range(nc):
        coeffs = [data.draw(st.integers(-4, 4)) for _ in range(nv)]
        rel = data.draw(st.sampled_from([">=", "<="]))
        rhs = data.draw(st.integers(-4, 4))
        rows.append((coeffs, rel, rhs))
    # box constraints keep the program bounded so the oracle is sound
    for j in range(nv):
        e = [0] * nv
        e[j] = 1
        rows.append((list(e), "<=", 10))
        rows.append((list(e), ">=", -10))
    objective = [data.draw(st.integers(-3, 3)) for _ in range(nv)]
    res = solve_lp(nv, rows, objective)
    oracle = _brute_force_max(nv, rows, objective)
    if oracle is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.value == oracle
        # witness feasibility and value
        for coeffs, rel, rhs in rows:
            lhs = sum(c * xv for c, xv in zip(coeffs, res.x))
            assert (
                (rel == ">=" and lhs >= rhs)
                or (rel == "<=" and lhs <= rhs)
                or (rel == "=" and lhs == rhs)
            )
        assert sum(c * xv for c, xv in zip(objective, res.x)) == res.value


def test_deterministic_given_input_order():
    rows = [([1, 1], "<=", 4), ([1, -1], "<=", 2), ([0, 1], "<=", 3)]
    r1 = solve_lp(2, rows, [1, 1])
    r2 = solve_lp(2, rows, [1, 1])
    assert r1 == r2


# ---------------------------------------------------------------------------
# Differential test against a Fraction tableau.  The reference is the simplex
# the integer tableau replaced, kept here only as an oracle: the integer
# pivots must make the same (row, col) choices and return the same answer.


def _ref_pivot(tab, zrow, basis, row, col, trail):
    trail.append((row, col))
    inv = 1 / tab[row][col]
    tab[row] = [x * inv for x in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, prow)]
    f = zrow[col]
    zrow[:] = [x - f * y for x, y in zip(zrow, prow)]
    basis[row] = col


def _ref_simplex(tab, zrow, basis, trail):
    ncols = len(zrow) - 1
    while True:
        enter = next((j for j in range(ncols) if zrow[j] < 0), None)
        if enter is None:
            return True
        best = None
        for i, r in enumerate(tab):
            if r[enter] > 0:
                ratio = r[-1] / r[enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return False
        _ref_pivot(tab, zrow, basis, best[1], enter, trail)


def _reference_solve_lp(num_vars, constraints, objective, maximize=True, nonneg=None):
    """(LpResult, pivot trail) from a two-phase Fraction simplex with the same
    column layout and Bland's rule as jkvkit.lp."""
    trail = []
    objective = [F(c) for c in objective]
    nonneg = nonneg or [False] * num_vars
    rows = [([F(c) for c in coeffs], rel, F(rhs)) for coeffs, rel, rhs in constraints]
    col_of_var, ncols = [], 0
    for j in range(num_vars):
        col_of_var.append((ncols, None) if nonneg[j] else (ncols, ncols + 1))
        ncols += 1 if nonneg[j] else 2
    slack_of_row = []
    for _, rel, _ in rows:
        slack_of_row.append(None if rel == "=" else ncols)
        ncols += rel != "="
    m = len(rows)
    tab = []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        line = [F(0)] * (ncols + m + 1)
        for j, c in enumerate(coeffs):
            pos, neg = col_of_var[j]
            line[pos] = c
            if neg is not None:
                line[neg] = -c
        if slack_of_row[i] is not None:
            line[slack_of_row[i]] = F(1) if rel == "<=" else F(-1)
        line[-1] = rhs
        if rhs < 0:
            line = [-x for x in line]
        line[ncols + i] = F(1)
        tab.append(line)
    basis = [ncols + i for i in range(m)]
    zrow = [F(0)] * ncols + [F(1)] * m + [F(0)]
    for i in range(m):
        zrow = [z - y for z, y in zip(zrow, tab[i])]
    assert _ref_simplex(tab, zrow, basis, trail)
    if zrow[-1] != 0:
        return LpResult(INFEASIBLE, None, None), trail
    drop = []
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _ref_pivot(tab, zrow, basis, i, col, trail)
    for i in reversed(drop):
        del tab[i]
        del basis[i]
    tab = [row[:ncols] + [row[-1]] for row in tab]
    sense = 1 if maximize else -1
    zrow = [F(0)] * (ncols + 1)
    for j in range(num_vars):
        pos, neg = col_of_var[j]
        zrow[pos] = -sense * objective[j]
        if neg is not None:
            zrow[neg] = sense * objective[j]
    for i, b in enumerate(basis):
        f = zrow[b]
        zrow = [z - f * y for z, y in zip(zrow, tab[i])]
    if not _ref_simplex(tab, zrow, basis, trail):
        return LpResult(UNBOUNDED, None, None), trail
    values = {b: tab[i][-1] for i, b in enumerate(basis)}
    x = []
    for pos, neg in col_of_var:
        x.append(values.get(pos, F(0)) - (values.get(neg, F(0)) if neg is not None else 0))
    return LpResult(OPTIMAL, sense * zrow[-1], tuple(x)), trail


@contextmanager
def _pivots_seen():
    """Yields a list that collects (row, col, pivot entry) of every _pivot call."""
    seen = []
    original = lp._pivot

    def recording(tab, zrow, basis, d, row, col):
        seen.append((row, col, tab[row][col]))
        return original(tab, zrow, basis, d, row, col)

    lp._pivot = recording
    try:
        yield seen
    finally:
        lp._pivot = original


def _solve_with_trail(*args):
    """solve_lp's result and the (row, col) of every pivot it made."""
    with _pivots_seen() as seen:
        res = solve_lp(*args)
    return res, [(row, col) for row, col, _ in seen]


def _assert_matches_reference(*args):
    (res, trail), (ref, ref_trail) = _solve_with_trail(*args), _reference_solve_lp(*args)
    assert (res.status, res.value, res.x) == (ref.status, ref.value, ref.x)
    assert all(type(v) is F for v in (res.x or ()))
    assert trail == ref_trail


_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_tableau_matches_fraction_tableau(data):
    nv = data.draw(st.integers(1, 4))
    rows = []
    for _ in range(data.draw(st.integers(0, 6))):
        coeffs = [data.draw(_fractions) for _ in range(nv)]
        rhs = data.draw(_fractions)
        rows.append((coeffs, data.draw(st.sampled_from(["<=", ">=", "="])), rhs))
        if data.draw(st.booleans()):
            # a redundant equality: a positive or negative multiple of the row
            k = data.draw(_fractions.filter(lambda q: q != 0))
            rows.append(([k * c for c in coeffs], "=", k * rhs))
    objective = [data.draw(_fractions) for _ in range(nv)]
    nonneg = [data.draw(st.booleans()) for _ in range(nv)]
    _assert_matches_reference(nv, rows, objective, data.draw(st.booleans()), nonneg)


def test_negative_drive_out_pivot_matches_reference():
    # _barycentric_lp on these weights leaves an artificial basic at phase-1
    # end whose first nonzero structural entry is negative.
    from jkvkit.polytope import _barycentric_lp

    points = ((1, 1), (3, -1), (-1, -1))
    with _pivots_seen() as seen:
        assert _barycentric_lp(points) == (OPTIMAL, 0, (F(1, 2), 0, F(1, 2)))
    assert any(p < 0 for _, _, p in seen)
    m = len(points)
    cons = [([F(p[k]) for p in points] + [F(0)], "=", 0) for k in range(2)]
    cons.append(([F(1)] * m + [F(0)], "=", 1))
    for i in range(m):
        row = [F(0)] * (m + 1)
        row[i], row[m] = F(1), F(-1)
        cons.append((row, ">=", 0))
    _assert_matches_reference(m + 1, cons, [F(0)] * m + [F(1)], True, [True] * m + [False])
