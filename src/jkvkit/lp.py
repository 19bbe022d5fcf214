"""Exact rational linear programming: two-phase simplex with Bland's rule.

No tolerances anywhere.  The tableau is kept fraction-free: an integer
matrix T and one common denominator d > 0 stand for the rational tableau
T / d (Edmonds 1967; Bareiss, Math. Comp. 22, 1968).  A pivot on entry p
updates every other row by the Bareiss step (x*p - f*y) // d, which is an
exact division, and p becomes the new denominator; a negative pivot (the
artificial drive-out may pick one) negates its row first so d stays
positive.  The constraint rows are scaled by one positive integer (the
artificial columns stay unit vectors, which only rescales the artificial
variables by that integer) and the objective by another, to clear the
input denominators.  Such positive scalings keep every sign and every ratio
order of the rational tableau, and d > 0 keeps them in T, so Bland's rule
makes exactly the choices it would make on the Fraction tableau; the ratio
test compares by cross-multiplication.  Bland's rule guarantees
termination, and the fixed column layout makes every answer deterministic
given the input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _pivot(tab, zrow, basis, d, row, col):
    """Pivot the tableau tab / d (objective row zrow / d) on (row, col);
    returns the new common denominator."""
    prow = tab[row]
    p = prow[col]
    if p < 0:
        prow = tab[row] = [-y for y in prow]
        p = -p
    for i, r in enumerate(tab):
        if i != row:
            f = r[col]
            if f:
                tab[i] = [(x * p - f * y) // d for x, y in zip(r, prow)]
            elif p != d:
                tab[i] = [x * p // d for x in r]
    f = zrow[col]
    zrow[:] = [(x * p - f * y) // d for x, y in zip(zrow, prow)]
    basis[row] = col
    return p


def _run_simplex(tab, zrow, basis, d):
    """Maximize with z-row convention zrow[j] = -reduced_cost * d.

    Returns the final denominator, or None if the program is unbounded."""
    ncols = len(zrow) - 1
    for _ in range(_MAX_PIVOTS):
        enter = next((j for j in range(ncols) if zrow[j] < 0), None)
        if enter is None:
            return d
        best = None
        for i, r in enumerate(tab):
            a = r[enter]
            if a > 0:
                if best is None:
                    best = i
                    continue
                # r[-1] / a against the incumbent's ratio, both denominators > 0
                lhs = r[-1] * tab[best][enter]
                rhs = tab[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return None
        d = _pivot(tab, zrow, basis, d, best, enter)
    raise RuntimeError("simplex pivot limit exceeded")


def _scaled(q: Fraction, scale: int) -> int:
    """q * scale, for a scale that q's denominator divides."""
    return q.numerator * (scale // q.denominator)


def solve_lp(num_vars, constraints, objective, maximize=True, nonneg=None):
    """Solve max/min objective*x subject to constraints.

    constraints: iterable of (coeffs, rel, rhs) with rel one of "<=", ">=", "=".
    nonneg[j] declares x_j >= 0; variables default to free (split internally).
    """
    objective = [Fraction(c) for c in objective]
    if len(objective) != num_vars:
        raise ValueError("objective length mismatch")
    if nonneg is None:
        nonneg = [False] * num_vars
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != num_vars:
            raise ValueError("constraint length mismatch")
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")
        rows.append((coeffs, rel, Fraction(rhs)))
    row_scale = lcm(*(c.denominator for coeffs, _, rhs in rows for c in (*coeffs, rhs)))
    obj_scale = lcm(*(c.denominator for c in objective))

    # Column layout: per-variable columns (one or a +/- pair), then slacks.
    col_of_var: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(num_vars):
        if nonneg[j]:
            col_of_var.append((ncols, None))
            ncols += 1
        else:
            col_of_var.append((ncols, ncols + 1))
            ncols += 2
    slack_of_row = []
    for coeffs, rel, rhs in rows:
        if rel == "=":
            slack_of_row.append(None)
        else:
            slack_of_row.append(ncols)
            ncols += 1

    m = len(rows)
    tab = []
    rhs_col = ncols + m  # artificials occupy [ncols, ncols+m)
    for i, (coeffs, rel, rhs) in enumerate(rows):
        line = [0] * (rhs_col + 1)
        for j, c in enumerate(coeffs):
            c = _scaled(c, row_scale)
            pos, neg = col_of_var[j]
            line[pos] = c
            if neg is not None:
                line[neg] = -c
        if slack_of_row[i] is not None:
            line[slack_of_row[i]] = row_scale if rel == "<=" else -row_scale
        line[-1] = _scaled(rhs, row_scale)
        if line[-1] < 0:
            line = [-x for x in line]
        tab.append(line)
    basis = []
    for i in range(m):
        art = ncols + i
        tab[i][art] = 1
        basis.append(art)

    # Phase 1: maximize -(sum of artificials), starting from denominator 1.
    zrow = [0] * (rhs_col + 1)
    for i in range(m):
        zrow[ncols + i] = 1
    for i in range(m):
        zrow = [z - y for z, y in zip(zrow, tab[i])]
    d = _run_simplex(tab, zrow, basis, 1)
    if d is None:
        raise RuntimeError("phase 1 cannot be unbounded")
    if zrow[-1] != 0:
        return LpResult(INFEASIBLE, None, None)

    # Drive remaining artificials out of the basis (degenerate rows).
    drop = []
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                d = _pivot(tab, zrow, basis, d, i, col)
    for i in reversed(drop):
        del tab[i]
        del basis[i]

    # Phase 2 on structural columns only.  Every basic column of tab is now
    # d times a unit vector, so pricing out divides exactly.
    tab = [row[:ncols] + [row[-1]] for row in tab]
    sense = 1 if maximize else -1
    zrow = [0] * (ncols + 1)
    for j, c in enumerate(objective):
        c = _scaled(c, obj_scale)
        pos, neg = col_of_var[j]
        zrow[pos] = -sense * c * d
        if neg is not None:
            zrow[neg] = sense * c * d
    for i, b in enumerate(basis):
        f = zrow[b] // d
        if f != 0:
            zrow = [z - f * y for z, y in zip(zrow, tab[i])]
    d = _run_simplex(tab, zrow, basis, d)
    if d is None:
        return LpResult(UNBOUNDED, None, None)

    values = {b: tab[i][-1] for i, b in enumerate(basis)}
    x = []
    for j in range(num_vars):
        pos, neg = col_of_var[j]
        v = values.get(pos, 0)
        if neg is not None:
            v -= values.get(neg, 0)
        x.append(Fraction(v, d))
    return LpResult(OPTIMAL, Fraction(sense * zrow[-1], d * obj_scale), tuple(x))


def lp_solve(a_rows, b, objective):
    """Maximize objective*x subject to A*x >= b over free rational variables.

    Returns (optimum, witness) for solvable programs and the string verdicts
    "infeasible" / "unbounded" otherwise.
    """
    a_rows = [list(r) for r in a_rows]
    nvars = len(objective)
    cons = [(row, ">=", rhs) for row, rhs in zip(a_rows, b)]
    res = solve_lp(nvars, cons, list(objective), maximize=True)
    if res.status != OPTIMAL:
        return res.status
    return res.value, res.x
