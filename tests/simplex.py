"""Exact rational linear programming: the LP oracle of the tests.

A deliberately small simplex solver over Fraction arithmetic with Bland's
least-index pivoting rule, which cannot cycle.  Every optimal result carries
a dual solution, and both feasibility and the strong-duality equation are
re-verified exactly before the result is returned, so an LPResult with
status "optimal" is a checked certificate, not just a solver claim.  It
shares no code with the package, which reads its LP values off a double
description: even the Fraction solve of the dual, solve_square, is defined
here.  Programs are the integer LinearProgram defined here.

No tolerances exist in this module; all comparisons are exact.
"""

from dataclasses import dataclass
from fractions import Fraction

from covercones.errors import InputError

LE, GE, EQ = "<=", ">=", "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective . x  subject to  row_i . x (<=, >=, ==) rhs_i, with
    x_j >= 0 for each j with nonneg[j] true and x_j free otherwise.  All
    data are integers."""

    objective: tuple
    rows: tuple
    rhs: tuple
    senses: tuple
    nonneg: tuple
    maximize: bool = False

    def __post_init__(self):
        nvars = len(self.objective)
        if len(self.rows) != len(self.rhs) or len(self.rows) != len(self.senses):
            raise InputError("inconsistent row data")
        if any(len(r) != nvars for r in self.rows):
            raise InputError("row length does not match objective length")
        if len(self.nonneg) != nvars:
            raise InputError("sign constraint list does not match variables")
        if any(s not in (LE, GE, EQ) for s in self.senses):
            raise InputError(f"unknown sense in {self.senses}")


def _integer(x):
    if int(x) != x:
        raise InputError(f"non-integral program coefficient {x}")
    return int(x)


def make_lp(objective, rows, rhs, senses, nonneg=None, maximize=False):
    objective = tuple(_integer(c) for c in objective)
    if nonneg is None:
        nonneg = tuple(True for _ in objective)
    return LinearProgram(
        objective=objective,
        rows=tuple(tuple(_integer(a) for a in r) for r in rows),
        rhs=tuple(_integer(b) for b in rhs),
        senses=tuple(senses),
        nonneg=tuple(bool(b) for b in nonneg),
        maximize=maximize)


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None = None
    primal: tuple | None = None
    dual: tuple | None = None


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col]:
            f = tab[i][col]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
    basis[row] = col


def _run_simplex(tab, basis, cost, ncols):
    """Minimize cost over the equality tableau; Bland's rule throughout.
    `cost` is the current reduced cost row (length ncols + 1, last entry is
    minus the objective value).  Returns "optimal" or "unbounded"."""
    m = len(tab)
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        row = None
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return UNBOUNDED
        _pivot(tab, basis, row, col)
        f = cost[col]
        if f:
            cost[:] = [x - f * y for x, y in zip(cost, tab[row] + [])]


def solve_square(rows, rhs):
    """Solve a square linear system exactly.  Returns a Fraction tuple or
    None when the matrix is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


def _standardize(lp):
    """Rewrite as  min c.x  s.t.  A x = b (b >= 0), x >= 0.

    Free variables are split into differences of two non-negative ones.
    Returns (A, b, c, var_map, row_signs) where var_map[j] lists the
    (column, sign) pairs recovering original variable j, and row_signs
    records rows that were negated to make b non-negative.
    """
    nvars = len(lp.objective)
    sign = -1 if lp.maximize else 1
    cols = []          # per standard column: (orig_var, coeff_sign) or slack marker
    var_map = []
    for j in range(nvars):
        if lp.nonneg[j]:
            var_map.append([(len(cols), 1)])
            cols.append(j)
        else:
            var_map.append([(len(cols), 1), (len(cols) + 1, -1)])
            cols.append(j)
            cols.append(j)
    nstruct = len(cols)
    nslack = sum(1 for s in lp.senses if s != EQ)
    ncols = nstruct + nslack
    A = []
    b = []
    slack_at = nstruct
    for r, (row, rhs, sense) in enumerate(zip(lp.rows, lp.rhs, lp.senses)):
        arow = [Fraction(0)] * ncols
        for j in range(nvars):
            for col, csign in var_map[j]:
                arow[col] = Fraction(csign * row[j])
        if sense == LE:
            arow[slack_at] = Fraction(1)
            slack_at += 1
        elif sense == GE:
            arow[slack_at] = Fraction(-1)
            slack_at += 1
        A.append(arow)
        b.append(Fraction(rhs))
    c = [Fraction(0)] * ncols
    for j in range(nvars):
        for col, csign in var_map[j]:
            c[col] = Fraction(sign * csign * lp.objective[j])
    row_signs = []
    for i in range(len(A)):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
            row_signs.append(-1)
        else:
            row_signs.append(1)
    return A, b, c, var_map, row_signs


def solve(lp):
    """Exact two-phase simplex.  The returned optimum carries a dual vector
    satisfying the dual constraints with objective equal to the primal one;
    both are re-verified before returning."""
    A, b, c, var_map, row_signs = _standardize(lp)
    m, ncols = len(A), len(c)

    # phase one: minimize the sum of artificial variables
    tab = [list(A[i]) + [Fraction(int(k == i)) for k in range(m)] + [b[i]]
           for i in range(m)]
    basis = [ncols + i for i in range(m)]
    cost = [Fraction(0)] * (ncols + m + 1)
    for i in range(m):
        for j in range(ncols + m + 1):
            cost[j] -= tab[i][j]
        cost[ncols + i] += Fraction(1)
    for i in range(m):
        cost[ncols + i] = Fraction(0)
    _run_simplex(tab, basis, cost, ncols + m)
    if -cost[-1] != 0:
        return LPResult(status=INFEASIBLE)

    # drive surviving artificials out of the basis; rows that cannot be
    # pivoted are redundant equalities and may be dropped
    drop = []
    for i in range(m):
        if basis[i] >= ncols:
            col = next((j for j in range(ncols) if tab[i][j]), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(tab, basis, i, col)
    for i in sorted(drop, reverse=True):
        del tab[i], basis[i]

    # phase two
    tab = [row[:ncols] + [row[-1]] for row in tab]
    cost = list(c) + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f:
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status = _run_simplex(tab, basis, cost, ncols)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    xstd = [Fraction(0)] * ncols
    for i, bi in enumerate(basis):
        xstd[bi] = tab[i][-1]
    nvars = len(lp.objective)
    x = []
    for j in range(nvars):
        val = Fraction(0)
        for col, csign in var_map[j]:
            val += csign * xstd[col]
        x.append(val)
    x = tuple(x)

    # dual from the optimal basis of the full standardized system
    kept = [i for i in range(m) if i not in drop]
    bt = [[A[i][bj] for i in kept] for bj in basis]
    cb = [c[bj] for bj in basis]
    ystd_kept = solve_square(bt, cb)
    if ystd_kept is None:
        raise AssertionError("optimal basis matrix is singular")
    ystd = [Fraction(0)] * m
    for pos, i in enumerate(kept):
        ystd[i] = ystd_kept[pos]
    dirsign = -1 if lp.maximize else 1
    y = tuple(dirsign * row_signs[i] * ystd[i] for i in range(m))

    value = sum(cj * xj for cj, xj in zip(lp.objective, x))
    _verify_optimal(lp, value, x, y)
    return LPResult(status=OPTIMAL, value=value, primal=x, dual=y)


def _verify_optimal(lp, value, x, y):
    for row, rhs, sense in zip(lp.rows, lp.rhs, lp.senses):
        lhs = sum(a * xj for a, xj in zip(row, x))
        ok = lhs <= rhs if sense == LE else lhs >= rhs if sense == GE else lhs == rhs
        if not ok:
            raise AssertionError("primal solution infeasible")
    if any(xj < 0 for xj, nn in zip(x, lp.nonneg) if nn):
        raise AssertionError("primal sign constraint violated")
    for yi, sense in zip(y, lp.senses):
        if sense == EQ:
            continue
        # max: <= rows carry y >= 0;  min: >= rows carry y >= 0
        expected_nonneg = (sense == LE) == lp.maximize
        if expected_nonneg and yi < 0 or not expected_nonneg and yi > 0:
            raise AssertionError("dual sign constraint violated")
    for j in range(len(lp.objective)):
        s = lp.objective[j] - sum(y[i] * lp.rows[i][j] for i in range(len(y)))
        if not lp.nonneg[j]:
            if s != 0:
                raise AssertionError("dual equality for free variable violated")
        elif lp.maximize and s > 0 or not lp.maximize and s < 0:
            raise AssertionError("dual inequality violated")
    dual_value = sum(yi * bi for yi, bi in zip(y, lp.rhs))
    if dual_value != value:
        raise AssertionError("strong duality failed")
