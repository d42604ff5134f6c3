"""Exact integer programs over a finite box, by branch-and-bound in integer
arithmetic.  The package solves no linear relaxation: the LP values that
tdi_oracle compares against are read off a double description.
"""

from dataclasses import dataclass

from .errors import CapExceededError, InputError

LE, GE, EQ = "<=", ">=", "=="

NODE_BUDGET = 500_000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


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
class ILPResult:
    status: str
    value: int | None
    point: tuple | None
    box: tuple
    nodes: int = 0        # branch-and-bound nodes visited


def solve_ilp_bounded(lp, box):
    """Exact integer optimum inside a finite box, by depth-first
    branch-and-bound: variables are fixed one at a time, and a branch is cut
    when interval arithmetic over the unfixed variables shows that either
    some constraint cannot be met or the objective cannot beat the
    incumbent.  Enumeration is exhaustive up to those exact prunings, and
    raises CapExceededError past NODE_BUDGET nodes.

    `box` gives inclusive (lo, hi) integer bounds per variable.
    """
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    n = len(lp.objective)
    if len(box) != n:
        raise InputError("box does not match the number of variables")
    if any(lo > hi for lo, hi in box):
        raise InputError("empty box")
    box = tuple((max(lo, 0) if nn else lo, hi)
                for (lo, hi), nn in zip(box, lp.nonneg))
    if any(lo > hi for lo, hi in box):
        return ILPResult(status=INFEASIBLE, value=None, point=None, box=box)
    # suffix_lo[r][j] .. suffix_hi[r][j]: the range of row r (the objective
    # last) over the variables j..n-1 of the box
    rows = list(lp.rows) + [lp.objective]
    suffix_lo = [[0] * (n + 1) for _ in rows]
    suffix_hi = [[0] * (n + 1) for _ in rows]
    for r, row in enumerate(rows):
        for j in range(n - 1, -1, -1):
            ends = (row[j] * box[j][0], row[j] * box[j][1])
            suffix_lo[r][j] = suffix_lo[r][j + 1] + min(ends)
            suffix_hi[r][j] = suffix_hi[r][j + 1] + max(ends)
    obj = len(rows) - 1
    sign = -1 if lp.maximize else 1
    best = [None, None]   # sign * value, point

    def prune(depth, partial):
        for r, (rhs, sense) in enumerate(zip(lp.rhs, lp.senses)):
            lo = partial[r] + suffix_lo[r][depth]
            hi = partial[r] + suffix_hi[r][depth]
            if sense == LE and lo > rhs or sense == GE and hi < rhs \
                    or sense == EQ and (lo > rhs or hi < rhs):
                return True
        if best[0] is not None:
            reachable = partial[obj] + (suffix_hi if lp.maximize
                                        else suffix_lo)[obj][depth]
            if sign * reachable >= best[0]:
                return True
        return False

    point = [0] * n
    nodes = 0

    def descend(depth, partial):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise CapExceededError(
                f"branch-and-bound exceeded its budget of {NODE_BUDGET} nodes")
        if prune(depth, partial):
            return
        if depth == n:
            best[0] = sign * partial[obj]
            best[1] = tuple(point)
            return
        lo, hi = box[depth]
        values = range(lo, hi + 1)
        if (lp.objective[depth] > 0) == lp.maximize:
            values = range(hi, lo - 1, -1)
        for v in values:
            point[depth] = v
            descend(depth + 1,
                    [p + row[depth] * v for p, row in zip(partial, rows)])

    descend(0, [0] * len(rows))
    if best[0] is None:
        return ILPResult(INFEASIBLE, None, None, box, nodes)
    return ILPResult(OPTIMAL, sign * best[0], best[1], box, nodes)
