"""Integral covering by a depth-first search bounded by the LP value.

No code in the package calls covering_attains: the definitional TDI oracle
that does (tests/oracles.py::tdi_oracle) lives in the test suite, and the
module stays for covbench/tracer.py, which looks it up as covercones.lp.
The package solves no linear relaxation: the oracle reads its LP values off
a double description.
"""

from . import errors
from .errors import spend


def covering_attains(cols, alpha, total):
    """Whether some integral y >= 0 with sum_j y_j cols[j] >= alpha has
    1.y <= total, returned with the number of search nodes visited.

    The search walks the remainder alpha - Ay, one unit of one column at a
    time.  The first row still short can only be met by a column positive
    on it, so only those columns are branched on, and at most `total` units
    are spent, so no y_j needs a box.  A remainder that fails with k units
    left fails with fewer, so the largest failing k of each remainder is
    remembered.  The walk keeps its own stack, since its depth reaches
    `total`.  Raises CapExceededError past errors.SEARCH_BUDGET nodes.
    """
    n = len(alpha)
    positive = [[col for col in cols if col[i] > 0] for i in range(n)]
    failed = {}           # remainder -> the most units it failed with
    stack = []            # (remainder, units left, columns still to try)
    rest, left = tuple(alpha), total
    budget = errors.SEARCH_BUDGET
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            spend(nodes, 0, "covering search", "nodes")
        short = next((i for i in range(n) if rest[i] > 0), None)
        if short is None:
            return True, nodes
        if failed.get(rest, 0) < left:
            stack.append((rest, left, iter(positive[short])))
        while stack:
            top, units, children = stack[-1]
            col = next(children, None)
            if col is not None:
                rest = tuple(r - c for r, c in zip(top, col))
                left = units - 1
                break
            failed[top] = units
            stack.pop()
        else:
            return False, nodes
