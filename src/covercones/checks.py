"""Theorem-level decision procedures with definitional oracle partners.

Each check here rides a polyhedral characterization (clique facets, polytope
integrality, Hilbert-basis conditions) and reports `method: theorem-path`;
each has an oracle partner that decides the same property by exhaustive
search or LP/ILP comparison and reports `method: oracle`.  The test suite
runs both on small inputs and treats any disagreement as a failure, which is
the point of the package.
"""

from .blowup import is_rees_normal, rees_cone
from .clutters import (IncidenceMatrix, all_cliques, chordless_cycles,
                       cover_ideal, dual_ideal, edge_clutter, Graph,
                       incidence_matrix, is_chordal, complement,
                       minimal_vertex_covers)
from .cones import (HILBERT_DIM_CAP, HRepPolyhedron, IntegerCone,
                    Halfspace, hilbert_basis, is_integral, make_halfspace,
                    vertices)
from .errors import CapExceededError, InputError
from .lp import GE, INFEASIBLE, OPTIMAL, make_lp, solve, solve_ilp_bounded
from .report import ORACLE, THEOREM_PATH, CheckReport

PERFECT_CONE_CAP = 9


def _columns_of(A):
    if isinstance(A, IncidenceMatrix):
        return A.n, list(A.columns)
    cols = [tuple(int(x) for x in c) for c in A]
    if not cols:
        raise InputError("empty matrix")
    return len(cols[0]), cols


def clique_halfspaces(G):
    """The inequality of each clique: the clique entries sum to at least
    (size - 1) times the last coordinate.  Includes the empty clique (last
    coordinate non-negative) and the singletons (coordinates non-negative)."""
    n = G.n
    out = [make_halfspace(tuple(int(j == n) for j in range(n + 1)))]
    for clique in all_cliques(G):
        normal = [1 if v in clique else 0 for v in range(1, n + 1)]
        normal.append(-(len(clique) - 1))
        out.append(make_halfspace(tuple(normal)))
    return sorted(out)


def perfect_via_rees_cone(G, cap=PERFECT_CONE_CAP):
    """Perfection through the cover ideal's cone geometry: the graph is
    perfect iff the irreducible facet list of the Rees cone of its cover
    ideal is exactly the clique inequality list."""
    if G.isolated_vertices():
        raise InputError("perfection checks need a graph without isolated vertices")
    if G.n > cap:
        raise CapExceededError(f"cone perfection check capped at n <= {cap}")
    model = rees_cone(cover_ideal(edge_clutter(G)))
    facets = set(model.cone.facets)
    cliques = set(clique_halfspaces(G))
    if facets == cliques:
        return CheckReport(
            name="perfect-via-cone", verdict=True, method=THEOREM_PATH,
            certificate={"facets": len(facets)},
            search_bounds={"n_cap": cap})
    extra = sorted(facets - cliques)
    missing = sorted(cliques - facets)
    return CheckReport(
        name="perfect-via-cone", verdict=False, method=THEOREM_PATH,
        witness={"non_clique_facets": [h.normal for h in extra],
                 "clique_inequalities_not_facets": [h.normal for h in missing]},
        search_bounds={"n_cap": cap})


def perfect_matrix_check(A):
    """A 0/1 matrix is perfect when {x >= 0, xA <= 1} has integral vertices
    only; the witness of failure is a fractional vertex."""
    n, cols = _columns_of(A)
    hs = [make_halfspace(tuple(int(i == j) for j in range(n)))
          for i in range(n)]
    hs += [Halfspace(tuple(-x for x in col), -1) for col in cols]
    inner = is_integral(HRepPolyhedron(n, tuple(hs)))
    return CheckReport(
        name="perfect-matrix", verdict=inner.verdict, method=THEOREM_PATH,
        witness=inner.witness, certificate=inner.certificate)


def tdi_check(A, dim_cap=HILBERT_DIM_CAP):
    """Total dual integrality of x >= 0, xA <= 1 by the two-condition test:
    (i) the polytope is integral, and (ii) the lattice points of the cone on
    the lifted columns (v_i, 1) and the negated units are generated by them.
    Condition (ii) holds exactly when the Hilbert basis of that cone is
    contained in the generator list, since an irreducible basis element is
    a combination of the generators only when it is one; the first basis
    element outside the list is the witness of failure.

    For matrices with negative entries the two conditions remain sufficient
    but the converse is not claimed: a failed condition yields verdict None.
    """
    n, cols = _columns_of(A)
    nonneg_entries = all(x >= 0 for col in cols for x in col)
    integral = perfect_matrix_check(A)
    lifted = [col + (1,) for col in cols]
    lifted += [tuple(-int(i == j) for j in range(n)) + (0,) for i in range(n)]
    cone = IntegerCone.from_generators(n + 1, lifted)
    if not cone.is_pointed():
        raise AssertionError("lifted column cone is unexpectedly not pointed")
    hb = hilbert_basis(cone, dim_cap=dim_cap)
    generators = set(lifted)
    lattice_witness = next(
        (e for e in hb.elements if e not in generators), None)
    both = bool(integral.verdict) and lattice_witness is None
    if nonneg_entries:
        verdict = both
    else:
        verdict = True if both else None
    witness = None
    if verdict is False:
        witness = {"fractional_vertex": integral.witness,
                   "ungenerated_lattice_point": lattice_witness}
    return CheckReport(
        name="tdi", verdict=verdict, method=THEOREM_PATH,
        witness=witness,
        certificate={"polytope_integral": integral.verdict,
                     "hilbert_basis_size": len(hb.elements)} if verdict else None,
        search_bounds={"hb_dim_cap": dim_cap},
        reason=None if verdict is not None
        else "matrix has negative entries; the two conditions are only sufficient")


def tdi_oracle(A, alpha_lo=-2, alpha_hi=None):
    """Definitional TDI cross-check on a small matrix: for every integral
    objective alpha in the recorded box with a finite covering minimum, the
    covering dual must have an integral optimum.  Bounded verification; the
    boxes are part of the report."""
    n, cols = _columns_of(A)
    q = len(cols)
    if alpha_hi is None:
        alpha_hi = max(sum(col[i] for col in cols) for i in range(n))
    max_alpha = max(abs(alpha_lo), abs(alpha_hi))
    row_max = max((sum(col) for col in cols), default=0)
    y_hi = max_alpha + row_max
    rows = [[col[i] for col in cols] for i in range(n)]  # A y as rows
    from itertools import product
    checked = 0
    for alpha in product(range(alpha_lo, alpha_hi + 1), repeat=n):
        prog = make_lp([1] * q, rows, list(alpha), [GE] * n)
        res = solve(prog)
        if res.status == INFEASIBLE:
            continue  # no finite minimum for this alpha
        checked += 1
        ilp = solve_ilp_bounded(prog, [(0, y_hi)] * q)
        if ilp.status != OPTIMAL or ilp.value != res.value:
            return CheckReport(
                name="tdi-oracle", verdict=False, method=ORACLE,
                witness={"alpha": alpha, "lp_value": res.value,
                         "ilp_value": ilp.value},
                search_bounds={"alpha_box": [alpha_lo, alpha_hi],
                               "y_box": [0, y_hi]})
    return CheckReport(
        name="tdi-oracle", verdict=True, method=ORACLE,
        certificate={"objectives_checked": checked},
        search_bounds={"alpha_box": [alpha_lo, alpha_hi], "y_box": [0, y_hi]})


def balanced_check(A):
    """No odd square submatrix with exactly two ones per row and column.

    Such a submatrix is exactly a chordless cycle of length 2 mod 4 in the
    bipartite row/column incidence graph, which is what the fast path
    enumerates; balanced_oracle scans submatrices directly.
    """
    n, cols = _columns_of(A)
    _require_zero_one(cols)
    q = len(cols)
    adjacency = [0] * (n + q + 1)
    for j, col in enumerate(cols):
        for i in range(n):
            if col[i]:
                adjacency[i + 1] |= 1 << (n + j)
                adjacency[n + j + 1] |= 1 << i
    for cycle in chordless_cycles(n + q, adjacency, min_len=6):
        if len(cycle) % 4 == 2:
            rows_used = sorted(v for v in cycle if v <= n)
            cols_used = sorted(v - n for v in cycle if v > n)
            return CheckReport(
                name="balanced", verdict=False, method=THEOREM_PATH,
                witness={"rows": rows_used, "columns": cols_used})
    return CheckReport(name="balanced", verdict=True, method=THEOREM_PATH,
                       certificate={"rows": n, "columns": q})


def balanced_oracle(A, order_cap=7):
    """Exhaustive submatrix scan for the balancedness definition."""
    from itertools import combinations
    n, cols = _columns_of(A)
    _require_zero_one(cols)
    q = len(cols)
    for k in range(3, min(n, q, order_cap) + 1, 2):
        for rows_used in combinations(range(n), k):
            for cols_used in combinations(range(q), k):
                sub = [[cols[j][i] for j in cols_used] for i in rows_used]
                if all(sum(r) == 2 for r in sub) and \
                        all(sum(sub[i][j] for i in range(k)) == 2
                            for j in range(k)):
                    return CheckReport(
                        name="balanced-oracle", verdict=False, method=ORACLE,
                        witness={"rows": [i + 1 for i in rows_used],
                                 "columns": [j + 1 for j in cols_used]},
                        search_bounds={"order_cap": order_cap})
    return CheckReport(name="balanced-oracle", verdict=True, method=ORACLE,
                       search_bounds={"order_cap": order_cap})


def _require_zero_one(cols):
    if any(x not in (0, 1) for col in cols for x in col):
        raise InputError("matrix entries must be 0 or 1")


def mfmc_check(C):
    """Max-flow min-cut property for a clutter with equal-size edges: both
    the packing polytope {x >= 0, xA <= 1} and the covering polyhedron
    {x >= 0, xA >= 1} must be integral.  The integral vertices of the
    covering side are asserted to be exactly the minimal vertex cover
    vectors."""
    sizes = {len(e) for e in C.edges}
    if len(sizes) != 1:
        return CheckReport(
            name="mfmc", verdict=None, method=THEOREM_PATH,
            reason=f"edges have mixed cardinalities {sorted(sizes)}")
    A = incidence_matrix(C)
    n, cols = A.n, list(A.columns)
    unit = [make_halfspace(tuple(int(i == j) for j in range(n)))
            for i in range(n)]
    packing = HRepPolyhedron(n, tuple(
        unit + [Halfspace(tuple(-x for x in col), -1) for col in cols]))
    covering = HRepPolyhedron(n, tuple(
        unit + [Halfspace(col, 1) for col in cols]))
    packing_report = is_integral(packing)
    covering_verts = vertices(covering)
    fractional = [v for v in covering_verts
                  if any(x.denominator != 1 for x in v)]
    integral_vertices = {
        tuple(int(x) for x in v)
        for v in covering_verts if all(x.denominator == 1 for x in v)}
    covers = {tuple(1 if i in set(c) else 0 for i in range(1, n + 1))
              for c in minimal_vertex_covers(C)}
    if integral_vertices != covers:
        raise AssertionError(
            "integral covering vertices differ from the minimal covers")
    verdict = bool(packing_report.verdict and not fractional)
    witness = None
    if not verdict:
        witness = {"packing": packing_report.witness,
                   "covering": None if not fractional
                   else {"vertex": tuple(str(x) for x in fractional[0])}}
    return CheckReport(
        name="mfmc", verdict=verdict, method=THEOREM_PATH, witness=witness,
        certificate={"covering_integral_vertices": sorted(covers)}
        if verdict else None)


def cm_height_two_normal(pairs, dim_cap=HILBERT_DIM_CAP):
    """Normality of a height-two cover construction: the pairs are read as
    the edges of a graph G; when the complement of G is chordal the Rees
    algebra of the cover ideal is asserted normal, otherwise the check
    reports not-applicable with the witness cycle."""
    pairs = [tuple(sorted(p)) for p in pairs]
    if not pairs:
        raise InputError("no pairs given")
    n = max(v for p in pairs for v in p)
    G = Graph(n, pairs)
    chordal, cycle = is_chordal(complement(G))
    if not chordal:
        return CheckReport(
            name="cm-height-two-normal", verdict=None, method=THEOREM_PATH,
            reason="complement graph is not chordal",
            witness={"chordless_cycle": cycle})
    normal = is_rees_normal(cover_ideal(edge_clutter(G)), dim_cap=dim_cap)
    if not normal.verdict:
        raise AssertionError(
            "chordal complement but the cover ideal is not normal")
    return CheckReport(
        name="cm-height-two-normal", verdict=True, method=THEOREM_PATH,
        certificate=normal.certificate,
        search_bounds=normal.search_bounds)


def dual_balanced_normal(A, dim_cap=HILBERT_DIM_CAP):
    """For a balanced 0/1 matrix, the Rees algebra on the complemented
    columns 1 - v_i is normal; skipped (with the witness) when the matrix
    is not balanced."""
    n, cols = _columns_of(A)
    balanced = balanced_check(A)
    if not balanced.verdict:
        return CheckReport(
            name="dual-balanced-normal", verdict=None, method=THEOREM_PATH,
            reason="matrix is not balanced", witness=balanced.witness)
    dual = dual_ideal(cols)
    normal = is_rees_normal(dual, dim_cap=dim_cap)
    if not normal.verdict:
        raise AssertionError("balanced matrix with a non-normal dual ideal")
    return CheckReport(
        name="dual-balanced-normal", verdict=True, method=THEOREM_PATH,
        certificate=normal.certificate, search_bounds=normal.search_bounds)
