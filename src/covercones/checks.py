"""Theorem-level decision procedures.

Each check here rides a characterization (clique facets, polytope
integrality, Hilbert-basis conditions, the strong perfect graph theorem,
induced cycles) and reports `method: theorem-path`.  Their definitional
oracle partners, which decide the same property by exhaustive search or by
a search for an integral point that attains each LP value, live in
tests/oracles.py; the test suite runs both on small inputs and treats any
disagreement as a failure.
"""

from dataclasses import replace

from . import errors
from .blowup import clique_lift_set, is_rees_normal, rees_cone
from .clutters import (IncidenceMatrix, chordless_cycles, cover_ideal,
                       dual_ideal, edge_clutter, Graph, incidence_matrix,
                       is_chordal, complement)
from .cones import (HRepPolyhedron, Halfspace, IntegerCone, hilbert_basis,
                    is_integral, make_halfspace, orthant, vertices)
from .errors import InputError
from .report import THEOREM_PATH, CheckReport


def _packing_polytope(n, cols):
    """{x >= 0 : <x, col> <= 1 for every column}."""
    return HRepPolyhedron(n, tuple(
        orthant(n) + [Halfspace(tuple(-x for x in col), -1) for col in cols]))


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
    out += [make_halfspace(w[:n] + (-w[n],)) for w in clique_lift_set(G)]
    return sorted(out)


def perfect_via_rees_cone(G):
    """Perfection through the cover ideal's cone geometry: the graph is
    perfect iff the irreducible facet list of the Rees cone of its cover
    ideal is exactly the clique inequality list.  The facets come from one
    double description, bounded by errors.SEARCH_BUDGET ray pairs, and the
    covers and cliques from enumerations bounded by as many nodes."""
    facets = set(rees_cone(cover_ideal(edge_clutter(G))).facets)
    cliques = set(clique_halfspaces(G))
    bounds = {"dd_budget": errors.SEARCH_BUDGET,
              "enumeration_budget": errors.SEARCH_BUDGET}
    if facets == cliques:
        return CheckReport(
            name="perfect-via-cone", verdict=True, method=THEOREM_PATH,
            certificate={"facets": len(facets)}, search_bounds=bounds)
    extra = sorted(facets - cliques)
    missing = sorted(cliques - facets)
    return CheckReport(
        name="perfect-via-cone", verdict=False, method=THEOREM_PATH,
        witness={"non_clique_facets": [h.normal for h in extra],
                 "clique_inequalities_not_facets": [h.normal for h in missing]},
        search_bounds=bounds)


def perfect_via_odd_holes(G):
    """Perfection by the strong perfect graph theorem (Chudnovsky, Robertson,
    Seymour and Thomas): a graph is perfect iff neither it nor its complement
    has an induced odd cycle of length five or more.  The induced cycles of G
    and then of its complement are walked up to the first odd one, which is
    the witness; the certificate counts the even ones examined.  Each walk
    expands at most errors.SEARCH_BUDGET search nodes."""
    examined = []
    for kind, H in (("odd_hole", G), ("odd_antihole", complement(G))):
        count = 0
        for cycle in chordless_cycles(H.n, H.adj, 5):
            if len(cycle) % 2:
                return CheckReport(
                    name="perfect-via-odd-holes", verdict=False,
                    method=THEOREM_PATH, witness={kind: cycle},
                    search_bounds={"node_budget": errors.SEARCH_BUDGET})
            count += 1
        examined.append(count)
    return CheckReport(
        name="perfect-via-odd-holes", verdict=True, method=THEOREM_PATH,
        certificate={"even_holes": examined[0], "even_antiholes": examined[1]},
        search_bounds={"node_budget": errors.SEARCH_BUDGET})


def perfect_matrix_check(A):
    """A 0/1 matrix is perfect when {x >= 0, xA <= 1} has integral vertices
    only; the witness of failure is a fractional vertex."""
    return replace(is_integral(_packing_polytope(*_columns_of(A))),
                   name="perfect-matrix")


def tdi_check(A):
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
    lifted = [col + (1,) for col in cols]
    lifted += [tuple(-int(i == j) for j in range(n)) + (0,) for i in range(n)]
    hb = hilbert_basis(IntegerCone(n + 1, lifted))
    lattice_witness = hb.first_outside()
    integral = perfect_matrix_check(A)
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
        search_bounds={"hb_budget": errors.SEARCH_BUDGET},
        reason=None if verdict is not None
        else "matrix has negative entries; the two conditions are only sufficient")


def balanced_check(A):
    """No odd square submatrix with exactly two ones per row and column.

    Such a submatrix is exactly a chordless cycle of length 2 mod 4 in the
    bipartite row/column incidence graph, which is what this check
    enumerates, within errors.SEARCH_BUDGET nodes; the first such cycle
    names the rows and columns of the witness.
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
    bounds = {"node_budget": errors.SEARCH_BUDGET}
    for cycle in chordless_cycles(n + q, adjacency, min_len=6):
        if len(cycle) % 4 == 2:
            rows_used = sorted(v for v in cycle if v <= n)
            cols_used = sorted(v - n for v in cycle if v > n)
            return CheckReport(
                name="balanced", verdict=False, method=THEOREM_PATH,
                witness={"rows": rows_used, "columns": cols_used},
                search_bounds=bounds)
    return CheckReport(name="balanced", verdict=True, method=THEOREM_PATH,
                       certificate={"rows": n, "columns": q},
                       search_bounds=bounds)


def _require_zero_one(cols):
    if any(x not in (0, 1) for col in cols for x in col):
        raise InputError("matrix entries must be 0 or 1")


def mfmc_check(C):
    """Max-flow min-cut property for a clutter with equal-size edges: both
    the packing polytope {x >= 0, xA <= 1} and the covering polyhedron
    {x >= 0, xA >= 1} must be integral.  The integral vertices of the
    covering side are asserted to be exactly the minimal vertex cover
    vectors, enumerated within errors.SEARCH_BUDGET nodes."""
    if not C.edges:
        raise InputError("clutter has no edges")
    sizes = {len(e) for e in C.edges}
    if len(sizes) != 1:
        return CheckReport(
            name="mfmc", verdict=None, method=THEOREM_PATH,
            reason=f"edges have mixed cardinalities {sorted(sizes)}")
    A = incidence_matrix(C)
    n, cols = A.n, list(A.columns)
    covers = set(cover_ideal(C))
    covering = HRepPolyhedron(n, tuple(
        orthant(n) + [Halfspace(col, 1) for col in cols]))
    packing_report = is_integral(_packing_polytope(n, cols))
    covering_verts = vertices(covering)
    fractional = [v for v in covering_verts
                  if any(x.denominator != 1 for x in v)]
    integral_vertices = {
        tuple(int(x) for x in v)
        for v in covering_verts if all(x.denominator == 1 for x in v)}
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
        if verdict else None,
        search_bounds={"enumeration_budget": errors.SEARCH_BUDGET})


def cm_height_two_normal(pairs):
    """Normality of a height-two cover construction: the pairs are read as
    the edges of a graph G; when the complement of G is chordal the Rees
    algebra of the cover ideal is asserted normal, otherwise the check
    reports not-applicable with the witness cycle.  The chordality search
    and the cover enumeration each expand at most errors.SEARCH_BUDGET
    nodes."""
    pairs = [tuple(sorted(p)) for p in pairs]
    if not pairs:
        raise InputError("no pairs given")
    n = max(v for p in pairs for v in p)
    G = Graph(n, pairs)
    bounds = {"node_budget": errors.SEARCH_BUDGET}
    chordal, cycle = is_chordal(complement(G))
    if not chordal:
        return CheckReport(
            name="cm-height-two-normal", verdict=None, method=THEOREM_PATH,
            reason="complement graph is not chordal",
            witness={"chordless_cycle": cycle}, search_bounds=bounds)
    normal = is_rees_normal(cover_ideal(edge_clutter(G)))
    if not normal.verdict:
        raise AssertionError(
            "chordal complement but the cover ideal is not normal")
    return CheckReport(
        name="cm-height-two-normal", verdict=True, method=THEOREM_PATH,
        certificate=normal.certificate,
        search_bounds={**normal.search_bounds, **bounds,
                       "enumeration_budget": errors.SEARCH_BUDGET})


def dual_balanced_normal(A):
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
    normal = is_rees_normal(dual)
    if not normal.verdict:
        raise AssertionError("balanced matrix with a non-normal dual ideal")
    return CheckReport(
        name="dual-balanced-normal", verdict=True, method=THEOREM_PATH,
        certificate=normal.certificate, search_bounds=normal.search_bounds)
