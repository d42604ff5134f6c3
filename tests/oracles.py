"""Independent brute-force oracles.

Everything here decides by definition: subset scans for cliques, covers and
colourings, perfection as chromatic = clique number on every induced
subgraph, lattice scans plus exact LP membership for cone questions,
basic solutions for the vertices of a polyhedron, the tight rank (by
fraction-free elimination, rank_int) for extreme rays, facets,
pointedness and the rank of a cone, Fraction elimination for coordinates
over a simplex, determinants both fraction-free (Bareiss, det_int) and by
Fraction elimination, and Gram-Schmidt for the facet normals of a
lower-dimensional cone.  The LP questions go to the exact simplex of
simplex.py, which lives only on the test side: the package itself reads
every LP value off a double description.  None of it shares code paths
with the double description or triangulation it cross-checks, except four
helpers built on the package's own cones: recession_rays, the
Gram-Schmidt reference, which projects the rays of the package's first
polar DD because what it checks is the second one, all_pairs_basis,
which reuses the package's candidates because what it checks is the
reduction, and tdi_oracle, which reads its LP values off the package's DD of the packing
polytope and searches with lp.covering_attains, because what it checks is
tdi_check's Hilbert-basis condition.  balanced_oracle scans square
submatrices for the definition that balanced_check decides by induced
cycles.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from covercones import (CapExceededError, CheckReport, Clutter,
                        InfeasibleError, InputError, IntegerCone, cover_ideal,
                        edge_clutter, errors, lp, make_halfspace,
                        maximal_cliques, minimal_vertex_covers, rees_cone)
from covercones.checks import _columns_of, _packing_polytope, _require_zero_one
from covercones.clutters import _exponent
from covercones.cones import _dd_pair, homogenized_rays
from covercones.errors import spend
from covercones.linalg import dot, gcd_vec, primitive

from simplex import EQ, GE, LE, OPTIMAL, LinearProgram, make_lp, solve

ORACLE = "oracle"      # the method label of the reports made here
PERFECTION_ORACLE_CAP = 9


def subsets(vertices):
    for size in range(len(vertices) + 1):
        yield from combinations(vertices, size)


def is_clique(G, vs):
    return all(G.adjacent(u, v) for u, v in combinations(vs, 2))


def brute_maximal_cliques(G):
    vertices = range(1, G.n + 1)
    cliques = [set(s) for s in subsets(vertices) if s and is_clique(G, s)]
    out = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in out)


def brute_all_cliques(G):
    vertices = range(1, G.n + 1)
    return sorted(s for s in subsets(vertices) if s and is_clique(G, s))


def brute_minimal_covers(C):
    vertices = range(1, C.n + 1)
    edge_sets = [set(e) for e in C.edges]
    covers = [set(s) for s in subsets(vertices)
              if all(e & set(s) for e in edge_sets)]
    minimal = [c for c in covers if not any(d < c for d in covers)]
    return sorted(tuple(sorted(c)) for c in minimal)


def brute_chromatic_number(G):
    if G.n == 0:
        return 0
    for k in range(1, G.n + 1):
        for colouring in product(range(k), repeat=G.n):
            if max(colouring) + 1 != k and k > 1:
                continue
            if all(colouring[u - 1] != colouring[v - 1] for u, v in G.edges):
                return k
    return G.n


def brute_clique_number(G):
    return max((len(c) for c in brute_all_cliques(G)), default=0)


def brute_is_perfect(G):
    for s in subsets(range(1, G.n + 1)):
        if not s:
            continue
        H = G.induced(s)
        if brute_chromatic_number(H) != brute_clique_number(H):
            return False
    return True


def clique_number(G):
    if G.n == 0:
        return 0
    return max(len(c) for c in maximal_cliques(G))


def _colorable(G, k):
    if k >= G.n:
        return True
    order = sorted(range(1, G.n + 1), key=lambda v: -G.degree(v))
    colors = {}

    def assign(i, used):
        if i == len(order):
            return True
        v = order[i]
        forbidden = {colors[u] for u in colors if G.adjacent(u, v)}
        for c in range(1, min(used + 1, k) + 1):
            if c not in forbidden:
                colors[v] = c
                if assign(i + 1, max(used, c)):
                    return True
                del colors[v]
        return False

    return assign(0, 0)


def chromatic_number(G):
    """Exact chromatic number by backtracking search."""
    if G.n == 0:
        return 0
    k = clique_number(G)
    while not _colorable(G, k):
        k += 1
    return k


def is_perfect_definitional(G, cap=PERFECTION_ORACLE_CAP):
    """Decide perfection straight from the definition: every induced
    subgraph must have chromatic number equal to its clique number.

    Subsets are scanned by size then lexicographically; the witness of a
    false verdict is the first violating vertex subset.
    """
    if G.n > cap:
        raise CapExceededError(f"perfection oracle capped at n <= {cap}")
    vertices = range(1, G.n + 1)
    for size in range(1, G.n + 1):
        for subset in combinations(vertices, size):
            H = G.induced(subset)
            chi, omega = chromatic_number(H), clique_number(H)
            if chi != omega:
                return CheckReport(
                    name="perfect-definitional", verdict=False, method=ORACLE,
                    witness={"subset": subset, "chromatic": chi, "clique": omega},
                    search_bounds={"n_cap": cap})
    return CheckReport(
        name="perfect-definitional", verdict=True, method=ORACLE,
        certificate={"induced_subgraphs_checked": 2 ** G.n - 1},
        search_bounds={"n_cap": cap})


def brute_hilbert_basis(generators, box_hi=6):
    """Minimal generating set of the lattice points of cone(generators)
    inside [0, box_hi]^d, for cones contained in the non-negative orthant.

    Membership goes through exact LP feasibility, never through facets.
    Inside the box the minimal elements are exactly the Hilbert basis
    members that fit in it, because summands of a non-negative point stay
    componentwise below it.
    """
    dim = len(generators[0])
    points = [p for p in product(range(box_hi + 1), repeat=dim)
              if any(p) and cone_membership_lp(generators, p)]
    point_set = set(points)
    basis = []
    for p in points:
        reducible = False
        for q in points:
            diff = tuple(a - b for a, b in zip(p, q))
            if q != p and all(x >= 0 for x in diff) and any(diff) \
                    and diff in point_set:
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return sorted(basis)


def all_pairs_basis(cone):
    """The Hilbert basis from the package's own candidates (the extreme
    rays and the parallelepiped points of its triangulation, each piece
    diagonalized whatever its volume bound), reduced by testing every
    candidate, extreme rays included: g is dropped when g - h lies in the
    cone, by its facets, for some other candidate h."""
    from covercones.cones import (_coset_form, _parallelepiped_points,
                                  _triangulate)
    candidates = set(cone.extreme_rays())
    for simplex, _ in _triangulate(cone):
        form = _coset_form(simplex)
        if form:
            candidates.update(_parallelepiped_points(simplex, *form))
    return tuple(g for g in sorted(candidates)
                 if not any(h != g and cone.contains(
                     tuple(x - y for x, y in zip(g, h)))
                            for h in candidates))


def brute_lattice_points_dilation(points, b, membership):
    dim = len(points[0])
    lo = [b * min(p[i] for p in points) for i in range(dim)]
    hi = [b * max(p[i] for p in points) for i in range(dim)]
    return [z for z in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
            if membership(z)]


def solve_columns(columns, target):
    """Solve sum_j t_j * columns[j] = target for a full-column-rank family
    by Fraction elimination.  Returns the coefficient tuple, or None when
    the columns are dependent or the system is inconsistent."""
    d = len(target)
    k = len(columns)
    a = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
         for i in range(d)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, d) if a[i][col]), None)
        if piv is None:
            return None
        a[row], a[piv] = a[piv], a[row]
        lead = a[row][col]
        a[row] = [x / lead for x in a[row]]
        for i in range(d):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(row)
        row += 1
    if any(a[i][k] for i in range(row, d)):
        return None
    return tuple(a[r][k] for r in pivots)


def rank_int(vectors):
    """Rank over Q of a family of integer vectors (fraction-free elimination)."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            x = rows[i][col]
            if x:
                rows[i] = [lead * a - x * b for a, b in zip(rows[i], rows[rank])]
                g = gcd_vec(rows[i])
                if g > 1:
                    rows[i] = [a // g for a in rows[i]]
        rank += 1
        col += 1
    return rank


def det_int(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, and every entry is a minor of
    the input, so the integers stay as small as the minors.  Step k updates
    only the columns after the pivot, which are all that later steps read.
    A row that is zero in the pivot column is only rescaled by lead / prev,
    and left as it is when the two are equal."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        lead = m[k][k]
        tail = m[k][k + 1:]
        for row in m[k + 1:]:
            x = row[k]
            if x:
                row[k + 1:] = [(lead * a - x * b) // prev
                               for a, b in zip(row[k + 1:], tail)]
            elif lead != prev:
                row[k + 1:] = [lead * a // prev for a in row[k + 1:]]
        prev = lead
    return sign * m[-1][-1]


def fraction_det(rows):
    """Determinant of a square matrix by Gaussian elimination over the
    rationals: the product of the pivots, signed by the row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def rank_filtered_facets(cone, halfspaces):
    """The halfspaces whose tight generators have rank dim - 1: the
    definition of a facet of a full-dimensional cone, applied to the cone's
    own generators."""
    return sorted({h for h in halfspaces
                   if rank_int([g for g in cone.generators
                                if dot(h.normal, g) == 0]) == cone.dim - 1})


def rank_filtered_extreme_rays(cone):
    """Primitive generators whose tight facets have rank dim - 1: the
    definition of an extreme ray of a pointed cone, applied to the cone's
    own generators and facets."""
    return sorted({p for p in map(primitive, cone.generators)
                   if rank_int([h.normal for h in cone.facets
                                if dot(h.normal, p) == 0]) == cone.dim - 1})


def brute_vertices(P):
    """All vertices, by enumerating basic solutions: every subset of `dim`
    linearly independent constraints is solved exactly and kept when
    feasible.  Prefix elimination states are shared across subsets.  An
    exact LP decides emptiness first and raises InfeasibleError."""
    prog = make_lp(
        objective=[0] * P.dim,
        rows=[list(h.normal) for h in P.halfspaces],
        rhs=[h.rhs for h in P.halfspaces],
        senses=[GE] * len(P.halfspaces),
        nonneg=[False] * P.dim)
    if not feasible(prog):
        raise InfeasibleError("polyhedron is empty")
    cons = [(h.normal, h.rhs) for h in P.halfspaces]
    d = P.dim
    found = set()

    def back_substitute(rows):
        # rows are (coeffs, rhs, pivot column) in echelon order
        x = [Fraction(0)] * d
        for coeffs, rhs, piv in reversed(rows):
            s = rhs - sum(coeffs[j] * x[j] for j in range(piv + 1, d))
            x[piv] = Fraction(s, coeffs[piv])
        return tuple(x)

    def reduce_row(normal, rhs, rows):
        coeffs = [Fraction(x) for x in normal]
        rhs = Fraction(rhs)
        for rc, rr, piv in rows:
            f = coeffs[piv]
            if f:
                coeffs = [a - f * b / rc[piv] for a, b in zip(coeffs, rc)]
                rhs = rhs - f * rr / rc[piv]
        piv = next((j for j in range(d) if coeffs[j]), None)
        return coeffs, rhs, piv

    def rec(start, rows):
        if len(rows) == d:
            x = back_substitute(rows)
            if all(dot(n, x) >= r for n, r in cons):
                found.add(x)
            return
        if len(cons) - start < d - len(rows):
            return
        for i in range(start, len(cons)):
            coeffs, rhs, piv = reduce_row(cons[i][0], cons[i][1], rows)
            if piv is not None:
                rec(i + 1, rows + [(coeffs, rhs, piv)])

    rec(0, [])
    return sorted(found)


def feasible(prog):
    """Feasibility of a linear program (the objective is ignored)."""
    probe = LinearProgram(
        objective=(0,) * len(prog.objective),
        rows=prog.rows, rhs=prog.rhs, senses=prog.senses,
        nonneg=prog.nonneg, maximize=False)
    return solve(probe).status == OPTIMAL


def cone_membership_lp(generators, point):
    """Membership of a point in cone(generators) by exact LP feasibility,
    independent of the double description path."""
    dim = len(point)
    rows = [[g[i] for g in generators] for i in range(dim)]
    prog = make_lp(
        objective=[0] * len(generators),
        rows=rows, rhs=list(point), senses=[EQ] * dim)
    return feasible(prog)


def covering_by_scan(cols, alpha, total):
    """Whether some integral y >= 0 with sum_j y_j cols[j] >= alpha has
    1.y <= total, by scanning [0, total]^q: no entry of such a y exceeds
    total, so the box is exhaustive.  A fractional total is rounded down."""
    total = int(total // 1)
    for y in product(range(total + 1), repeat=len(cols)):
        if sum(y) <= total and all(
                sum(yj * col[i] for yj, col in zip(y, cols)) >= a
                for i, a in enumerate(alpha)):
            return True
    return False


def irredundancy_witnesses(dim, halfspaces):
    """For each halfspace, an exact point satisfying all the others but
    violating it; existence of every witness proves the list irredundant."""
    out = []
    for k, h in enumerate(halfspaces):
        others = [o for i, o in enumerate(halfspaces) if i != k]
        prog = make_lp(
            objective=[0] * dim,
            rows=[list(o.normal) for o in others] + [list(h.normal)],
            rhs=[o.rhs for o in others] + [h.rhs - 1],
            senses=[GE] * len(others) + [LE],
            nonneg=[False] * dim)
        res = solve(prog)
        if res.status != OPTIMAL:
            return None, k
        out.append(res.primal)
    return out, None


def recession_rays(P):
    """Extreme rays of the recession cone of a polyhedron; empty for a
    bounded one."""
    rec = IntegerCone(P.dim, halfspaces=[make_halfspace(h.normal)
                                         for h in P.halfspaces])
    return list(rec.extreme_rays())


def sign_normalized(v):
    """Flip sign so the first non-zero entry is positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def orthogonal_reduce(vec, basis):
    """Canonical representative of vec modulo span(basis): the orthogonal
    projection away from the span, rescaled to a primitive integer vector."""
    v = [Fraction(x) for x in vec]
    bs = [[Fraction(x) for x in b] for b in basis]
    # Gram-Schmidt on the basis, then subtract projections
    ortho = []
    for b in bs:
        u = b[:]
        for o in ortho:
            num = sum(x * y for x, y in zip(u, o))
            den = sum(x * x for x in o)
            u = [x - num / den * y for x, y in zip(u, o)]
        if any(u):
            ortho.append(u)
    for o in ortho:
        num = sum(x * y for x, y in zip(v, o))
        den = sum(x * x for x in o)
        v = [x - num / den * y for x, y in zip(v, o)]
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return primitive(tuple(int(x * den) for x in v))


def gram_schmidt_facets(dim, generators):
    """Facet halfspaces of cone(generators) with every polar DD ray reduced
    modulo the polar lineality by Gram-Schmidt, plus the opposite pairs
    that cut out the span: the reference for facets_of_generators, whose
    second double description finds the same normals orthogonal to the
    polar lineality without projecting."""
    rays, lineality, _ = _dd_pair(dim, generators)
    out = [make_halfspace(orthogonal_reduce(vec, lineality) if lineality
                          else vec) for vec, _ in rays]
    for l in lineality:
        l = sign_normalized(primitive(l))
        out.append(make_halfspace(l))
        out.append(make_halfspace(tuple(-x for x in l)))
    return sorted(set(out))


def gorenstein_box_scan(G, bound):
    """The Gorenstein interior scan point by point, on the Rees cone of the
    cover ideal of G: every (a, b) with 1 <= a_i <= bound and
    2 <= b <= bound, in product order, is tested on every facet.  The
    first interior point whose reduction by the all-ones vector leaves the
    cone is the witness, named with the last facet (in order of the
    t-entry) that it violates.  The reference for the facet bound walk of
    gorenstein_check, whose preconditions it does not test."""
    n = G.n
    cone = rees_cone(cover_ideal(edge_clutter(G)))
    ones = tuple([1] * (n + 1))
    facets = sorted(cone.facets, key=lambda h: h.normal[-1])
    rows = [(h.normal, dot(h.normal, ones)) for h in facets]
    scanned = 0
    for b in range(2, bound + 1):
        for head in product(*(range(1, bound + 1) for _ in range(n - 1))):
            # s = <F, (head, a_n, b)>, with the part fixed over a_n summed once
            parts = [(dot(f[:n - 1], head) + f[n] * b, f[n - 1], at_ones, f)
                     for f, at_ones in rows]
            for last in range(1, bound + 1):
                interior = True
                failing = None
                for fixed, slope, at_ones, normal in parts:
                    s = fixed + slope * last
                    if s < 1:
                        interior = False
                        break
                    if s < at_ones:
                        failing = normal
                if interior:
                    scanned += 1
                    if failing is not None:
                        point = head + (last, b)
                        return CheckReport(
                            name="gorenstein", verdict=False, method=ORACLE,
                            witness={"interior_point": point,
                                     "not_in_cone": tuple(x - 1 for x in point),
                                     "facet": failing},
                            search_bounds={"scan_bound": bound})
    return CheckReport(
        name="gorenstein", verdict=True, method=ORACLE,
        certificate={"interior_points_scanned": scanned},
        search_bounds={"scan_bound": bound})


# --- TDI and balancedness by definition, and clutter helpers of the tests --

BALANCED_ORACLE_ORDER_CAP = 7


class DegenerateMinorError(InputError):
    """A clutter minor produced an empty edge (blocking clutter)."""


def _covering_minimum(n, cols):
    """alpha -> min{1.y : Ay >= alpha, y >= 0}, or None where infeasible.
    By LP duality this is max{<alpha, x> : x >= 0, xA <= 1}: the largest
    <alpha, v> over the vertices of the packing polytope, unless a
    recession ray r has <alpha, r> > 0.  One double description serves
    every alpha."""
    rays, _ = homogenized_rays(_packing_polytope(n, cols))
    recession = [vec[:-1] for vec in rays if vec[-1] == 0]
    den = lcm(*(vec[-1] for vec in rays if vec[-1] > 0))
    scaled = [tuple(x * (den // vec[-1]) for x in vec[:-1])
              for vec in rays if vec[-1] > 0]

    def minimum(alpha):
        if any(dot(alpha, r) > 0 for r in recession):
            return None
        return Fraction(max(dot(alpha, v) for v in scaled), den)

    return minimum


def tdi_oracle(A):
    """Definitional TDI cross-check on a small matrix: for every integral
    objective alpha in the box [-2, max row sum]^n with a finite covering
    minimum L = min{1.y : Ay >= alpha, y >= 0}, some integral y >= 0 with
    Ay >= alpha must have 1.y = L.  Bounded verification; the box is part
    of the report.  A fractional L is a witness at once, and an integral
    one goes to lp.covering_attains.  Each objective and each search node
    is charged to errors.SEARCH_BUDGET, which also stops each search on its
    own, so a run does at most about twice the budget before it raises
    CapExceededError.
    """
    n, cols = _columns_of(A)
    alpha_hi = max(sum(col[i] for col in cols) for i in range(n))
    if alpha_hi < -2:
        raise InputError(f"alpha box [-2, {alpha_hi}] holds no objective")
    covering = _covering_minimum(n, cols)
    checked = 0
    spent = 0
    bounds = {"alpha_box": [-2, alpha_hi], "node_budget": errors.SEARCH_BUDGET}
    for alpha in product(range(-2, alpha_hi + 1), repeat=n):
        spent = spend(spent, 1, "TDI oracle", "objectives and search nodes")
        lp_value = covering(alpha)
        if lp_value is None:
            continue  # no finite minimum for this alpha
        checked += 1
        attained = lp_value.denominator == 1
        if attained:
            attained, nodes = lp.covering_attains(cols, alpha, int(lp_value))
            spent += nodes
        if not attained:
            return CheckReport(
                name="tdi-oracle", verdict=False, method=ORACLE,
                witness={"alpha": alpha, "lp_value": lp_value},
                search_bounds=bounds)
    return CheckReport(
        name="tdi-oracle", verdict=True, method=ORACLE,
        certificate={"objectives_checked": checked}, search_bounds=bounds)


def balanced_oracle(A):
    """Exhaustive submatrix scan for the balancedness definition, over
    square submatrices of order at most BALANCED_ORACLE_ORDER_CAP."""
    n, cols = _columns_of(A)
    _require_zero_one(cols)
    q = len(cols)
    for k in range(3, min(n, q, BALANCED_ORACLE_ORDER_CAP) + 1, 2):
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
                        search_bounds={"order_cap": BALANCED_ORACLE_ORDER_CAP})
    return CheckReport(name="balanced-oracle", verdict=True, method=ORACLE,
                       search_bounds={"order_cap": BALANCED_ORACLE_ORDER_CAP})


def maximal_independent_sets(G):
    """Maximal independent sets; these are the complements of the minimal
    vertex covers of the edge clutter."""
    full = set(range(1, G.n + 1))
    if not G.edges:
        return [tuple(sorted(full))] if G.n else []
    covers = minimal_vertex_covers(edge_clutter(G))
    return sorted(tuple(sorted(full - set(c))) for c in covers)


def cover_ideal_of_complement(G):
    """Generators of the cover ideal of the complement graph, computed from
    the maximal cliques of G: each generator's support is the complement of
    a maximal clique.

    Degenerate when the vertex set itself is a clique (the complement has no
    edges and the construction would emit the zero exponent).
    """
    exps = []
    for clique in maximal_cliques(G):
        supp = set(range(1, G.n + 1)) - set(clique)
        if not supp:
            raise InputError(
                "complement graph has only isolated vertices; cover ideal degenerate")
        exps.append(_exponent(G.n, supp))
    return sorted(exps)


def _reindex_map(n, v):
    return {w: (w if w < v else w - 1) for w in range(1, n + 1) if w != v}


def contraction(C, v):
    """Contract vertex v: remove it from every edge, keep minimal elements.

    Returns (clutter, index_map) on the remaining vertices re-indexed to
    1..n-1.  Contracting the vertex of a singleton edge would leave an empty
    edge, which no clutter can carry; this degenerate case raises.
    """
    if not 1 <= v <= C.n:
        raise InputError(f"vertex {v} out of range")
    idx = _reindex_map(C.n, v)
    stripped = []
    for e in C.edges:
        rest = tuple(idx[w] for w in e if w != v)
        if not rest and v in e:
            raise DegenerateMinorError(
                f"contracting {v} empties the singleton edge {e}")
        stripped.append(rest)
    return Clutter(C.n - 1, stripped, minimalize=True), idx


def deletion(C, v):
    """Delete vertex v: drop the edges containing it.

    Returns (clutter, index_map); the result may be the empty clutter, which
    is the degenerate flag callers should test for.
    """
    if not 1 <= v <= C.n:
        raise InputError(f"vertex {v} out of range")
    idx = _reindex_map(C.n, v)
    kept = [tuple(idx[w] for w in e) for e in C.edges if v not in e]
    return Clutter(C.n - 1, kept), idx
