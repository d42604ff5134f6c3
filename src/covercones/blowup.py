"""Rees cones, Simis cones, and the ring-theoretic decisions they carry.

For a square-free monomial ideal with generator exponents v_1..v_q in N^n,
the Rees cone is the IntegerCone whose generators, the lift set, are the
unit vectors e_1..e_n then the lifted generators (v_i, 1) in R^{n+1}.  The
Rees algebra is normal exactly when the lift set generates every lattice
point of the cone, which this module decides by testing that the cone's
Hilbert basis lies among its generators: a basis element is irreducible,
so it is a non-negative integer combination of the lifts only when it is
one.

The Simis cone of an ideal is cut out by the coordinate halfspaces together
with one halfspace per minimal vertex cover u of the associated clutter:
<a, u> >= a_{n+1}.  Its Hilbert basis describes the generators of the
symbolic blowup; for a perfect graph these are exactly the clique lifts
(w, |w|-1), the monomials x^w t^{|w|-1}.  A monomial is its exponent vector.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .clutters import (Clutter, _exponent, all_cliques, cover_ideal,
                       edge_clutter)
from .cones import (Halfspace, HRepPolyhedron, IntegerCone, hilbert_basis,
                    homogenized_rays, make_halfspace, orthant)
from .errors import InputError, spend
from .linalg import dot
from .report import THEOREM_PATH, CheckReport
from .textio import format_monomial


def _validated_ideal(ideal):
    out = []
    for v in ideal:
        v = tuple(int(x) for x in v)
        if not any(v):
            raise InputError("zero exponent vector among ideal generators")
        if any(x < 0 for x in v):
            raise InputError("negative exponent in ideal generator")
        out.append(v)
    if not out:
        raise InputError("empty ideal")
    return out


def clutter_of_ideal(ideal):
    """The clutter of supports of square-free ideal generators."""
    ideal = _validated_ideal(ideal)
    n = len(ideal[0])
    if any(x not in (0, 1) for v in ideal for x in v):
        raise InputError("ideal is not square-free")
    edges = [tuple(i + 1 for i, x in enumerate(v) if x) for v in ideal]
    return Clutter(n, edges)


def rees_cone(ideal):
    """The Rees cone of a monomial ideal, generated by e_1..e_n then the
    lifted ideal generators (v_i, 1) in input order: the generators of the
    Rees algebra's semigroup, in R^{n+1}."""
    ideal = _validated_ideal(ideal)
    n = len(ideal[0])
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    return IntegerCone(n + 1, units + [v + (1,) for v in ideal])


def is_rees_normal(ideal):
    """Normality of the Rees algebra of a monomial ideal.

    Decided by the Hilbert-basis criterion: the algebra is normal iff the
    lift set generates every lattice point of the Rees cone, i.e. iff the
    Hilbert basis is contained in the lift set.  A basis element is
    irreducible, so it is a non-negative integer combination of the lift
    set exactly when it is itself a lift; its certificate is the unit
    coefficient vector at its first lift-set index.  The witness of a false
    verdict is the first basis element outside the lift set, a lattice
    point of the cone that no combination reaches; its budget is the entry
    sum, the all-ones degree that bounds any combination.
    """
    return _normality_report(hilbert_basis(rees_cone(ideal)))


def _normality_report(hb):
    """The is_rees_normal report from the Hilbert basis of a Rees cone."""
    outside = hb.first_outside()
    if outside is not None:
        return CheckReport(
            name="rees-normal", verdict=False, method=THEOREM_PATH,
            witness={"hilbert_basis_element": outside},
            search_bounds={"hb_budget": errors.SEARCH_BUDGET,
                           "budget": sum(outside)})
    lifts = hb.cone.generators
    certificates = []
    for element in hb.elements:
        i = lifts.index(element)
        certificates.append({"element": element, "coefficients": tuple(
            int(j == i) for j in range(len(lifts)))})
    return CheckReport(
        name="rees-normal", verdict=True, method=THEOREM_PATH,
        certificate={"hilbert_basis_size": len(hb.elements),
                     "memberships": certificates},
        search_bounds={"hb_budget": errors.SEARCH_BUDGET})


@dataclass(frozen=True)
class SimisConeModel:
    halfspaces: tuple      # the definitional list, possibly redundant
    cone: IntegerCone

    @property
    def redundant_halfspaces(self):
        """Definitional halfspaces that are not facets (flagged, kept)."""
        facets = set(self.cone.facets)
        return tuple(h for h in self.halfspaces if h not in facets)


def _simis_halfspaces(ideal):
    """Coordinate halfspaces e_1..e_{n+1} plus (u_k, -1) for every minimal
    vertex cover u_k."""
    C = clutter_of_ideal(ideal)
    return tuple(orthant(C.n + 1) + [make_halfspace(u + (-1,))
                                     for u in cover_ideal(C)])


def simis_cone(ideal):
    """H-representation straight from the definition.  The list is kept
    verbatim (redundant members flagged, not dropped); the cone's facet
    property is the irredundant view."""
    hs = _simis_halfspaces(ideal)
    return SimisConeModel(hs, IntegerCone(len(hs[0].normal), halfspaces=hs))


def rees_hilbert_basis(ideal):
    return hilbert_basis(rees_cone(ideal))


def simis_hilbert_basis(ideal):
    return hilbert_basis(simis_cone(ideal).cone)


def clique_lift_set(G):
    """The vector (w, |w|-1) of every non-empty clique w of G, in the order
    of all_cliques."""
    return [_exponent(G.n, set(c)) + (len(c) - 1,) for c in all_cliques(G)]


def symbolic_generators_perfect(G):
    """Symbolic blowup generators of the edge ideal of a perfect graph: the
    vector (w, |w|-1) of the monomial x^w t^{|w|-1} per non-empty clique w.

    Perfection is verified by the odd hole and antihole search of
    checks.perfect_via_odd_holes; an imperfect graph is rejected, naming
    the odd hole or antihole, because the clique description is only
    proven for perfect graphs (clique_lift_set gives the lifts unchecked).
    The search has no vertex cap; its node budget raises CapExceededError.
    """
    from .checks import perfect_via_odd_holes   # checks imports blowup
    verdict = perfect_via_odd_holes(G)
    if not verdict.verdict:
        (kind, cycle), = verdict.witness.items()
        raise InputError(
            f"graph is not perfect ({kind.replace('_', ' ')} {cycle})")
    return clique_lift_set(G)


def ehrhart_equality(ideal):
    """Does the monomial subring of x^{v_i} t equal the full lattice-point
    algebra of the dilations of conv(v_i)?

    Requires a positive rational point x0 with <v_i, x0> = 1 for all i
    (equal-degree inputs always have one).  The reported x0 is the ray sum
    of {(x, t) : x >= 0, <v_i, x> = t} at t = 1, positive exactly when
    some point of {x >= 0 : <v_i, x> = 1} is.  Decided by the Hilbert-basis
    criterion on the cone of the lifted generators (v_i, 1): its lattice
    points at height b are the lattice points of b * conv(v_i), so the two
    algebras agree exactly when every basis element is a lift.
    """
    ideal = _validated_ideal(ideal)
    n = len(ideal[0])
    level = HRepPolyhedron(n, tuple(
        orthant(n) + [Halfspace(v, 1) for v in ideal]
        + [Halfspace(tuple(-x for x in v), -1) for v in ideal]))
    rays, _ = homogenized_rays(level)
    total = [sum(vec[i] for vec in rays) for i in range(n + 1)]
    if not total[n] or not all(total[:n]):
        raise InputError("no positive x0 with <v_i, x0> = 1 exists")
    x0 = tuple(Fraction(x, total[n]) for x in total[:n])

    outside = hilbert_basis(
        IntegerCone(n + 1, [v + (1,) for v in ideal])).first_outside()
    verdict = outside is None
    return CheckReport(
        name="ehrhart-equality", verdict=verdict, method=THEOREM_PATH,
        witness=None if verdict else {"hilbert_basis_element": outside},
        certificate={"x0": tuple(str(x) for x in x0)},
        search_bounds={"hb_budget": errors.SEARCH_BUDGET})


def gorenstein_check(G, scan_bound=None):
    """Gorenstein test for the Rees algebra of the cover ideal of G.

    Preconditions (re-verified, reported when failing): the Rees algebra is
    normal and G is unmixed.  The canonical module is spanned by the
    interior lattice points of the Rees cone; it is principal on x_1..x_n t
    iff every interior lattice point reduces by (1,..,1,1) into the cone.
    The all-ones interior membership is exact; the reduction property is
    decided over the recorded box 1 <= a_i <= B, 2 <= b <= B.  A bound B
    below 2 raises InputError: that box is empty, and an empty scan proves
    nothing.  Any B >= 2 meets (2,..,2,2), which is interior because the
    all-ones point is.

    With s = <F, (a, b)> for a facet normal F, a point is interior when
    s >= 1 on every facet and reduces when s >= <F, ones>.  The unit
    vectors generate the cone, so the leading entries of every F are
    non-negative and s never decreases in any a_i.  For each t-degree b
    the box is walked over a_1..a_n in the order of a point-by-point scan,
    and each sub-box is bounded by its least and greatest corners: a
    sub-box where some facet stays below 1 holds no interior point and is
    skipped; one where no facet with <F, ones> > 1 can fall below
    <F, ones> holds no failing point and is counted, solving the last
    coordinate in closed form.  Any other single point is the first
    interior point that fails to reduce.  The verdict, witness and count
    are those of the point-by-point scan.  The walk raises CapExceededError
    past errors.SEARCH_BUDGET nodes.
    """
    n = G.n
    bound = n if scan_bound is None else int(scan_bound)
    if bound < 2:
        raise InputError(
            f"scan bound {bound} scans nothing: the interior scan starts "
            "at t-degree 2")
    covers = cover_ideal(edge_clutter(G))
    cover_sizes = sorted({sum(u) for u in covers})
    if len(cover_sizes) > 1:
        return CheckReport(
            name="gorenstein", verdict=None, method=THEOREM_PATH,
            reason="not unmixed", witness={"cover_sizes": cover_sizes})
    hb = hilbert_basis(rees_cone(covers))
    normal = _normality_report(hb)
    if not normal.verdict:
        return CheckReport(
            name="gorenstein", verdict=None, method=THEOREM_PATH,
            reason="Rees algebra is not normal", witness=normal.witness)
    cone = hb.cone
    ones = tuple([1] * (n + 1))
    if not cone.in_interior(ones):
        return CheckReport(
            name="gorenstein", verdict=False, method=THEOREM_PATH,
            witness={"all_ones_not_interior": ones},
            search_bounds={"scan_bound": bound})

    # The t-degree 1 layer never fails, so the walk starts at t-degree 2.
    # Facets are ordered most-binding first; a witness names the last
    # facet in that order that it violates.
    facets = sorted(cone.facets, key=lambda h: h.normal[-1])
    normals = [h.normal for h in facets]
    at_ones = [dot(f, ones) for f in normals]
    # tails[r][i]: sum of the leading entries i..n-1 of facet r, so a
    # sub-box with a_1..a_i fixed spans s + tails[r][i] to s + B tails[r][i]
    tails = []
    for f in normals:
        t = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            t[i] = t[i + 1] + f[i]
        tails.append(t)
    budget = errors.SEARCH_BUDGET
    nodes = 0

    def visit():
        nonlocal nodes
        nodes = spend(nodes, 1, "Gorenstein box walk", "nodes")

    def count(i, short):
        """Interior points of the sub-box at depth i, where every facet
        but those in `short`, (s, r) pairs still below 1, is met."""
        visit()
        keep = []
        for s, r in short:
            t = tails[r][i]
            if s + t >= 1:
                continue
            if s + bound * t < 1:
                return 0
            keep.append((s, r))
        if not keep:
            return bound ** (n - i)
        # from a_i = full on, every facet rising in a_i is met at the least
        # corner, so those children all count the facets flat in a_i alone
        flat = [(s, r) for s, r in keep if not normals[r][i]]
        full = min(bound + 1, max(
            (-((s + tails[r][i + 1] - 1) // normals[r][i])
             for s, r in keep if normals[r][i]), default=1))
        total = 0
        if full <= bound:
            total = (bound - full + 1) * (count(i + 1, flat) if flat
                                          else bound ** (n - i - 1))
        if i < n - 1:   # on the last coordinate the smaller a_i meet none
            total += sum(count(i + 1, [(s + normals[r][i] * a, r)
                                       for s, r in keep])
                         for a in range(1, full))
        return total

    def walk(i, prefix, values):
        """(interior points before the first failing one, that point or
        None) over the sub-box with a_1..a_i = prefix."""
        visit()
        short = []
        risky = False
        for r, s in enumerate(values):
            t = tails[r][i]
            if s + bound * t < 1:
                return 0, None
            if s + t < at_ones[r]:
                if at_ones[r] > 1:
                    risky = True
                else:
                    short.append((s, r))
        if not risky:
            return count(i, short), None
        if i == n:
            return 1, prefix
        scanned = 0
        for a in range(1, bound + 1):
            found, point = walk(i + 1, prefix + (a,),
                                [s + f[i] * a for s, f in zip(values, normals)])
            scanned += found
            if point is not None:
                return scanned, point
        return scanned, None

    scanned = 0
    for b in range(2, bound + 1):
        values = [f[-1] * b for f in normals]
        found, a = walk(0, (), values)
        scanned += found
        if a is not None:
            point = a + (b,)
            failing = [f for f, c in zip(normals, at_ones)
                       if dot(f, point) < c]
            return CheckReport(
                name="gorenstein", verdict=False, method=THEOREM_PATH,
                witness={"interior_point": point,
                         "not_in_cone": tuple(x - 1 for x in point),
                         "facet": failing[-1]},
                search_bounds={"scan_bound": bound, "box": f"1..{bound}",
                               "node_budget": budget})
    return CheckReport(
        name="gorenstein", verdict=True, method=THEOREM_PATH,
        certificate={"canonical_generator":
                     format_monomial((1,) * (n + 1)),
                     "interior_points_scanned": scanned,
                     "t_degree_one_layer": "reduces identically"},
        search_bounds={"scan_bound": bound, "box": f"1..{bound}",
                       "grading": "t-degree", "node_budget": budget})
