"""Exact rational cones and polyhedra.

The central object is IntegerCone, a pointed-or-not rational cone carried in
dual form: an integer generator list and an irredundant list of primitive
facet normals, both fixed when the cone is built.  Each cone costs one run
of the double description method in exact integer arithmetic: on the polar
side for a V-described cone, and on its own halfspaces for an H-described
one, whose facets are then read off the tight sets of the rays (only a
lower-dimensional H-described cone runs a second one).  The sparsest
constraints go first (the coordinate halfspaces lead, which keeps the
intermediate ray lists small), and past errors.SEARCH_BUDGET ray pairs it
raises CapExceededError.  The output is canonically sorted, so it never
depends on that order.  It is the one polyhedral engine: the vertices of an
affine polyhedron are the rays of its homogenization, and the lattice
points of a dilated polytope are tested against the facets of the cone
over it.

Every cone keeps the values <F, p> of its facets F on its primitive
generators p, computed once at construction while checking that no
generator violates a facet; the extreme rays, pointedness, the
triangulation and the Hilbert-basis reduction read them instead of
computing them again.

Hilbert bases are computed the classical way: triangulate the cone (a
pulling triangulation read off the cone's own ray/facet incidences, so no
face runs a double description), collect the lattice points of each
simplicial piece's half-open fundamental parallelepiped (these generate the
semigroup of all lattice points), then discard every parallelepiped point
that splits as a sum of two non-zero lattice points of the cone.  Each
piece comes with a multiple of its lattice volume, carried down the
triangulation as products of lattice heights read off the value matrix: a
piece whose bound is one is unimodular and has no points, and one integer
diagonal form U S V = D of any other piece lists them, whatever its rank.
No determinant or rank is computed on the way: a cone is pointed when
no generator vanishes on every facet, and its rank is d less the number of
its opposite facet pairs.  The extreme rays are never tested: each one is
irreducible.  The result is the unique minimal generating set, independent
of the triangulation.  Each stage charges its work to the search budget
before doing it, so no dimension cap is needed.

semigroup_member, a graded exhaustive search, is an oracle: the theorem
paths test Hilbert-basis inclusion instead, because an irreducible lattice
point is generated exactly when it is one of the generators.

Why exact arithmetic everywhere: each decision downstream is an exact
equality of polyhedra, so a single rounding error would flip verdicts.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import ge

from .errors import InfeasibleError, InputError, NoGradingError, \
    NotPointedError, spend
from .linalg import diagonalize, dot, gcd_vec, primitive, sign_normalized, \
    solve_square
from .report import ORACLE, CheckReport


@dataclass(frozen=True, order=True)
class Halfspace:
    """Closed halfspace {x : <normal, x> >= rhs}; rhs = 0 when homogeneous.

    Normals are primitive: the gcd of the non-zero entries (and the rhs) is
    one.
    """

    normal: tuple
    rhs: int = 0

    def holds(self, point):
        return dot(self.normal, point) >= self.rhs

    def strictly_holds(self, point):
        return dot(self.normal, point) > self.rhs


def make_halfspace(normal, rhs=0):
    normal = tuple(int(x) for x in normal)
    if not any(normal):
        raise InputError("zero normal vector")
    g = gcd(gcd_vec(normal), rhs)
    if g > 1:
        normal = tuple(x // g for x in normal)
        rhs //= g
    return Halfspace(normal, rhs)


# ---------------------------------------------------------------------------
# double description

def _dd_pair(dim, normals):
    """Extreme rays and lineality basis of {x : <a, x> >= 0 for all a}.

    Returns (rays, lineality, normals).  normals are the distinct primitive
    constraints in the order they were processed; rays are pairs (vector,
    tight mask), where bit i of the mask says that normals[i] vanishes on
    the vector.  The vectors are primitive integer vectors, minimal and
    unique up to order modulo the lineality space.  The masks drive the
    combinatorial adjacency test of the classical algorithm.  Two rays are
    adjacent only when the constraints tight on both have rank
    dim - dim(lineality) - 2, so a pair with fewer common tight constraints
    is rejected untested (Fukuda and Prodon, "Double description method
    revisited", 1996).  Values are summed over each normal's non-zero
    entries only, and a lineality vector the normal vanishes on is kept as
    it is.  Raises CapExceededError once more than errors.SEARCH_BUDGET
    ray pairs are tested: each positive/negative pair once, and each pair
    found adjacent once more for every other ray its test compared it with,
    so the budget also bounds the adjacency tests that make the new rays.
    """
    normals = sorted({primitive(a) for a in normals if any(a)},
                     key=lambda a: (sum(1 for x in a if x), a))
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []      # pairs [vector, tight-mask]
    pairs = 0

    for k, a in enumerate(normals):
        bit = 1 << k
        support = [(i, x) for i, x in enumerate(a) if x]
        vals = [sum(x * l[i] for i, x in support) for l in lineality]
        pivot = next((i for i, v in enumerate(vals) if v), None)
        if pivot is not None:
            l0, v0 = lineality[pivot], vals[pivot]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                if vals[i]:
                    l = primitive(tuple(
                        v0 * x - vals[i] * y for x, y in zip(l, l0)))
                new_lin.append(l)
            new_rays = []
            for vec, mask in rays:
                s = sum(x * vec[i] for i, x in support)
                if s:
                    vec = primitive(tuple(v0 * x - s * y for x, y in zip(vec, l0)))
                new_rays.append([vec, mask | bit])
            # strictly inside the new halfspace, tight on all before it
            new_rays.append([l0, bit - 1])
            lineality = new_lin
            rays = new_rays
        else:
            signs = [sum(x * vec[i] for i, x in support) for vec, _ in rays]
            if all(s >= 0 for s in signs):
                for (pair, s) in zip(rays, signs):
                    if s == 0:
                        pair[1] |= bit
                continue
            pos = [(vec, m, s) for (vec, m), s in zip(rays, signs) if s > 0]
            zero = [(vec, m) for (vec, m), s in zip(rays, signs) if s == 0]
            neg = [(vec, m, s) for (vec, m), s in zip(rays, signs) if s < 0]
            pairs = spend(pairs, len(pos) * len(neg), "double description",
                          "ray pairs")
            least_tight = dim - len(lineality) - 2
            others = [m for _, m, _ in pos] + [m for _, m in zero] \
                + [m for _, m, _ in neg]
            new_rays = [[vec, m | bit] for vec, m in zero]
            new_rays.extend([vec, m] for vec, m, _ in pos)
            for pvec, pmask, ps in pos:
                for qvec, qmask, qs in neg:
                    t = pmask & qmask
                    # mask equality identifies the rays themselves: in a
                    # minimal pair the tight set cuts out the minimal face,
                    # so distinct rays (mod lineality) have distinct masks
                    if t.bit_count() < least_tight or any(
                            m != pmask and m != qmask and m & t == t
                            for m in others):
                        continue  # not adjacent
                    pairs = spend(pairs, len(others), "double description",
                                  "ray pairs")
                    w = primitive(tuple(ps * qx - qs * px
                                        for px, qx in zip(pvec, qvec)))
                    new_rays.append([w, t | bit])
            rays = new_rays

    return [(tuple(vec), mask) for vec, mask in rays], lineality, normals


def extreme_rays_of_halfspaces(dim, halfspaces):
    """Primitive extreme rays of a pointed cone given by homogeneous
    halfspaces.  Raises NotPointedError when a lineality direction survives."""
    normals = [h.normal if isinstance(h, Halfspace) else tuple(h)
               for h in halfspaces]
    rays, lineality, _ = _dd_pair(dim, normals)
    if lineality:
        raise NotPointedError(
            f"cone contains the line through {lineality[0]}")
    return sorted(vec for vec, _ in rays)


def facets_of_generators(dim, generators):
    """Irredundant primitive facet halfspaces of the cone generated by the
    given integer vectors, by double description on the polar side.

    For a full-dimensional cone this is the unique irreducible
    representation.  Lower-dimensional cones additionally need their span
    cut out, which is returned as opposite pairs of halfspaces.  Their polar
    cone has a lineality space L, and each of its rays stands for a facet
    normal only modulo L; the normal reported is the canonical
    representative v - L^T (L L^T)^{-1} L v, orthogonal to L, solved
    exactly and scaled to a primitive integer vector.  No generators give
    the zero cone, cut out by the opposite pairs of the unit vectors.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    out = _polar_facets(dim, gens)
    _facet_values(out, gens)
    return out


def _polar_facets(dim, gens):
    """facets_of_generators without the check of its answer, which the
    caller makes: the facet list, sorted."""
    if not all(map(any, gens)):
        raise InputError("zero vector among generators")
    rays, lineality, _ = _dd_pair(dim, gens)
    gram = [[dot(l, m) for m in lineality] for l in lineality]
    out = []
    for vec, _ in rays:
        if lineality:
            lam = solve_square(gram, [dot(l, vec) for l in lineality])
            den = lcm(*(x.denominator for x in lam))
            coef = [int(den * x) for x in lam]
            vec = primitive(tuple(
                den * x - sum(c * l[i] for c, l in zip(coef, lineality))
                for i, x in enumerate(vec)))
        out.append(make_halfspace(vec))
    for l in lineality:
        l = sign_normalized(primitive(l))
        out.append(make_halfspace(l))
        out.append(make_halfspace(tuple(-x for x in l)))
    return sorted(set(out))


def _facet_values(facets, generators):
    """The value matrix of a cone: for each distinct primitive generator p,
    in the order of first appearance, the tuple of <F, p> over the facets F.
    Raises AssertionError when a value is negative, that is when a
    generator violates a facet: the one check of a facet computation."""
    normals = [h.normal for h in facets]
    values = {}
    for g in generators:
        p = primitive(g)
        if p not in values:
            values[p] = tuple([dot(a, p) for a in normals])
    if any(min(row, default=0) < 0 for row in values.values()):
        raise AssertionError("facet computation violated by a generator")
    return values


# ---------------------------------------------------------------------------
# the cone object

class IntegerCone:
    """Rational polyhedral cone with integer generators and facets.

    Construct from a non-empty generator list or from halfspaces, not both.
    The other description is computed at construction, so a cone is an
    immutable value.  A V-described cone takes the facets of its generators
    from a double description on the polar side.  An H-described cone runs
    one double description: its generators are the DD rays plus the
    lineality pairs (none for the zero cone), and when no halfspace is tight
    on every ray the cone is full-dimensional and its facets are the given
    normals whose sets of tight rays are inclusion-maximal.  A
    lower-dimensional one takes the facets of its generators as a
    V-described cone does.  Either way the facet list is irredundant even
    when the given halfspaces were not.  The extreme rays are the DD rays
    when an H-described cone is pointed; otherwise they wait until first
    asked for.

    Construction ends by computing the value matrix of _facet_values, and
    that is the one check that every generator satisfies every facet, on
    both paths (AssertionError otherwise).  The extreme rays take their
    tight sets from it, is_pointed its zero rows, the triangulation its
    incidences and lattice heights, and the Hilbert basis the values of
    the extreme rays.
    """

    def __init__(self, dim, generators=None, halfspaces=None):
        if generators is None and halfspaces is None:
            raise InputError("a cone needs generators or halfspaces")
        if generators is not None and halfspaces is not None:
            raise InputError("a cone takes generators or halfspaces, not both")
        self.dim = dim
        self._extreme = None
        facets = None
        if halfspaces is not None:
            hs = tuple(h if isinstance(h, Halfspace) else make_halfspace(h)
                       for h in halfspaces)
            if any(len(h.normal) != dim or h.rhs != 0 for h in hs):
                raise InputError("halfspace dimension mismatch or affine rhs")
            rays, lineality, normals = _dd_pair(dim, [h.normal for h in hs])
            generators = sorted(_with_lineality_pairs(rays, lineality))
            facets = _facets_of_tight_sets(normals, rays)
            if not lineality:
                self._extreme = tuple(generators)
        self._generators = tuple(tuple(int(x) for x in g) for g in generators)
        if halfspaces is None and not self._generators:
            raise InputError("empty generator list")
        if any(len(g) != dim for g in self._generators):
            raise InputError("generator dimension mismatch")
        if facets is None:
            facets = _polar_facets(dim, self._generators)
        self._facets = tuple(facets)
        self._values = _facet_values(self._facets, self._generators)

    @property
    def facets(self):
        """Irredundant primitive facet list (canonically sorted)."""
        return self._facets

    @property
    def generators(self):
        return self._generators

    def extreme_rays(self):
        """Primitive extreme rays; requires a pointed cone.

        A primitive generator is extreme exactly when no other generator is
        tight on a strict superset of its facets: a non-extreme generator
        lies inside a face spanned by two or more extreme rays, each tight
        on more facets than it, while only multiples of an extreme ray are
        tight on all of its facets.  The tight sets are the zeros of the
        value matrix.
        """
        if self._extreme is None:
            if not self.is_pointed():
                raise NotPointedError("extreme rays require a pointed cone")
            tight = {p: sum(1 << i for i, v in enumerate(row) if not v)
                     for p, row in self._values.items()}
            self._extreme = tuple(sorted(
                p for p, m in tight.items()
                if not any(o != m and o & m == m for o in tight.values())))
        return self._extreme

    def is_pointed(self):
        """Whether the lineality space is zero.  That space is the face
        where every facet vanishes, and a face is spanned by the generators
        it contains, so it is zero exactly when no generator has an all-zero
        row in the value matrix."""
        return all(map(any, self._values.values()))

    def rank(self):
        """Dimension of the linear span: d less the number of opposite
        facet pairs, which cut out the span of a lower-dimensional cone, one
        pair per direction of the polar lineality space."""
        normals = {h.normal for h in self._facets}
        return self.dim - sum(tuple(-x for x in a) in normals
                              for a in normals) // 2

    def contains(self, point):
        if len(point) != self.dim:
            raise InputError("dimension mismatch")
        return all(h.holds(point) for h in self.facets)

    def in_interior(self, point):
        if len(point) != self.dim:
            raise InputError("dimension mismatch")
        return all(h.strictly_holds(point) for h in self.facets)

    def __repr__(self):
        return (f"IntegerCone(dim={self.dim}, "
                f"generators={len(self._generators)})")


def _with_lineality_pairs(rays, lineality):
    """The DD ray vectors followed by both signs of each lineality vector."""
    gens = [vec for vec, _ in rays]
    for l in lineality:
        gens.append(tuple(l))
        gens.append(tuple(-x for x in l))
    return gens


def _facets_of_tight_sets(normals, rays):
    """The facets among the normals of a full-dimensional cone, read off
    the tight masks of its double description, or None when the cone is
    lower-dimensional.

    Each normal's set of tight rays is the transpose of the rays' masks.  A
    normal tight on every ray vanishes on the whole cone (with no rays,
    every normal does), so the cone lies in its hyperplane.  Otherwise the
    cone is full-dimensional: each normal cuts out a proper face, two faces
    differ exactly when their ray sets do (modulo the lineality space), and
    the facets are the maximal proper faces.  So a normal is a facet exactly
    when its ray set is inclusion-maximal, and no two normals share a facet,
    because a facet's primitive normal is unique.
    """
    tight = [0] * len(normals)
    for j, (_, mask) in enumerate(rays):
        while mask:
            low = mask & -mask
            tight[low.bit_length() - 1] |= 1 << j
            mask ^= low
    if (1 << len(rays)) - 1 in tight:
        return None
    # largest first, so a set is maximal unless a kept one covers it
    kept = []
    for t, a in sorted(zip(tight, normals), key=lambda p: -p[0].bit_count()):
        if not any(t & big == t for big, _ in kept):
            kept.append((t, a))
    return sorted(Halfspace(a) for _, a in kept)


def extreme_rays_of_halfspaces_or_lineality(dim, halfspaces):
    """Generators (rays plus +/- lineality pairs) of an H-described cone."""
    rays, lineality, _ = _dd_pair(dim, [h.normal for h in halfspaces])
    return _with_lineality_pairs(rays, lineality)


# ---------------------------------------------------------------------------
# triangulation and Hilbert bases

def _triangulate(cone):
    """Pulling triangulation of a pointed cone from its own face lattice, as
    (simplex, bound) pairs: bound is a positive multiple of the piece's
    lattice volume, the index of the lattice its rays span in Z^d ∩ span S
    (|det| when the piece is square).

    A face is a bitmask over the sorted extreme rays; the cone's facets give
    one incidence mask each, the zeros of a column of the value matrix.  The
    facets of a face S are the inclusion-maximal sets S & F over the cone
    facets F that do not contain S; each has at least dim S - 1 rays, where
    the dimension starts at the rank of the cone and drops by one per level.
    A face joins its lowest ray a (the apex) to the pieces of its facets
    that miss the apex, down to single rays.  Every face pulls from its own
    lowest ray, so the pieces of a shared face agree, and each face is
    triangulated once.  Each piece a non-simplicial face builds is charged
    its ray count before it is built, and past errors.SEARCH_BUDGET simplex
    rays CapExceededError is raised.

    The volumes come down with the pieces, as in Normaliz (Bruns, Ichim and
    Söger, J. Symb. Comput. 74, 2016).  A single primitive ray has volume 1.
    Joining a to a piece of a facet G multiplies its volume by the lattice
    height of a over G inside Z^d ∩ span S, and that height divides <F, a>
    for every cone facet F with S & F = G: F restricted to that lattice is
    an integer multiple of the primitive functional that vanishes on G.
    So the bound takes the least such <F, a> at each join, read off the
    value matrix.
    """
    rays = cone.extreme_rays()
    values = [cone._values[r] for r in rays]
    incidences = [sum(1 << i for i, v in enumerate(column) if not v)
                  for column in zip(*values)]
    memo = {}
    spent = 0

    def pieces(face, dim):
        nonlocal spent
        if face in memo:
            return memo[face]
        apex = face & -face
        a = apex.bit_length() - 1
        if dim <= 1:        # one primitive ray, or none in the zero cone
            out = [(rays[a:a + 1], 1)]
        elif face.bit_count() == dim:   # simplicial: one facet misses a
            sub = face ^ apex
            (simplex, bound), = pieces(sub, dim - 1)
            height = min(h for m, h in zip(incidences, values[a])
                         if face & m == sub)
            out = [((rays[a],) + simplex, height * bound)]
        else:
            heights = {}    # facet candidates, with their least <F, a>
            for m, h in zip(incidences, values[a]):
                sub = face & m
                if sub != face and sub.bit_count() >= dim - 1 \
                        and heights.get(sub, h) >= h:
                    heights[sub] = h
            out = []
            maximal = []
            # largest first, so a set is maximal unless a kept one covers it
            for sub in sorted(heights, key=int.bit_count, reverse=True):
                if any(sub & big == sub for big in maximal):
                    continue
                maximal.append(sub)
                if not sub & apex:
                    joined = pieces(sub, dim - 1)
                    spent = spend(spent, dim * len(joined), "triangulation",
                                  "simplex rays")
                    out.extend((simplex + (rays[a],), heights[sub] * bound)
                               for simplex, bound in joined)
        memo[face] = out
        return out

    return pieces((1 << len(rays)) - 1, cone.rank())


def _coset_form(simplex):
    """(diag, V, order) of one diagonal form U S V = D of a piece, where
    order = prod |d_i|, |det| when square, counts the lattice points of its
    half-open parallelepiped; None for a unimodular piece (order one).
    hilbert_basis asks only about the pieces whose volume bound from
    _triangulate is above one, which are few in a graph's cone.
    """
    diag, v = diagonalize(simplex)
    order = prod(map(abs, diag))
    return None if order == 1 else (diag, v, order)


def _parallelepiped_points(simplex, diag, v, order):
    """Non-zero lattice points of {sum t_j s_j : 0 <= t_j < 1}, from the
    piece's _coset_form, whatever its rank k.  The cosets of S Z^k
    in span S are indexed by c in prod [0, |d_i|), the coset of c has
    coordinates t = V D^{-1} c over the columns, and its point in the
    parallelepiped is S frac(t), kept integral by scaling with the order.
    """
    scale = [order // d for d in diag]
    dim = len(simplex[0])
    points = []
    for c in product(*(range(abs(d)) for d in diag)):
        if not any(c):
            continue
        w = [ci * si for ci, si in zip(c, scale)]
        t = [dot(row, w) % order for row in v]
        points.append(tuple(sum(tj * s[i] for tj, s in zip(t, simplex))
                            // order for i in range(dim)))
    return points


@dataclass(frozen=True)
class HilbertBasis:
    """The unique minimal generating set of cone ∩ Z^d."""

    elements: tuple
    cone: IntegerCone

    def first_outside(self, generators):
        """The first basis element that is not among the generators, or
        None.  An irreducible element is a combination of the generators
        only when it is one of them, so None means they span the cone's
        lattice points."""
        generators = set(generators)
        return next((e for e in self.elements if e not in generators), None)


def hilbert_basis(cone):
    """Minimal integer generating set of all lattice points of a pointed
    cone.  Independent of the triangulation used internally.

    The primitive vector of an extreme ray is always a member: the ray is
    a face, so both terms of a sum of two lattice points of the cone on it
    lie on it too, and primitivity leaves no room for two non-zero ones.
    Only the parallelepiped points are tested against the other candidates,
    by facet values: the extreme rays' come with the cone, and each point's
    are computed once.  Only the pieces whose volume bound from _triangulate
    is above one take a diagonal form; the others are unimodular.

    Each stage charges errors.SEARCH_BUDGET on its own count before any
    point is listed: the triangulation its simplex rays, the
    parallelepipeds their orders, and the reduction its point × candidate
    pairs, counting a point once for each piece that lists it.
    """
    rays = cone.extreme_rays()
    if not rays:
        return HilbertBasis(elements=(), cone=cone)
    forms = [(s, f) for s, bound in _triangulate(cone)
             if bound > 1 and (f := _coset_form(s))]
    spent = 0
    for _, (_, _, order) in forms:
        spent = spend(spent, order, "parallelepiped enumeration", "points")
    listed = spent - len(forms)     # each piece lists all but the origin
    spend(0, listed * (len(rays) + listed), "Hilbert-basis reduction",
          "point pairs")
    points = sorted({p for s, f in forms
                     for p in _parallelepiped_points(s, *f)})
    normals = [h.normal for h in cone.facets]
    # g - h lies in the cone exactly when every facet value of g is at
    # least that of h
    values = [cone._values[r] for r in rays]
    values += [tuple([dot(a, g) for a in normals]) for g in points]
    basis = list(rays)
    basis += [g for i, g in enumerate(points, len(rays))
              if not any(j != i and all(map(ge, values[i], vh))
                         for j, vh in enumerate(values))]
    return HilbertBasis(elements=tuple(sorted(basis)), cone=cone)


# ---------------------------------------------------------------------------
# semigroup membership with an explicit search bound

@dataclass(frozen=True)
class SemigroupMembership:
    member: bool
    coefficients: tuple | None
    grading: tuple
    budget: int


def positive_grading(generators):
    """An integer functional phi >= 1 on every generator: the sum of the
    facet normals of their cone.  Opposite facet pairs cancel, and a
    non-zero point of a pointed cone is positive on some facet.  Raises
    NoGradingError for a zero generator or a cone that is not pointed."""
    gens = [tuple(int(x) for x in g) for g in generators]
    if not all(map(any, gens)):
        raise NoGradingError("a zero generator admits no positive grading")
    cone = IntegerCone(len(gens[0]), gens)
    if not cone.is_pointed():
        raise NoGradingError("generators admit no positive grading functional")
    return tuple(map(sum, zip(*(h.normal for h in cone.facets))))


def semigroup_member(point, generators, grading=None):
    """Decompose `point` as a non-negative integer combination of the
    generators, or prove there is none.

    A positive grading bounds every coefficient: any representation uses at
    most phi(point) generator copies in total, so the exhaustive search below
    is complete and a refusal is a proof, with the budget recorded.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if grading is None:
        grading = positive_grading(gens)
    else:
        grading = tuple(int(x) for x in grading)
        if any(dot(grading, g) < 1 for g in gens):
            raise NoGradingError("supplied grading is not positive on the generators")
    budget = dot(grading, point)
    weights = [dot(grading, g) for g in gens]
    failed = set()

    def search(target, idx):
        if not any(target):
            return []
        if idx == len(gens):
            return None
        key = (target, idx)
        if key in failed:
            return None
        g, w = gens[idx], weights[idx]
        cmax = dot(grading, target) // w
        for c in range(cmax, -1, -1):
            rest = tuple(t - c * x for t, x in zip(target, g))
            if dot(grading, rest) < 0:
                continue
            sub = search(rest, idx + 1)
            if sub is not None:
                return [(idx, c)] + sub if c else sub
        failed.add(key)
        return None

    point = tuple(int(x) for x in point)
    if budget < 0:
        return SemigroupMembership(False, None, grading, budget)
    path = search(point, 0)
    if path is None:
        return SemigroupMembership(False, None, grading, budget)
    coeffs = [0] * len(gens)
    for idx, c in path:
        coeffs[idx] = c
    return SemigroupMembership(True, tuple(coeffs), grading, budget)


# ---------------------------------------------------------------------------
# affine polyhedra

@dataclass(frozen=True)
class HRepPolyhedron:
    """Intersection of affine halfspaces {x : <normal, x> >= rhs}."""

    dim: int
    halfspaces: tuple

    def contains(self, point):
        return all(h.holds(point) for h in self.halfspaces)


def orthant(dim):
    """The coordinate halfspaces x_i >= 0."""
    return [make_halfspace(tuple(int(i == j) for j in range(dim)))
            for i in range(dim)]


def polyhedron(dim, halfspaces):
    hs = tuple(h if isinstance(h, Halfspace) else make_halfspace(*h)
               for h in halfspaces)
    return HRepPolyhedron(dim=dim, halfspaces=hs)


def homogenized_rays(P):
    """Extreme rays (x, t) and lineality basis of {(x, t) : <a, x> >= rhs * t,
    t >= 0}, by one double description: the rays with t > 0 are the
    vertices of P scaled by t, those with t = 0 span its recession cone."""
    normals = [tuple(h.normal) + (-h.rhs,) for h in P.halfspaces]
    normals.append((0,) * P.dim + (1,))
    rays, lineality, _ = _dd_pair(P.dim + 1, normals)
    return [vec for vec, _ in rays], lineality


def vertices(P):
    """All vertices, sorted, as tuples of Fractions: the rays with t > 0 of
    the homogenized cone, scaled to t = 1.  A polyhedron containing a line
    has no vertices.  Raises InfeasibleError on an empty polyhedron."""
    rays, lineality = homogenized_rays(P)
    points = sorted(tuple(Fraction(x, vec[-1]) for x in vec[:-1])
                    for vec in rays if vec[-1] > 0)
    if not points:
        raise InfeasibleError("polyhedron is empty")
    return [] if lineality else points


def is_integral(P):
    """Vertex integrality report with a fractional-vertex witness."""
    verts = vertices(P)
    for v in verts:
        if any(x.denominator != 1 for x in v):
            return CheckReport(
                name="integral-polyhedron", verdict=False, method=ORACLE,
                witness={"vertex": tuple(str(x) for x in v)})
    return CheckReport(
        name="integral-polyhedron", verdict=True, method=ORACLE,
        certificate={"vertices": len(verts)})


# ---------------------------------------------------------------------------
# lattice points of dilated polytopes

def lattice_points_dilation(points, b):
    """Exact lattice points of b * conv(points): a bounding-box scan that
    keeps z when (z, b) passes the facet test of the cone over the lifts
    (p, 1)."""
    if b < 1:
        raise InputError("dilation factor must be a positive integer")
    dim = len(points[0])
    cone = IntegerCone(dim + 1, [tuple(p) + (1,) for p in points])
    lo = [b * min(p[i] for p in points) for i in range(dim)]
    hi = [b * max(p[i] for p in points) for i in range(dim)]
    return [z for z in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
            if cone.contains(z + (b,))]
