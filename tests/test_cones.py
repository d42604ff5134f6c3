import random
from fractions import Fraction

import pytest

from covercones import (Halfspace, HRepPolyhedron, InfeasibleError,
                        InputError, IntegerCone, NotPointedError,
                        edge_clutter, cover_ideal,
                        extreme_rays_of_halfspaces, facets_of_generators,
                        hilbert_basis, is_integral,
                        lattice_points_dilation, make_halfspace,
                        polyhedron, semigroup_member, vertices)
from covercones.cones import positive_grading
from covercones.errors import CapExceededError, NoGradingError
from covercones.linalg import dot

from corpus import cycle_graph, sampled_graph, small_graph_corpus
from oracles import (all_pairs_basis, brute_hilbert_basis, brute_lattice_points_dilation,
                     brute_vertices, cone_membership_lp, det_int, feasible,
                     fraction_det, gram_schmidt_facets,
                     irredundancy_witnesses, rank_filtered_extreme_rays,
                     rank_filtered_facets, rank_int, recession_rays,
                     solve_columns)
from simplex import GE, make_lp


def unit(dim, i):
    return tuple(int(j == i) for j in range(dim))


def test_facets_of_coordinate_cone():
    fs = facets_of_generators(2, [(1, 0), (0, 1)])
    assert [h.normal for h in fs] == [(0, 1), (1, 0)]


def test_facets_of_two_variable_cover_lift():
    fs = facets_of_generators(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert {h.normal for h in fs} == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)}


def test_pentagon_cover_cone_has_twelve_facets_with_odd_hole():
    covers = cover_ideal(edge_clutter(cycle_graph(5)))
    gens = [unit(6, i) for i in range(5)] + [c + (1,) for c in covers]
    fs = facets_of_generators(6, gens)
    assert len(fs) == 12
    assert make_halfspace((1, 1, 1, 1, 1, -3)) in fs
    witnesses, bad = irredundancy_witnesses(6, fs)
    assert bad is None and len(witnesses) == 12


def test_facets_reject_zero_generator():
    with pytest.raises(InputError):
        facets_of_generators(2, [(0, 0), (1, 0)])


def test_extreme_rays_examples():
    hs = [make_halfspace((1, 0)), make_halfspace((0, 1))]
    assert extreme_rays_of_halfspaces(2, hs) == [(0, 1), (1, 0)]
    simis_k2 = [make_halfspace(v) for v in
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, -1)]]
    assert extreme_rays_of_halfspaces(3, simis_k2) == [
        (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    with pytest.raises(NotPointedError):
        extreme_rays_of_halfspaces(2, [make_halfspace((1, 0))])


def test_hilbert_basis_examples():
    cone = IntegerCone(2, [(1, 0), (0, 1)])
    assert hilbert_basis(cone).elements == ((0, 1), (1, 0))

    simis_k2 = IntegerCone(3, halfspaces=[
        make_halfspace(v) for v in
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 1, -1)]])
    assert hilbert_basis(simis_k2).elements == ((0, 1, 0), (1, 0, 0), (1, 1, 1))

    simis_k3 = IntegerCone(4, halfspaces=[
        make_halfspace(v) for v in
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
         (1, 1, 0, -1), (1, 0, 1, -1), (0, 1, 1, -1)]])
    assert hilbert_basis(simis_k3).elements == (
        (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0),
        (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 2))


def test_hilbert_basis_requires_pointed_and_stops_past_its_budget(
        monkeypatch):
    half_plane = IntegerCone(2, halfspaces=[make_halfspace((1, 0))])
    with pytest.raises(NotPointedError):
        hilbert_basis(half_plane)
    orthant = IntegerCone(11, [unit(11, i) for i in range(11)])
    assert hilbert_basis(orthant).elements == tuple(sorted(orthant.generators))
    # each stage keeps its own count: C5's Simis cone triangulates into
    # 208 simplex rays, and the wedge is one piece of order 5 whose 4
    # points meet 6 candidates in the reduction, 24 pairs
    from covercones import errors, simis_cone
    c5 = simis_cone([(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
                     (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)]).cone
    wedge = IntegerCone(2, [(1, 0), (1, 5)])
    for cone, budget, message in (
            (c5, 207, "triangulation exceeded its budget of 207 simplex rays"),
            (wedge, 4, "parallelepiped enumeration exceeded its budget of 4 "
                       "points"),
            (wedge, 23, "Hilbert-basis reduction exceeded its budget of 23 "
                        "point pairs")):
        monkeypatch.setattr(errors, "SEARCH_BUDGET", budget)
        with pytest.raises(CapExceededError, match=message):
            hilbert_basis(cone)
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 24)
    assert hilbert_basis(wedge).elements == tuple((1, i) for i in range(6))


def _random_orthant_cones(count=40, seed=20260811):
    """Cones of 2..6 random generators in {0..3}^d, d = 2..4."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        dim = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(dim))
                for _ in range(rng.randint(2, 6))]
        gens = [g for g in gens if any(g)]
        if gens:
            cones.append(IntegerCone(dim, gens))
    return cones


def test_hilbert_basis_against_lattice_scan():
    for cone in _random_orthant_cones():
        gens = list(cone.generators)
        hb = hilbert_basis(cone)
        expected = brute_hilbert_basis(gens, box_hi=6)
        got = [e for e in hb.elements if max(e) <= 6]
        assert got == expected


def test_extreme_rays_skip_the_reduction():
    # an extreme ray is irreducible, so only parallelepiped points are
    # tested; the oracle tests every candidate.  Some points split only
    # into a sum with an extreme ray in it, which the extra cones reach.
    from covercones import rees_cone, simis_cone
    cones = _random_orthant_cones() + _random_orthant_cones(300, seed=1)
    for G in small_graph_corpus():
        edge_ideal = [tuple(int(v in e) for v in range(1, G.n + 1))
                      for e in G.edges]
        cones.append(simis_cone(edge_ideal).cone)
        cones.append(rees_cone(cover_ideal(edge_clutter(G))))
    reduced = 0
    for cone in cones:
        elements = hilbert_basis(cone).elements
        assert elements == all_pairs_basis(cone)
        assert set(cone.extreme_rays()) <= set(elements)
        reduced += len(elements) > len(cone.extreme_rays())
    assert reduced >= 150


def _grading_volume(pieces):
    """Sum of |det S| / prod <1, s> over full-dimensional simplices: the
    volume of the cone's slice at total degree one, whatever the
    triangulation."""
    from covercones.linalg import diagonalize
    total = Fraction(0)
    for S in pieces:
        diag, _ = diagonalize(S)
        det = 1
        for x in diag:
            det *= abs(x)
        degrees = 1
        for s in S:
            degrees *= sum(s)
        total += Fraction(det, degrees)
    return total


def test_triangulation_of_cycle_cones():
    from covercones import rees_cone, simis_cone
    from covercones.cones import _triangulate
    expected = {5: (16, 11), 7: (40, 29), 9: (95, 80)}
    for k, counts in expected.items():
        G = cycle_graph(k)
        edge_ideal = [tuple(int(v in e) for v in range(1, k + 1))
                      for e in G.edges]
        cones = (simis_cone(edge_ideal).cone,
                 rees_cone(cover_ideal(edge_clutter(G))))
        for cone, count in zip(cones, counts):
            rays = cone.extreme_rays()
            pieces = [S for S, _ in _triangulate(cone)]
            assert len(pieces) == count, (k, cone)
            for S in pieces:
                assert len(S) == cone.dim == rank_int(S)
                assert set(S) <= set(rays)
            # the reversed copy pulls from another apex, so its
            # triangulation differs but covers the same volume
            flipped = IntegerCone(cone.dim, [r[::-1] for r in rays])
            others = [S for S, _ in _triangulate(flipped)]
            assert {frozenset(S) for S in pieces} != \
                {frozenset(s[::-1] for s in S) for S in others}
            assert _grading_volume(pieces) == _grading_volume(others)


def _sublattice_generators(rng, dim, rank):
    """`rank` random vectors of {-3..3}^dim, and 1..dim+2 random
    non-negative combinations of them (coefficients 0..2), zero dropped."""
    basis = [tuple(rng.randint(-3, 3) for _ in range(dim))
             for _ in range(rank)]
    gens = [tuple(sum(c * b[i] for c, b in zip(coef, basis))
                  for i in range(dim))
            for coef in ([rng.randint(0, 2) for _ in basis]
                         for _ in range(rng.randint(1, dim + 2)))]
    return basis, [g for g in gens if any(g)]


def _lower_dimensional_cones(count=60, seed=20261021):
    """Pointed V-described cones of rank 1..d-1 in d = 3..5 coordinates,
    generated inside the span of independent random vectors: their lattices
    are rarely saturated, so volumes above 1 come."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        dim = rng.randint(3, 5)
        basis, gens = _sublattice_generators(rng, dim, rng.randint(1, dim - 1))
        if gens and rank_int(basis) == len(basis):
            cones.append(IntegerCone(dim, gens))
    return cones


def test_triangulation_volume_bounds_are_multiples_of_the_volume():
    # each piece carries a positive multiple of its lattice volume: of
    # |det| (fraction-free, on the oracle side) for a square piece, of the
    # order of its diagonal form for a lower-dimensional one
    from math import prod
    from covercones import rees_cone, simis_cone
    from covercones.cones import _triangulate
    from covercones.linalg import diagonalize
    cones = _random_orthant_cones() + _lower_dimensional_cones()
    for G in small_graph_corpus():
        edge_ideal = [tuple(int(v in e) for v in range(1, G.n + 1))
                      for e in G.edges]
        cones.append(simis_cone(edge_ideal).cone)
        cones.append(rees_cone(cover_ideal(edge_clutter(G))))
    seen = dict.fromkeys(("square", "lower", "bound above 1"), 0)
    for cone in cones:
        rank = rank_int(cone.generators)
        for S, bound in _triangulate(cone):
            assert len(S) == rank == rank_int(S)
            if len(S) == cone.dim:
                volume = abs(det_int(S))
                seen["square"] += 1
            else:
                volume = prod(abs(x) for x in diagonalize(S)[0])
                seen["lower"] += 1
            assert volume > 0 and bound > 0 and bound % volume == 0, \
                (cone.generators, S, bound, volume)
            seen["bound above 1"] += bound > 1
    assert min(seen.values()) >= 1, seen


def test_pointedness_and_rank_match_facet_and_ray_ranks():
    # is_pointed reads the value matrix and rank() counts opposite facet
    # pairs; the oracle ranks the facet normals, generators and rays
    rng = random.Random(20261022)
    kinds = {}
    for trial in range(600):
        dim = rng.randint(2, 5)
        if trial % 2:
            # V-described, in a random sublattice; a negated generator
            # puts a line in the cone
            _, gens = _sublattice_generators(rng, dim, rng.randint(1, dim))
            if not gens:
                continue
            if rng.random() < 0.4:
                gens.append(tuple(-x for x in rng.choice(gens)))
            cone = IntegerCone(dim, gens)
        else:
            # H-described: too few normals leave a line, an opposite pair
            # cuts the span down
            normals = [tuple(rng.randint(-2, 2) for _ in range(dim))
                       for _ in range(rng.randint(1, dim + 3))]
            normals = [a for a in normals if any(a)]
            if not normals:
                continue
            if rng.random() < 0.4:
                normals.append(tuple(-x for x in rng.choice(normals)))
            cone = IntegerCone(dim, halfspaces=normals)
        pointed = rank_int([h.normal for h in cone.facets]) == dim
        assert cone.is_pointed() == pointed, cone.generators
        assert cone.rank() == rank_int(cone.generators), cone.generators
        if pointed:
            assert cone.rank() == rank_int(cone.extreme_rays())
        kind = (trial % 2, pointed, cone.rank() == dim)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 8 and min(kinds.values()) >= 10, kinds
    # the zero cone is pointed, of rank 0; all of R^2 is neither
    zero = IntegerCone(2, halfspaces=[(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert zero.is_pointed() and zero.rank() == 0
    plane = IntegerCone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert not plane.is_pointed() and plane.rank() == 2 and not plane.facets


def test_parallelepiped_points_match_box_scan():
    from itertools import product
    from covercones.cones import _coset_form, _parallelepiped_points
    from covercones.linalg import diagonalize
    rng = random.Random(42)
    trials = {True: 0, False: 0}   # full rank, lower rank
    while min(trials.values()) < 40:
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        S = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        diag, _ = diagonalize(S)
        det = 1
        for x in diag:
            det *= x
        if det == 0 or trials[k == d] == 40:
            continue
        trials[k == d] += 1
        form = _coset_form(tuple(S))
        got = set(_parallelepiped_points(tuple(S), *form) if form else ())
        lo = [sum(min(0, s[i]) for s in S) for i in range(d)]
        hi = [sum(max(0, s[i]) for s in S) for i in range(d)]
        expected = set()
        for z in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if not any(z):
                continue
            t = solve_columns(S, z)
            if t is not None and all(0 <= ti < 1 for ti in t):
                expected.add(z)
        assert got == expected
        assert len(got) == abs(det) - 1
        # the order charged to the search budget is |det|
        assert (form[2] if form else 1) == abs(det)


def test_det_int_matches_fraction_elimination():
    rng = random.Random(8)
    singular = 0
    for trial in range(400):
        n = trial % 8 + 1
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0:
            rows[0][0] = 0      # the first pivot needs a row swap
        if trial % 4 == 1:
            # the last row an integer combination of the others
            coef = [rng.randint(-2, 2) for _ in range(n - 1)]
            rows[-1] = [sum(c * r[j] for c, r in zip(coef, rows))
                        for j in range(n)]
        want = fraction_det(rows)
        singular += want == 0
        assert det_int(rows) == want, rows
    assert singular >= 100
    # sparse 0/1 matrices leave rows that are zero in the pivot column
    # while lead != prev: those rows are only rescaled
    for trial in range(450):
        n = trial % 9 + 2
        rows = [[int(rng.random() < 0.35) for _ in range(n)]
                for _ in range(n)]
        assert det_int(rows) == fraction_det(rows), rows


def test_facet_self_check_runs_once_and_fires(monkeypatch, tmp_path, capsys):
    from covercones import cones
    from covercones.cli import main
    checks = []
    real_values = cones._facet_values

    def counted(facets, generators):
        checks.append(len(generators))
        return real_values(facets, generators)

    monkeypatch.setattr(cones, "_facet_values", counted)
    orthant3 = [make_halfspace(unit(3, i)) for i in range(3)]
    IntegerCone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 2, 2)])
    IntegerCone(3, halfspaces=orthant3 + [make_halfspace((1, 1, 0))])
    assert checks == [4, 3]

    # one wrong DD ray: a wrong facet of a V-described cone, a wrong
    # generator of an H-described one
    real_dd = cones._dd_pair

    def first_ray_flipped(dim, normals):
        rays, lineality, used = real_dd(dim, normals)
        (vec, mask), *rest = rays
        return [(tuple(-x for x in vec), mask)] + rest, lineality, used

    monkeypatch.setattr(cones, "_dd_pair", first_ray_flipped)
    with pytest.raises(AssertionError, match="violated by a generator"):
        IntegerCone(3, [unit(3, i) for i in range(3)])
    with pytest.raises(AssertionError, match="violated by a generator"):
        IntegerCone(3, halfspaces=orthant3)
    with pytest.raises(AssertionError, match="violated by a generator"):
        facets_of_generators(3, [unit(3, i) for i in range(3)])
    path = tmp_path / "p3.graph"
    path.write_text("graph { a-b b-c }\n", encoding="utf-8")
    for cone in ("simis", "rees"):
        assert main(["hilbert-basis", str(path), "--cone", cone]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("error: internal consistency failure: facet "
                                "computation violated by a generator\n")
        assert captured.out == ""


def test_parallelepiped_points_empty_on_unimodular_simplices():
    # products of elementary matrices: the diagonal form has order one
    from covercones.cones import _coset_form
    from covercones.linalg import diagonalize
    rng = random.Random(11)
    for trial in range(200):
        d = trial % 7 + 2
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(3 * d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            if rng.random() < 0.3:
                rows[i], rows[j] = rows[j], [-x for x in rows[i]]
        S = tuple(map(tuple, rows))
        diag, _ = diagonalize(S)
        assert [abs(x) for x in diag] == [1] * d
        assert abs(det_int(S)) == 1
        assert _coset_form(S) is None


def test_lattice_points_decompose_over_the_basis():
    from itertools import product
    rng = random.Random(99)
    done = 0
    while done < 15:
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(dim))
                for _ in range(rng.randint(2, 5))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        done += 1
        cone = IntegerCone(dim, gens)
        hb = hilbert_basis(cone).elements
        for p in product(range(5), repeat=dim):
            if any(p) and cone.contains(p):
                res = semigroup_member(p, hb, grading=(1,) * dim)
                assert res.member, (gens, p)


def test_vertex_clique_polytopes_of_sample_perfect_six_vertex_graphs():
    from covercones import vertex_clique_matrix, perfect_matrix_check
    from corpus import complete_bipartite, complete_graph, cycle_graph, path_graph
    samples = [cycle_graph(6), path_graph(6), complete_bipartite(3, 3),
               complete_graph(6)]
    for G in samples:
        assert perfect_matrix_check(vertex_clique_matrix(G)).verdict is True


def test_contains_and_interior():
    covers = cover_ideal(edge_clutter(cycle_graph(4)))
    gens = [unit(5, i) for i in range(4)] + [c + (1,) for c in covers]
    cone = IntegerCone(5, gens)
    assert cone.in_interior((1, 1, 1, 1, 1))
    assert not cone.in_interior((0, 0, 0, 0, 0))
    assert cone.contains((0, 0, 0, 0, 0))
    e1 = IntegerCone(2, [(1, 0), (0, 1)])
    assert e1.contains((1, 0)) and not e1.in_interior((1, 0))


def test_dd_rays_match_rank_filtered_generators():
    # three routes to the extreme rays: double description on the facet
    # side, the tight-rank filter over the generators (the oracle), and the
    # tight-mask inclusion test of IntegerCone.extreme_rays
    rng = random.Random(777)
    trials = 0
    while trials < 60:
        dim = rng.randint(2, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(2, dim + 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = IntegerCone(dim, gens)
        if not cone.is_pointed():
            continue
        trials += 1
        want = rank_filtered_extreme_rays(cone)
        assert extreme_rays_of_halfspaces(dim, cone.facets) == want
        assert list(cone.extreme_rays()) == want


def test_roundtrip_facets_then_rays_random_cones():
    rng = random.Random(5)
    done = 0
    while done < 100:
        dim = rng.randint(3, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(2, dim + 2))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = IntegerCone(dim, gens)
        if not cone.is_pointed():
            continue
        done += 1
        rays = cone.extreme_rays()
        for g in gens:
            assert cone_membership_lp(rays, g)
        for r in rays:
            assert cone_membership_lp(gens, r)


def test_vertices_of_simplex():
    P = polyhedron(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                       ((-1, -1, -1), -1)])
    vs = vertices(P)
    assert [tuple(int(x) for x in v) for v in vs] == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert is_integral(P).verdict is True


def test_covering_polyhedron_of_pentagon():
    C5 = cycle_graph(5)
    hs = [make_halfspace(unit(5, i)) for i in range(5)]
    hs += [Halfspace(tuple(1 if v in e else 0 for v in range(1, 6)), 1)
           for e in C5.edges]
    P = HRepPolyhedron(5, tuple(hs))
    vs = vertices(P)
    fractional = [v for v in vs if any(x.denominator != 1 for x in v)]
    assert fractional == [(Fraction(1, 2),) * 5]
    report = is_integral(P)
    assert report.verdict is False and report.method == "theorem-path"
    assert report.witness["vertex"] == ("1/2",) * 5
    assert recession_rays(P) == sorted(unit(5, i) for i in range(5))


def test_vertices_raises_on_infeasible():
    P = polyhedron(1, [((1,), 1), ((-1,), 0)])
    with pytest.raises(InfeasibleError):
        vertices(P)


def _vertices_or_empty(P, find):
    try:
        return find(P)
    except InfeasibleError:
        return None


def test_vertices_match_basis_enumeration():
    # the packing and covering polyhedra of small graphs
    for G in small_graph_corpus():
        unit_hs = [make_halfspace(unit(G.n, i)) for i in range(G.n)]
        cols = [tuple(int(v in e) for v in range(1, G.n + 1)) for e in G.edges]
        for side in ([Halfspace(tuple(-x for x in c), -1) for c in cols],
                     [Halfspace(c, 1) for c in cols]):
            P = HRepPolyhedron(G.n, tuple(unit_hs + side))
            assert vertices(P) == brute_vertices(P)
    # seeded random polyhedra: empty, line-containing, unbounded, bounded
    rng = random.Random(2006)
    kinds = {"empty": 0, "line": 0, "pointed": 0}
    for trial in range(400):
        d = trial % 4 + 1
        k = rng.randint(1, 2 * d + 2)
        hs = []
        while len(hs) < k:
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(normal):
                hs.append(make_halfspace(normal, rng.randint(-3, 3)))
        P = HRepPolyhedron(d, tuple(hs))
        want = _vertices_or_empty(P, brute_vertices)
        assert _vertices_or_empty(P, vertices) == want
        kinds["empty" if want is None else "pointed" if want else "line"] += 1
    assert kinds == {"empty": 110, "line": 69, "pointed": 221}


def test_lattice_points_dilation_examples():
    assert lattice_points_dilation([(1, 0), (0, 1)], 2) == [
        (0, 2), (1, 1), (2, 0)]
    assert lattice_points_dilation([(1, 1, 1)], 2) == [(2, 2, 2)]
    c4_cliques = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    assert len(lattice_points_dilation(c4_cliques, 2)) == 9
    with pytest.raises(InputError):
        lattice_points_dilation([(1, 0)], 0)


def test_lattice_points_dilation_against_lp_membership():
    c4_cliques = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    c4_covers = cover_ideal(edge_clutter(cycle_graph(4)))
    for points in (c4_cliques, c4_covers, [(2, 0), (0, 2)]):
        lifts = [tuple(p) + (1,) for p in points]
        for b in (1, 2, 3):
            want = brute_lattice_points_dilation(
                points, b, lambda z: cone_membership_lp(lifts, z + (b,)))
            assert lattice_points_dilation(points, b) == want


@pytest.mark.parametrize("call", [
    lambda: lattice_points_dilation([], 2),
    lambda: positive_grading([]),
    lambda: semigroup_member((1, 0), []),
], ids=["lattice_points_dilation", "positive_grading", "semigroup_member"])
def test_an_empty_point_or_generator_list_is_an_input_error(call):
    with pytest.raises(InputError, match="empty"):
        call()


def test_semigroup_membership_examples():
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    one = semigroup_member((1, 1, 1), gens)
    assert one.member and one.coefficients == (0, 0, 1)
    two = semigroup_member((2, 1, 1), gens)
    assert two.member and two.coefficients == (1, 0, 1)
    refusal = semigroup_member((0, 0, 1), gens)
    assert refusal.member is False and refusal.coefficients is None


def test_semigroup_membership_with_negative_generators():
    lifted = [(1, 1, 1), (-1, 0, 0), (0, -1, 0)]
    res = semigroup_member((0, 0, 1), lifted)
    assert res.member and res.coefficients == (1, 1, 1)


def test_semigroup_membership_needs_grading():
    with pytest.raises(NoGradingError):
        semigroup_member((0, 0), [(1, 0), (-1, 0)])


def test_positive_grading_exists_exactly_when_the_lp_oracle_finds_one():
    """The facet-normal sum against the exact simplex on
    {phi : <g, phi> >= 1 for every generator g}: NoGradingError exactly
    where that program is infeasible, a functional >= 1 on every generator
    everywhere else."""
    families = [[(1, 0), (-1, 0)], [(1, 0), (0, 1), (-1, -1)],
                [(0, 0), (1, 0)], [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
                [(1, 1, 1), (-1, 0, 0), (0, -1, 0)], [(1, 0, 0), (0, 1, 0)],
                [(1, 2, 0), (2, 4, 0)]]
    rng = random.Random(7)
    for _ in range(150):
        dim = rng.randint(1, 4)
        families.append([tuple(rng.randint(-2, 2) for _ in range(dim))
                         for _ in range(rng.randint(1, 5))])
    graded = 0
    for gens in families:
        dim = len(gens[0])
        prog = make_lp([0] * dim, gens, [1] * len(gens), [GE] * len(gens),
                       nonneg=[False] * dim)
        if not feasible(prog):
            with pytest.raises(NoGradingError):
                positive_grading(gens)
            continue
        phi = positive_grading(gens)
        assert all(dot(phi, g) >= 1 for g in gens), gens
        graded += 1
    assert 30 < graded < len(families) - 30


def test_facet_cache_is_consistent_under_threads():
    import threading
    covers = cover_ideal(edge_clutter(cycle_graph(5)))
    gens = [unit(6, i) for i in range(5)] + [c + (1,) for c in covers]
    cone = IntegerCone(6, gens)
    results = []

    def reader():
        results.append(cone.facets)

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_cone_takes_exactly_one_description():
    hs = [make_halfspace((1, 0)), make_halfspace((0, 1))]
    with pytest.raises(InputError):
        IntegerCone(2)
    with pytest.raises(InputError):
        IntegerCone(2, generators=[(1, 0), (0, 1)], halfspaces=hs)
    with pytest.raises(InputError):
        IntegerCone(2, [])
    quadrant = IntegerCone(2, halfspaces=hs)
    assert quadrant.generators == ((0, 1), (1, 0))
    assert quadrant.facets == tuple(sorted(hs))
    zero = IntegerCone(1, halfspaces=[make_halfspace((1,)),
                                      make_halfspace((-1,))])
    assert zero.generators == ()
    assert [h.normal for h in zero.facets] == [(-1,), (1,)]
    # no generators: the polar lineality is all of R^2, cut into unit pairs
    assert [h.normal for h in facets_of_generators(2, [])] == [
        (-1, 0), (0, -1), (0, 1), (1, 0)]


def test_h_described_facets_match_the_polar_double_description():
    # an H-described cone runs one double description and reads its facets
    # off the rays' tight sets; the polar double description of its
    # generators, and the V-described cone on them, must agree
    from covercones.cones import extreme_rays_of_halfspaces_or_lineality
    rng = random.Random(20261020)
    kinds = dict.fromkeys(("pointed", "lineality", "lower", "redundant"), 0)
    for trial in range(400):
        dim = rng.randint(2, 6)
        normals = [tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rng.randint(1, dim + 3))]
        normals = [a for a in normals if any(a)]
        if not normals:
            continue
        a, b = rng.choice(normals), rng.choice(normals)
        # repeated, scaled and summed normals: redundant on purpose
        normals += [a, tuple(3 * x for x in a)]
        if any(x + y for x, y in zip(a, b)):
            normals.append(tuple(x + y for x, y in zip(a, b)))
        if trial % 3 == 0:
            normals.append(tuple(-x for x in a))   # lower-dimensional
        rng.shuffle(normals)
        hs = [make_halfspace(n) for n in normals]
        cone = IntegerCone(dim, halfspaces=normals)
        assert cone.facets == tuple(facets_of_generators(dim, cone.generators))
        assert list(cone.generators) == sorted(
            extreme_rays_of_halfspaces_or_lineality(dim, hs))
        facets = set(cone.facets)
        lower = any(make_halfspace(tuple(-x for x in h.normal)) in facets
                    for h in facets)
        if lower:
            kinds["lower"] += 1
        elif not cone.is_pointed():
            kinds["lineality"] += 1
        else:
            kinds["pointed"] += 1
            kinds["redundant"] += len(set(hs)) > len(facets)
            assert rank_filtered_facets(cone, hs) == list(cone.facets)
        if cone.is_pointed():
            rays = list(cone.extreme_rays())
            assert rays == rank_filtered_extreme_rays(cone)
            if rays:
                assert rays == list(IntegerCone(dim, rays).extreme_rays())
    assert min(kinds.values()) >= 80, kinds


def test_simis_facets_of_an_18_vertex_graph_by_tight_rank():
    # 19 coordinates, 45 minimal covers: one double description, where the
    # polar one on the rays tests 2.46 M ray pairs, past cones.DD_BUDGET
    from covercones import simis_cone
    G = sampled_graph(1)
    ideal = [tuple(int(v in e) for v in range(1, 19)) for e in G.edges]
    model = simis_cone(ideal)
    assert len(model.halfspaces) == len(model.cone.facets) == 64
    covers = [h.normal for h in model.halfspaces if h.normal[-1] == -1]
    # sums of two cover inequalities, and covers grown by one vertex
    extra = [make_halfspace(tuple(x + y for x, y in zip(u, w)))
             for u, w in zip(covers, covers[1:])]
    extra += [make_halfspace(u[:i] + (1,) + u[i + 1:])
              for u in covers for i in range(18) if not u[i]][::7]
    hs = list(model.halfspaces) + extra
    cone = IntegerCone(19, halfspaces=hs)
    assert cone.generators == model.cone.generators
    assert cone.facets == model.cone.facets
    assert rank_filtered_facets(cone, hs) == list(cone.facets)


def test_lower_dimensional_facets_match_gram_schmidt_projection():
    # the exact projection through the polar lineality's Gram matrix must
    # give the same primitive normals as Gram-Schmidt over the rationals
    rng = random.Random(20261019)
    checked = 0
    while checked < 1000:
        dim = rng.randint(2, 6)
        rank = rng.randint(1, dim - 1)
        basis = [tuple(rng.randint(-3, 3) for _ in range(dim))
                 for _ in range(rank)]
        gens = [tuple(sum(c * b[i] for c, b in zip(coef, basis))
                      for i in range(dim))
                for coef in ([rng.randint(-2, 3) for _ in basis]
                             for _ in range(rng.randint(1, dim + 2)))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        checked += 1
        assert facets_of_generators(dim, gens) == \
            gram_schmidt_facets(dim, gens), gens
    # H-described cones with implicit equalities (a normal and its
    # negation), then the zero cone, the whole space and a line
    cones = []
    while len(cones) < 200:
        dim = rng.randint(2, 6)
        normals = [tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rng.randint(1, dim + 2))]
        normals = [a for a in normals if any(a)]
        if normals:
            a = rng.choice(normals)
            cones.append(IntegerCone(dim, halfspaces=normals + [
                tuple(-x for x in a)]))
            assert cones[-1].rank() < dim
    for dim in (2, 3, 5):
        units = [unit(dim, i) for i in range(dim)]
        both = units + [tuple(-x for x in u) for u in units]
        line = tuple(range(1, dim + 1))
        cones += [IntegerCone(dim, halfspaces=both), IntegerCone(dim, both),
                  IntegerCone(dim, [line, tuple(-x for x in line)])]
    for cone in cones:
        assert cone.facets == tuple(
            gram_schmidt_facets(cone.dim, cone.generators)), cone.generators


def test_double_descriptions_per_cone(monkeypatch):
    # one for a full-dimensional cone, however it is described; a
    # lower-dimensional one adds the polar run on the generators and both
    # signs of the polar lineality, and an H-described one adds the first
    # polar run as well
    from covercones import cones
    real_dd = cones._dd_pair
    calls = []

    def counted(dim, normals):
        calls.append(dim)
        return real_dd(dim, normals)

    def runs(**description):
        calls.clear()
        IntegerCone(3, **description)
        return len(calls)

    monkeypatch.setattr(cones, "_dd_pair", counted)
    orthant = [unit(3, i) for i in range(3)]
    assert runs(generators=orthant) == 1
    assert runs(halfspaces=orthant) == 1
    assert runs(generators=orthant[:2]) == 2
    assert runs(halfspaces=orthant + [(0, 0, -1)]) == 3
