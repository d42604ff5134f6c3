import time
from fractions import Fraction

import pytest

from covercones import (CapExceededError, InputError, IntegerCone,
                        MonomialGenerator, clique_lift_set, errors,
                        complement, cover_ideal, edge_clutter,
                        ehrhart_equality, gorenstein_check, hilbert_basis,
                        incidence_matrix, is_rees_normal, is_unmixed,
                        lattice_points_dilation, rees_cone,
                        rees_hilbert_basis, rees_lift_set, semigroup_member,
                        simis_cone, simis_hilbert_basis,
                        symbolic_generators_perfect, tdi_check)

from corpus import (all_graphs_up_to_iso, complete_bipartite, complete_graph,
                    cycle_graph, no_isolated, path_graph, paw_graph,
                    small_graph_corpus)
from oracles import contraction, gorenstein_box_scan, maximal_independent_sets


def edge_ideal(G):
    return [tuple(1 if v in e else 0 for v in range(1, G.n + 1))
            for e in G.edges]


def test_monomial_rendering():
    assert str(MonomialGenerator((1, 1, 0), 1)) == "x1x2 t"
    assert str(MonomialGenerator((1, 0, 0), 0)) == "x1"
    assert str(MonomialGenerator((2, 0, 1), 3)) == "x1^2x3 t^3"
    assert str(MonomialGenerator((0, 0, 0), 2)) == "t^2"
    with pytest.raises(InputError):
        MonomialGenerator((0, 0), 0)


def test_rees_cone_shapes():
    model = rees_cone([(0, 1), (1, 0)])
    assert {h.normal for h in model.cone.facets} == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)}
    model = rees_cone([(1, 1)])
    assert set(model.lift_set) == {(1, 0, 0), (0, 1, 0), (1, 1, 1)}
    with pytest.raises(InputError):
        rees_cone([(0, 0)])


def test_rees_cone_lift_set_satisfies_facets():
    model = rees_cone(cover_ideal(edge_clutter(cycle_graph(5))))
    for g in model.lift_set:
        assert model.cone.contains(g)


def test_cover_ideal_of_pentagon_is_normal():
    report = is_rees_normal(cover_ideal(edge_clutter(cycle_graph(5))))
    assert report.verdict is True
    certs = report.certificate["memberships"]
    assert len(certs) == report.certificate["hilbert_basis_size"]


def test_normality_witness_when_lift_set_misses_a_point():
    # the square-free cube-root ideal: (1,1,0),(0,1,1),(1,0,1) lifted
    # misses nothing, but the non-square-free pair below leaves a gap
    report = is_rees_normal([(2, 0), (0, 2)])
    assert report.verdict is False
    assert report.witness["hilbert_basis_element"] == (1, 1, 1)


def test_triangle_clutter_recorded_fixture():
    # the four triangles through the edges of a tetrahedron; recorded run:
    # not normal, the all-vertices point at t-degree two is unreachable
    ideal = [(1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 0),
             (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1)]
    report = is_rees_normal(ideal)
    assert report.verdict is False
    witness = report.witness["hilbert_basis_element"]
    assert witness == (1, 1, 1, 1, 1, 1, 2)
    # certificate logic: the witness is a cone lattice point the lift set
    # cannot reach
    model = rees_cone(ideal)
    assert model.cone.contains(witness)
    refusal = semigroup_member(witness, model.lift_set,
                               grading=(1,) * 7)
    assert refusal.member is False


def test_simis_cone_definition_and_redundancy_flags():
    model = simis_cone([(1, 1)])
    inequalities = {(h.normal) for h in model.halfspaces}
    assert inequalities == {(1, 0, 0), (0, 1, 0), (0, 0, 1),
                            (1, 0, -1), (0, 1, -1)}
    # a1 >= 0 and a2 >= 0 follow from a_i >= a3 >= 0
    assert {h.normal for h in model.redundant_halfspaces} == {(1, 0, 0), (0, 1, 0)}
    assert {h.normal for h in model.cone.facets} == {(0, 0, 1), (1, 0, -1), (0, 1, -1)}


def test_simis_hilbert_basis_small_graphs():
    assert simis_hilbert_basis([(1, 1)]).elements == (
        (0, 1, 0), (1, 0, 0), (1, 1, 1))
    k3 = simis_hilbert_basis(edge_ideal(complete_graph(3)))
    assert k3.elements == (
        (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0),
        (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 2))


def test_simis_basis_of_pentagon_exceeds_clique_set():
    C5 = cycle_graph(5)
    hb = set(simis_hilbert_basis(edge_ideal(C5)).elements)
    cliques = {m.exponents + (m.t_degree,) for m in clique_lift_set(C5)}
    assert cliques < hb
    assert hb - cliques == {(1, 1, 1, 1, 1, 3)}


def test_symbolic_generators_for_perfect_graphs():
    gens = symbolic_generators_perfect(complete_graph(3))
    assert sorted(str(m) for m in gens) == [
        "x1", "x1x2 t", "x1x2x3 t^2", "x1x3 t", "x2", "x2x3 t", "x3"]
    gens = symbolic_generators_perfect(complete_graph(2))
    assert sorted(str(m) for m in gens) == ["x1", "x1x2 t", "x2"]
    c4 = symbolic_generators_perfect(cycle_graph(4))
    assert len(c4) == 8
    hb = set(simis_hilbert_basis(edge_ideal(cycle_graph(4))).elements)
    assert {m.exponents + (m.t_degree,) for m in c4} == hb


def test_symbolic_generators_reject_imperfect():
    with pytest.raises(InputError, match=r"odd hole \(1, 2, 3, 4, 5\)"):
        symbolic_generators_perfect(cycle_graph(5))
    # the unverified clique lifts stay available to a library caller
    assert len(clique_lift_set(cycle_graph(5))) == 10


def test_ehrhart_equality_fixtures():
    assert ehrhart_equality([(1, 1, 1)]).verdict is True
    c4_mis = [tuple(1 if v in s else 0 for v in range(1, 5))
              for s in maximal_independent_sets(cycle_graph(4))]
    assert ehrhart_equality(c4_mis).verdict is True
    # triangle edge set: Hilbert basis of the lifted cone equals the lift
    # set, and x0 is the unique solution of <v_i, x0> = 1
    report = ehrhart_equality([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert report.verdict is True
    assert report.certificate == {"x0": ("1/2", "1/2", "1/2")}


def test_ehrhart_equality_against_dilation_scan():
    """The oracle: every lattice point of b * conv(v_i) is a sum of b
    generators, for b up to the basis's largest t-degree (at least 2), when
    the verdict is true; a false verdict's witness is such a point that the
    membership search refuses."""
    unmixed = [cover_ideal(edge_clutter(G)) for G in small_graph_corpus()
               if is_unmixed(edge_clutter(G))]
    assert len(unmixed) == 13
    c4_mis = [tuple(1 if v in s else 0 for v in range(1, 5))
              for s in maximal_independent_sets(cycle_graph(4))]
    ideals = [[(1, 1, 1)], c4_mis, [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
              [(1, 0)], [(2, 0), (0, 2)]] + unmixed
    verdicts = []
    for ideal in ideals:
        report = ehrhart_equality(ideal)
        verdicts.append(report.verdict)
        lifts = [tuple(v) + (1,) for v in ideal]
        grading = (1,) * len(lifts[0])

        def reached(p, b):
            return semigroup_member(tuple(p) + (b,), lifts, grading).member

        if report.verdict:
            hb = hilbert_basis(IntegerCone(len(grading), lifts))
            top = max(2, max(e[-1] for e in hb.elements))
            for b in range(1, top + 1):
                assert all(reached(p, b)
                           for p in lattice_points_dilation(ideal, b)), \
                    (ideal, b)
        else:
            *p, b = report.witness["hilbert_basis_element"]
            assert tuple(p) in lattice_points_dilation(ideal, b)
            assert not reached(p, b)
    assert verdicts == [True] * 4 + [False] + [True] * 13


def test_ehrhart_equality_detects_gaps():
    report = ehrhart_equality([(2, 0), (0, 2)])
    assert report.verdict is False
    assert report.witness["hilbert_basis_element"] == (1, 1, 1)


def test_ehrhart_x0_is_a_positive_normalizing_point():
    ideals = [[(1, 1, 1)], [(1, 0)], [(2, 0), (0, 2)],
              [(1, 0, 1, 0, 0), (0, 1, 0, 1, 0)],
              [(0, 1, 1, 1, 0), (1, 0, 1, 0, 1)]]
    ideals += [cover_ideal(edge_clutter(G)) for G in small_graph_corpus()
               if is_unmixed(edge_clutter(G))]
    for ideal in ideals:
        x0 = [Fraction(x) for x in ehrhart_equality(ideal).certificate["x0"]]
        assert all(x > 0 for x in x0), ideal
        assert all(sum(a * x for a, x in zip(v, x0)) == 1 for v in ideal)
    # the double description rays of {x >= 0 : x1 + x3 = x2 + x4 = 1}
    # (the four vertices and the free direction e5) sum to (2, 2, 2, 2, 1)
    # at t = 4
    assert ehrhart_equality([(1, 0, 1, 0, 0), (0, 1, 0, 1, 0)]).certificate \
        == {"x0": ("1/2", "1/2", "1/2", "1/2", "1/4")}


def test_ehrhart_requires_positive_normalizing_point():
    with pytest.raises(InputError):
        ehrhart_equality([(1, 0), (2, 0)])
    # a coordinate outside every generator leaves x0 free there, still fine
    assert ehrhart_equality([(1, 0)]).verdict is True


def test_gorenstein_fixtures():
    c4 = gorenstein_check(cycle_graph(4))
    assert c4.verdict is True
    assert c4.certificate["canonical_generator"] == "x1x2x3x4 t"
    assert gorenstein_check(complete_graph(2)).verdict is True
    p3 = gorenstein_check(path_graph(3))
    assert p3.verdict is None and p3.reason == "not unmixed"
    c5 = gorenstein_check(cycle_graph(5))
    assert c5.verdict is False
    assert c5.witness["interior_point"] == (2, 2, 2, 2, 2, 3)
    paw = gorenstein_check(paw_graph())
    assert paw.verdict is None


def test_gorenstein_reports_scan_bounds():
    report = gorenstein_check(complete_bipartite(2, 2), scan_bound=3)
    assert report.verdict is True
    assert report.search_bounds["scan_bound"] == 3


def test_gorenstein_certificate_property():
    # a true verdict means every scanned interior point reduces by all-ones
    G = complete_graph(3)
    report = gorenstein_check(G)
    assert report.verdict is True
    cone = rees_cone(cover_ideal(edge_clutter(G))).cone
    bound = report.search_bounds["scan_bound"]
    from itertools import product
    for point in product(range(1, bound + 1), repeat=4):
        if cone.in_interior(point):
            assert cone.contains(tuple(x - 1 for x in point))


def assert_walk_matches_box_scan(G, bound):
    report = gorenstein_check(G, scan_bound=bound)
    scan = gorenstein_box_scan(G, bound)
    assert report.verdict is scan.verdict, (G, bound)
    if scan.verdict:
        assert report.certificate["interior_points_scanned"] == \
            scan.certificate["interior_points_scanned"], (G, bound)
    else:
        assert report.witness == scan.witness, (G, bound)


@pytest.mark.parametrize("n", range(2, 7))
def test_gorenstein_walk_matches_box_scan(n):
    graphs = [G for G in no_isolated(all_graphs_up_to_iso(n))
              if is_unmixed(edge_clutter(G))]
    assert graphs
    for G in graphs:
        for bound in range(2, n + 1):
            assert_walk_matches_box_scan(G, bound)


@pytest.mark.parametrize("G, bound", [(cycle_graph(7), 3),
                                      (complement(cycle_graph(7)), 4)])
def test_gorenstein_walk_finds_deep_witnesses(G, bound):
    assert gorenstein_check(G, scan_bound=bound).verdict is False
    assert_walk_matches_box_scan(G, bound)


def test_gorenstein_walk_budget(monkeypatch):
    report = gorenstein_check(complete_bipartite(3, 3))
    assert report.search_bounds["node_budget"] == errors.SEARCH_BUDGET
    # K_{3,3}'s covers take 65 nodes and its cone 100 ray pairs
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 100)
    with pytest.raises(CapExceededError, match="Gorenstein box walk "
                       "exceeded its budget of 100 nodes"):
        gorenstein_check(complete_bipartite(3, 3))


def test_paw_chain_normality_is_preserved_under_contraction():
    from covercones import Clutter, clique_equalization, complement
    G = paw_graph()
    H, added = clique_equalization(G)
    ideal_H = cover_ideal(edge_clutter(complement(H)))
    ideal_G = cover_ideal(edge_clutter(complement(G)))
    # the cover ideal of the grown complement contracts onto the original
    clutter_H = Clutter(H.n, [tuple(i + 1 for i, x in enumerate(v) if x)
                              for v in ideal_H])
    for z in reversed(added):
        clutter_H, _ = contraction(clutter_H, z)
    clutter_G = Clutter(G.n, [tuple(i + 1 for i, x in enumerate(v) if x)
                              for v in ideal_G])
    assert clutter_H == clutter_G
    assert is_rees_normal(ideal_H).verdict is True
    assert is_rees_normal(ideal_G).verdict is True


def test_hilbert_bases_past_ten_coordinates_answer_within_the_budget():
    # no dimension cap: the cones of C10 and C11 have 11 and 12
    # coordinates, and each Hilbert basis is bounded by its work instead
    C10 = cycle_graph(10)
    covers, edges = cover_ideal(edge_clutter(C10)), edge_ideal(C10)
    assert is_rees_normal(covers).verdict is True
    # the Simis basis of a perfect graph is its clique lift set
    assert set(simis_hilbert_basis(edges).elements) == {
        m.exponents + (m.t_degree,) for m in clique_lift_set(C10)}
    assert ehrhart_equality(edges).verdict is True
    assert tdi_check(incidence_matrix(edge_clutter(C10))).verdict is True
    assert tdi_check(
        incidence_matrix(edge_clutter(cycle_graph(11)))).verdict is False


def test_rees_hilbert_basis_of_perfect_graphs_is_the_lift_set():
    # the partner of the theorem that R[Jt] is normal for a perfect graph:
    # every lift is irreducible, so normality makes the basis the lift set
    for G in (cycle_graph(10), cycle_graph(12), complete_bipartite(5, 5)):
        covers = cover_ideal(edge_clutter(G))
        assert set(rees_hilbert_basis(covers).elements) == \
            set(rees_lift_set(covers))


def test_large_exponents_stop_at_the_budget_within_a_second():
    # one piece of the triangulation has |det| = 89,401, so the reduction
    # would test about 8e9 point pairs; it is refused before any point of
    # the piece is listed
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="Hilbert-basis reduction "
                       "exceeded its budget of 1000000 point pairs"):
        rees_hilbert_basis([(300, 1, 1), (1, 300, 1), (1, 1, 300)])
    assert time.perf_counter() - start < 1


def test_search_budget_is_read_at_call_time(monkeypatch):
    # C5's cone takes 111 ray pairs and its triangulation 140 simplex rays
    covers = cover_ideal(edge_clutter(cycle_graph(5)))
    assert is_rees_normal(covers).search_bounds == {"hb_budget": 1000000}
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 120)
    with pytest.raises(CapExceededError,
                       match="triangulation exceeded its budget of 120 "):
        is_rees_normal(covers)
