import random
from fractions import Fraction
from itertools import product

import pytest

from covercones import (CheckReport, Clutter, Graph, InputError,
                        IntegerCone, balanced_check, clique_halfspaces,
                        cm_height_two_normal, complement, cover_ideal,
                        dual_balanced_normal, edge_clutter, hilbert_basis,
                        incidence_matrix, is_rees_normal, mfmc_check,
                        perfect_matrix_check, perfect_via_odd_holes,
                        perfect_via_rees_cone, rees_cone, semigroup_member,
                        tdi_check, vertex_clique_matrix)
from covercones import errors
from covercones.checks import _columns_of
from covercones.errors import CapExceededError
from covercones.lp import covering_attains

from corpus import (all_graphs_up_to_iso, complete_bipartite, complete_graph,
                    cycle_graph, no_isolated, path_graph, small_graph_corpus,
                    with_edges)
from oracles import (_covering_minimum, balanced_oracle, covering_by_scan,
                     is_perfect_definitional, tdi_oracle)
from simplex import GE, INFEASIBLE, OPTIMAL, make_lp, solve


def test_cone_perfection_fixtures(monkeypatch):
    r = perfect_via_rees_cone(cycle_graph(5))
    assert r.verdict is False
    assert r.witness["non_clique_facets"] == [(1, 1, 1, 1, 1, -3)]
    assert perfect_via_rees_cone(cycle_graph(4)).verdict is True
    k4 = perfect_via_rees_cone(complete_graph(4))
    assert k4.verdict is True
    assert (1, 1, 1, 1, -3) in {h.normal for h in
                                clique_halfspaces(complete_graph(4))}
    # the pentagon's covers take 42 nodes and its facet double description
    # 111 ray pairs
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 50)
    with pytest.raises(CapExceededError, match="double description "
                       "exceeded its budget of 50 ray pairs"):
        perfect_via_rees_cone(cycle_graph(5))


def test_cone_perfection_equals_odd_holes_with_an_isolated_vertex():
    # an isolated vertex is a clique of its own and lies in no minimal
    # cover; the criterion needs no exception for it
    graphs = [G for n in range(2, 7)
              for G in with_edges(all_graphs_up_to_iso(n))
              if G.isolated_vertices()]
    assert len(graphs) == 47
    for G in graphs:
        assert (perfect_via_rees_cone(G).verdict
                == perfect_via_odd_holes(G).verdict), G


def test_cone_perfection_equals_oracle_on_connected_four_vertex_graphs():
    for G in with_edges(no_isolated(all_graphs_up_to_iso(4))):
        assert (perfect_via_rees_cone(G).verdict
                == is_perfect_definitional(G).verdict)


def _assert_induced_odd_cycle(H, cycle):
    """`cycle` is an odd induced cycle of H of length >= 5: consecutive
    vertices are adjacent, every vertex has exactly two neighbours inside
    it, and it is connected."""
    assert len(cycle) >= 5 and len(cycle) % 2 == 1
    inside = set(cycle)
    assert len(inside) == len(cycle)
    for i, v in enumerate(cycle):
        assert H.adjacent(v, cycle[i - 1])
        assert sum(H.adjacent(v, u) for u in inside) == 2
    reached, frontier = {cycle[0]}, [cycle[0]]
    while frontier:
        v = frontier.pop()
        for u in inside - reached:
            if H.adjacent(v, u):
                reached.add(u)
                frontier.append(u)
    assert reached == inside


def _random_graph(rng, n):
    p = rng.uniform(0.15, 0.85)
    return Graph(n, [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < p])


def test_odd_hole_search_matches_definitional_oracle():
    graphs = [G for n in range(1, 7) for G in all_graphs_up_to_iso(n)]
    rng = random.Random(20261018)
    graphs += [_random_graph(rng, n) for n in (7, 8, 9) for _ in range(50)]
    verdicts = []
    for G in graphs:
        report = perfect_via_odd_holes(G)
        assert report.verdict == is_perfect_definitional(G).verdict, G
        assert report.verdict == perfect_via_odd_holes(complement(G)).verdict, G
        assert report.search_bounds == {"node_budget": errors.SEARCH_BUDGET}
        if report.verdict:
            assert set(report.certificate) == {"even_holes", "even_antiholes"}
        else:
            (kind, cycle), = report.witness.items()
            H = G if kind == "odd_hole" else complement(G)
            assert kind in ("odd_hole", "odd_antihole")
            _assert_induced_odd_cycle(H, cycle)
        verdicts.append(report.verdict)
    assert len(graphs) == 358
    assert verdicts.count(False) == 45      # 9 with n <= 6, 36 random


def test_odd_hole_search_fixtures_and_budget(monkeypatch):
    assert perfect_via_odd_holes(cycle_graph(5)).witness == \
        {"odd_hole": (1, 2, 3, 4, 5)}
    c7bar = perfect_via_odd_holes(complement(cycle_graph(7)))
    assert c7bar.witness == {"odd_antihole": (1, 2, 3, 4, 5, 6, 7)}
    c6 = perfect_via_odd_holes(cycle_graph(6))
    assert c6.verdict is True
    assert c6.certificate == {"even_holes": 1, "even_antiholes": 0}
    grid = Graph(20, [(v, v + 1) for v in range(1, 21) if v % 5]
                 + [(v, v + 5) for v in range(1, 16)])
    for G in (grid, complete_bipartite(8, 8)):
        assert perfect_via_odd_holes(G).verdict is True
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 10)
    with pytest.raises(CapExceededError, match="induced-cycle search "
                       "exceeded its budget of 10 nodes"):
        perfect_via_odd_holes(grid)


def test_exhaustive_six_vertex_sweep():
    # every 6-vertex graph without isolated vertices, both perfection
    # routes, plus normality and the clique description on the perfect ones
    from covercones import (clique_lift_set, cover_ideal, is_rees_normal,
                            simis_hilbert_basis)
    graphs = with_edges(no_isolated(all_graphs_up_to_iso(6)))
    assert len(graphs) == 122
    perfect = []
    for G in graphs:
        cone = perfect_via_rees_cone(G).verdict
        assert cone == is_perfect_definitional(G).verdict, G
        if cone:
            perfect.append(G)
    assert len(perfect) == 115
    for G in perfect:
        assert is_rees_normal(cover_ideal(edge_clutter(G))).verdict, G
        edge_ideal = [tuple(1 if v in e else 0 for v in range(1, 7))
                      for e in G.edges]
        hb = set(simis_hilbert_basis(edge_ideal).elements)
        assert hb == set(clique_lift_set(G)), G


def test_perfect_matrix_fixtures():
    assert perfect_matrix_check(vertex_clique_matrix(cycle_graph(4))).verdict
    r = perfect_matrix_check(incidence_matrix(edge_clutter(cycle_graph(5))))
    assert r == CheckReport(name="perfect-matrix", verdict=False,
                            method="theorem-path",
                            witness={"vertex": ("1/2",) * 5})
    assert perfect_matrix_check([(1,)]).verdict is True


def test_tdi_fixtures():
    assert tdi_check(vertex_clique_matrix(complete_graph(2))).verdict is True
    assert tdi_check(incidence_matrix(edge_clutter(cycle_graph(5)))).verdict is False
    single = tdi_check([(2,)])
    assert single.verdict is False
    assert single.witness["fractional_vertex"]["vertex"] == ("1/2",)


def test_tdi_on_integer_matrix_is_one_directional():
    # a matrix with a negative entry: conditions hold -> verdict true
    ok = tdi_check([(1, 0), (-1, 1)])
    assert ok.verdict in (True, None)
    if ok.verdict is None:
        assert "negative" in ok.reason


def test_tdi_oracle_fixtures():
    r = tdi_oracle(vertex_clique_matrix(complete_graph(2)))
    assert r.verdict is True and r.certificate["objectives_checked"] > 0
    A = incidence_matrix(edge_clutter(cycle_graph(3)))
    r = tdi_oracle(A)
    assert r.verdict is False
    assert r.witness == {"alpha": (1, 1, 1), "lp_value": Fraction(3, 2)}
    # the witness is genuine: no integral y of cost at most 3/2 covers it
    assert not covering_by_scan(A.columns, (1, 1, 1), Fraction(3, 2))


def test_tdi_oracle_stops_past_its_budget(monkeypatch):
    A = vertex_clique_matrix(complete_graph(2))
    assert tdi_oracle(A).search_bounds["node_budget"] == errors.SEARCH_BUDGET
    # the packing polytope's double description takes 8 ray pairs
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 8)
    with pytest.raises(CapExceededError, match="TDI oracle exceeded its "
                       "budget of 8 objectives and search nodes"):
        tdi_oracle(A)


# 2 -1 2 / -1 1 -1: alpha = (-1, 3) needs y = (0, 5, 2), of cost 7
NEGATIVE_ENTRIES = [(2, -1), (-1, 1), (2, -1)]
# the second row is zero: e_2 is a recession ray of the packing polytope
ZERO_ROW = [(1, 0), (1, 0)]


def test_covering_values_match_the_simplex_on_every_objective():
    """The double description's covering minimum against the exact simplex,
    on every objective of the tdi_oracle fixtures."""
    fixtures = [
        vertex_clique_matrix(complete_graph(2)),
        vertex_clique_matrix(path_graph(3)),
        vertex_clique_matrix(cycle_graph(4)),
        incidence_matrix(edge_clutter(cycle_graph(3))),
        [(1, 1, 0), (0, 1, 1)], [(1, 0), (1, 1), (0, 1)], [(2,)],
        NEGATIVE_ENTRIES, ZERO_ROW,
    ]
    infeasible = 0
    for A in fixtures:
        n, cols = _columns_of(A)
        covering = _covering_minimum(n, cols)
        rows = [[col[i] for col in cols] for i in range(n)]
        lo, hi = tdi_oracle(A).search_bounds["alpha_box"]
        for alpha in product(range(lo, hi + 1), repeat=n):
            res = solve(make_lp([1] * len(cols), rows, alpha, [GE] * n))
            value = covering(alpha)
            if res.status == INFEASIBLE:
                assert value is None, (A, alpha)
                infeasible += 1
            else:
                assert value == res.value, (A, alpha)
    assert infeasible > 0


def test_tdi_oracle_box_reaches_the_lp_value_on_negative_entries():
    r = tdi_oracle(NEGATIVE_ENTRIES)
    assert r.verdict is False
    # the witness is genuine: a fractional LP value no integral y attains
    assert r.witness == {"alpha": (1, -2), "lp_value": Fraction(1, 2)}
    assert not covering_by_scan(NEGATIVE_ENTRIES, (1, -2), Fraction(1, 2))
    # the search needs no box: y = (0, 5, 2) attains the LP value 7
    assert _covering_minimum(2, NEGATIVE_ENTRIES)((-1, 3)) == 7
    assert covering_attains(NEGATIVE_ENTRIES, (-1, 3), 7)[0] is True
    assert covering_attains(NEGATIVE_ENTRIES, (-1, 3), 6)[0] is False
    zero_row = tdi_oracle(ZERO_ROW)
    assert zero_row.verdict is True
    # of the 25 objectives in [-2, 2]^2, those with alpha_2 > 0 have no
    # finite minimum
    assert zero_row.certificate == {"objectives_checked": 15}


def test_tdi_oracle_agrees_with_tdi_check_on_small_matrices():
    fixtures = [
        vertex_clique_matrix(complete_graph(2)),
        vertex_clique_matrix(path_graph(3)),
        vertex_clique_matrix(cycle_graph(4)),
        incidence_matrix(edge_clutter(cycle_graph(3))),
        [(1, 1, 0), (0, 1, 1)],
        [(1, 0), (1, 1), (0, 1)],
    ]
    for A in fixtures:
        cols = A.columns if hasattr(A, "columns") else A
        if len(cols) > 4:
            continue
        assert tdi_check(A).verdict == tdi_oracle(A).verdict


# the graphs on five vertices whose vertex-clique (VC) or edge-incidence
# (EI) matrix needed more than 500,000 objectives and nodes when each
# objective ran a branch-and-bound over a box of y
SEARCH_HEAVY_VC = [
    [(1, 2), (1, 3), (1, 4)], [(1, 2), (1, 3), (1, 4), (1, 5)],
    [(1, 2), (1, 4), (1, 5), (2, 3)], [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4)],
    [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)],
]
SEARCH_HEAVY_EI = SEARCH_HEAVY_VC[1:] + [
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)],
    [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (3, 4)],
    [(1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)],
    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4),
     (3, 5)],
]


def test_tdi_oracle_answers_the_search_heavy_graph_matrices():
    """Each graph here is perfect, so its VC matrix is TDI; an EI matrix is
    TDI exactly when the graph is bipartite.  The oracle's verdict agrees
    with tdi_check's on all of them."""
    matrices = [vertex_clique_matrix(Graph(5, e)) for e in SEARCH_HEAVY_VC]
    matrices += [incidence_matrix(edge_clutter(Graph(5, e)))
                 for e in SEARCH_HEAVY_EI]
    verdicts = [tdi_oracle(A).verdict for A in matrices]
    assert verdicts == [tdi_check(A).verdict for A in matrices]
    assert verdicts.count(True) == 6 + 4


def test_balanced_fixtures():
    assert balanced_check(incidence_matrix(edge_clutter(cycle_graph(4)))).verdict
    r = balanced_check(incidence_matrix(edge_clutter(cycle_graph(3))))
    assert r.verdict is False
    assert (r.witness["rows"], r.witness["columns"]) == ([1, 2, 3], [1, 2, 3])
    assert balanced_check([(1, 0, 0), (0, 1, 0)]).verdict is True
    with pytest.raises(InputError):
        balanced_check([(2, 0)])


def test_balanced_fast_path_agrees_with_submatrix_scan():
    import random
    rng = random.Random(13)
    fixtures = [incidence_matrix(edge_clutter(G))
                for G in with_edges(no_isolated(all_graphs_up_to_iso(5)))]
    for _ in range(30):
        n, q = rng.randint(2, 6), rng.randint(2, 7)
        cols = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(q)]
        cols = [c for c in cols if any(c)]
        if cols:
            fixtures.append(cols)
    for A in fixtures:
        assert balanced_check(A).verdict == balanced_oracle(A).verdict


def test_mfmc_fixtures():
    assert mfmc_check(edge_clutter(cycle_graph(4))).verdict is True
    r = mfmc_check(edge_clutter(cycle_graph(5)))
    assert r.verdict is False
    assert r.witness["packing"]["vertex"] == ("1/2",) * 5
    assert mfmc_check(edge_clutter(complete_graph(2))).verdict is True
    mixed = mfmc_check(Clutter(3, [(1,), (2, 3)]))
    assert mixed.verdict is None and "mixed" in mixed.reason
    k34 = mfmc_check(edge_clutter(complete_bipartite(3, 4)))
    assert k34.verdict is True
    assert k34.certificate["covering_integral_vertices"] == [
        (0, 0, 0, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0, 0)]
    c7 = mfmc_check(edge_clutter(cycle_graph(7)))
    assert c7.verdict is False
    assert c7.witness == {"packing": {"vertex": ("1/2",) * 7},
                          "covering": {"vertex": ("1/2",) * 7}}


def test_mfmc_true_implies_integral_covering_ilp_for_all_ones():
    C = edge_clutter(cycle_graph(4))
    assert mfmc_check(C).verdict is True
    cols = list(incidence_matrix(C).columns)
    rows = [[col[i] for col in cols] for i in range(C.n)]
    relax = solve(make_lp([1] * len(cols), rows, [1] * C.n, [GE] * C.n))
    assert relax.status == OPTIMAL and relax.value.denominator == 1
    assert covering_attains(cols, (1,) * C.n, int(relax.value))[0] is True


def test_cm_height_two_fixtures():
    assert cm_height_two_normal(list(cycle_graph(4).edges)).verdict is True
    two_k2 = list(complement(cycle_graph(4)).edges)
    r = cm_height_two_normal(two_k2)
    assert r.verdict is None and r.witness["chordless_cycle"] == (1, 2, 3, 4)
    assert cm_height_two_normal([(1, 2)]).verdict is True


def test_dual_balanced_fixtures():
    assert dual_balanced_normal(incidence_matrix(edge_clutter(cycle_graph(4)))).verdict is True
    r = dual_balanced_normal(incidence_matrix(edge_clutter(cycle_graph(5))))
    assert r.verdict is None and "not balanced" in r.reason
    with pytest.raises(InputError):
        dual_balanced_normal([(1, 1)])


def _search_oracle(elements, generators, grading=None):
    """semigroup_member on each Hilbert-basis element up to the first
    refusal: (certificates, refused element or None, its answer)."""
    certificates = []
    for element in elements:
        answer = semigroup_member(element, generators, grading=grading)
        if not answer.member:
            return certificates, element, answer
        certificates.append({"element": element,
                             "coefficients": answer.coefficients})
    return certificates, None, None


def test_basis_inclusion_matches_the_membership_search():
    # normality and TDI are decided by Hilbert basis inclusion; the graded
    # membership search must give the same verdicts, certificates and
    # witnesses element by element
    ideals = [cover_ideal(edge_clutter(G)) for G in small_graph_corpus()]
    ideals += [
        [(2, 0), (0, 2)],                                  # non-normal
        [(1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 0),           # triangle clutter
         (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1)],
        [(1, 1, 0), (1, 0, 0), (0, 1, 1)],                 # non-minimal
        [(1, 1, 0), (0, 1, 1), (1, 1, 0)],                 # repeated
        [(2, 0), (0, 2), (2, 0)],                          # both
        [(2, 0), (0, 2), (2, 0), (1, 0)],
    ]
    refused = 0
    for ideal in ideals:
        cone = rees_cone(ideal)
        hb = hilbert_basis(cone)
        grading = (1,) * cone.dim
        certs, miss, answer = _search_oracle(hb.elements, cone.generators,
                                             grading)
        report = is_rees_normal(ideal)
        if miss is None:
            assert report.verdict is True, ideal
            assert report.certificate == {
                "hilbert_basis_size": len(hb.elements),
                "memberships": certs}, ideal
        else:
            refused += 1
            assert report.verdict is False, ideal
            assert report.witness == {"hilbert_basis_element": miss}
            assert report.search_bounds["budget"] == answer.budget
    assert refused == 3

    matrices = [incidence_matrix(edge_clutter(G))
                for G in small_graph_corpus() if G.n <= 4]
    matrices += [incidence_matrix(edge_clutter(cycle_graph(5))),
                 vertex_clique_matrix(cycle_graph(4)),
                 [(2,)], [(1, 0), (-1, 1)], [(2, 1), (1, 2)],
                 [(2, 0), (0, 2)], [(0, 2, 0), (2, 0, 1)]]
    ungenerated = 0
    for A in matrices:
        n, cols = _columns_of(A)
        lifted = [col + (1,) for col in cols]
        lifted += [tuple(-int(i == j) for j in range(n)) + (0,)
                   for i in range(n)]
        hb = hilbert_basis(IntegerCone(n + 1, lifted))
        _, miss, _ = _search_oracle(hb.elements, lifted)
        report = tdi_check(A)
        if report.verdict is False:
            assert report.witness["ungenerated_lattice_point"] == miss, cols
        elif report.verdict is True:
            assert miss is None, cols
        ungenerated += miss is not None
    assert ungenerated == 2
