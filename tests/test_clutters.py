import random

import pytest

from covercones import (Clutter, Graph, InputError, all_cliques, blocker,
                        clique_equalization, complement, cover_ideal,
                        dual_ideal, edge_clutter, incidence_matrix,
                        is_unmixed, maximal_cliques, minimal_vertex_covers,
                        vertex_clique_matrix)
from covercones.errors import CapExceededError

from corpus import (all_graphs_up_to_iso, complete_graph, cycle_graph,
                    path_graph, paw_graph, with_edges)
from oracles import (DegenerateMinorError, brute_all_cliques,
                     brute_chromatic_number, brute_clique_number,
                     brute_is_perfect, brute_maximal_cliques,
                     brute_minimal_covers, chromatic_number, clique_number,
                     contraction, cover_ideal_of_complement, deletion,
                     is_perfect_definitional, maximal_independent_sets)


def test_graph_construction_rejects_loops_and_range():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(1, 4)])


def test_clutter_strict_mode_rejects_comparable_edges():
    with pytest.raises(InputError):
        Clutter(3, [(1, 2), (1, 2, 3)])
    c = Clutter(3, [(1, 2), (1, 2, 3)], minimalize=True)
    assert c.edges == ((1, 2),)


def test_clutter_rejects_empty_edge():
    with pytest.raises(InputError):
        Clutter(3, [()])


def test_edge_clutter_examples():
    assert edge_clutter(complete_graph(2)).edges == ((1, 2),)
    assert edge_clutter(cycle_graph(5)).edges == (
        (1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert edge_clutter(complete_graph(3)).edges == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(InputError):
        edge_clutter(Graph(3, []))


def test_complement_examples():
    assert complement(complete_graph(3)).edges == ()
    c5 = cycle_graph(5)
    assert sorted(complement(c5).edges) == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def test_complement_is_an_involution_small():
    for n in range(1, 6):
        for G in all_graphs_up_to_iso(n):
            assert complement(complement(G)) == G


def test_maximal_cliques_against_subset_scan():
    assert maximal_cliques(complete_graph(3)) == [(1, 2, 3)]
    assert maximal_cliques(path_graph(3)) == [(1, 2), (2, 3)]
    assert maximal_cliques(cycle_graph(5)) == list(cycle_graph(5).edges)
    for n in range(1, 6):
        for G in all_graphs_up_to_iso(n):
            assert maximal_cliques(G) == brute_maximal_cliques(G)


def test_all_cliques_against_subset_scan():
    assert all_cliques(complete_graph(2)) == [(1,), (1, 2), (2,)]
    assert len(all_cliques(complete_graph(3))) == 7
    assert len(all_cliques(cycle_graph(5))) == 10
    for n in range(1, 6):
        for G in all_graphs_up_to_iso(n):
            assert all_cliques(G) == brute_all_cliques(G)


def test_minimal_vertex_covers_examples_and_oracle():
    assert minimal_vertex_covers(edge_clutter(cycle_graph(5))) == [
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    assert minimal_vertex_covers(edge_clutter(complete_graph(2))) == [(1,), (2,)]
    assert minimal_vertex_covers(edge_clutter(cycle_graph(4))) == [(1, 3), (2, 4)]
    for n in range(2, 6):
        for G in with_edges(all_graphs_up_to_iso(n)):
            C = edge_clutter(G)
            assert minimal_vertex_covers(C) == brute_minimal_covers(C)


def _random_clutter(rng, n):
    edges = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, n)
        edges.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return Clutter(n, edges, minimalize=True)


def test_blocker_duality():
    assert blocker(edge_clutter(complete_graph(2))).edges == ((1,), (2,))
    # exhaustive on <= 5 vertices via graphs, then random clutters on 6..7
    for n in range(2, 6):
        for G in with_edges(all_graphs_up_to_iso(n)):
            C = edge_clutter(G)
            assert blocker(blocker(C)) == C
    rng = random.Random(7)
    for _ in range(200):
        C = _random_clutter(rng, rng.choice([6, 7]))
        assert blocker(blocker(C)) == C


def test_cover_independence_duality():
    assert maximal_independent_sets(cycle_graph(4)) == [(1, 3), (2, 4)]
    assert maximal_independent_sets(complete_graph(3)) == [(1,), (2,), (3,)]
    for n in range(2, 7):
        for G in with_edges(all_graphs_up_to_iso(n)):
            full = set(range(1, n + 1))
            covers = {tuple(sorted(full - set(s)))
                      for s in maximal_independent_sets(G)}
            assert covers == set(minimal_vertex_covers(edge_clutter(G)))
            # the direct route: maximal cliques of the complement
            assert maximal_independent_sets(G) == \
                maximal_cliques(complement(G))


def test_cover_ideal_examples():
    assert cover_ideal(edge_clutter(complete_graph(2))) == [(0, 1), (1, 0)]
    assert cover_ideal(edge_clutter(cycle_graph(4))) == [(0, 1, 0, 1), (1, 0, 1, 0)]
    c5 = cover_ideal(edge_clutter(cycle_graph(5)))
    assert all(sum(v) == 3 and set(v) <= {0, 1} for v in c5) and len(c5) == 5


def test_cover_ideal_of_complement_agrees_with_cover_route():
    assert cover_ideal_of_complement(path_graph(3)) == [(0, 0, 1), (1, 0, 0)]
    assert cover_ideal_of_complement(cycle_graph(4)) == [
        (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]
    with pytest.raises(InputError):
        cover_ideal_of_complement(complete_graph(3))
    for n in range(2, 7):
        for G in all_graphs_up_to_iso(n):
            Gc = complement(G)
            if not Gc.edges:
                continue
            assert cover_ideal_of_complement(G) == cover_ideal(edge_clutter(Gc))


def test_dual_ideal_examples():
    edges_c4 = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    dual = dual_ideal(edges_c4)
    assert dual == [(0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]
    assert dual_ideal(dual_ideal(edges_c4)) == sorted(edges_c4)
    with pytest.raises(InputError):
        dual_ideal([(1, 1, 1)])
    with pytest.raises(InputError):
        dual_ideal([(2, 0)])


def test_contraction_and_deletion():
    C = Clutter(3, [(1, 2), (2, 3)])
    contracted, idx = contraction(C, 2)
    assert contracted.edges == ((1,), (2,)) and idx == {1: 1, 3: 2}
    deleted, _ = deletion(C, 2)
    assert deleted.edges == ()
    with pytest.raises(DegenerateMinorError):
        contraction(Clutter(2, [(1,), (1, 2)], minimalize=True), 1)


def test_clique_equalization_paw():
    H, added = clique_equalization(paw_graph())
    assert added == [5]
    assert maximal_cliques(H) == [(1, 2, 3), (3, 4, 5)]
    cl_H = Clutter(H.n, maximal_cliques(H))
    contracted, _ = contraction(cl_H, 5)
    assert contracted == Clutter(4, maximal_cliques(paw_graph()))


def test_clique_equalization_fixed_points():
    for G in [path_graph(3), cycle_graph(4), complete_graph(4)]:
        H, added = clique_equalization(G)
        assert H == G and added == []


def test_clique_equalization_contracts_back_on_small_graphs():
    fixtures = [paw_graph(),
                Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]),
                Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4), ])]
    for G in fixtures:
        H, added = clique_equalization(G)
        sizes = {len(c) for c in maximal_cliques(H)}
        assert len(sizes) == 1
        cl = Clutter(H.n, maximal_cliques(H))
        for z in reversed(added):
            cl, _ = contraction(cl, z)
        assert cl == Clutter(G.n, maximal_cliques(G))


def test_is_unmixed():
    assert is_unmixed(edge_clutter(cycle_graph(4)))
    assert not is_unmixed(edge_clutter(path_graph(3)))
    for n in range(2, 6):
        assert is_unmixed(edge_clutter(complete_graph(n)))


def test_chromatic_and_clique_numbers():
    assert (chromatic_number(cycle_graph(5)), clique_number(cycle_graph(5))) == (3, 2)
    assert (chromatic_number(complete_graph(4)), clique_number(complete_graph(4))) == (4, 4)
    assert (chromatic_number(cycle_graph(4)), clique_number(cycle_graph(4))) == (2, 2)
    for n in range(1, 6):
        for G in all_graphs_up_to_iso(n):
            assert chromatic_number(G) == brute_chromatic_number(G)
            assert clique_number(G) == brute_clique_number(G)
            assert chromatic_number(G) >= clique_number(G)


def test_enumerations_stop_past_their_budget(monkeypatch):
    from covercones import errors
    K6 = complete_graph(6)
    matching = Graph(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    enumerations = {"clique enumeration": lambda: all_cliques(K6),
                    "maximal clique search":
                        lambda: maximal_cliques(complement(matching)),
                    "minimal cover expansion":
                        lambda: minimal_vertex_covers(edge_clutter(matching))}
    assert [len(run()) for run in enumerations.values()] == [63, 16, 16]
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 20)
    for what, run in enumerations.items():
        with pytest.raises(CapExceededError,
                           match=f"{what} exceeded its budget of 20 nodes"):
            run()


def test_perfection_oracle_examples():
    r = is_perfect_definitional(cycle_graph(5))
    assert r.verdict is False and r.witness["subset"] == (1, 2, 3, 4, 5)
    assert is_perfect_definitional(complete_graph(4)).verdict is True
    assert is_perfect_definitional(cycle_graph(4)).verdict is True
    with pytest.raises(CapExceededError):
        is_perfect_definitional(complete_graph(5), cap=4)


def test_perfection_matches_brute_force_and_is_complement_invariant():
    for n in range(1, 6):
        for G in all_graphs_up_to_iso(n):
            mine = is_perfect_definitional(G).verdict
            assert mine == brute_is_perfect(G)
            assert mine == is_perfect_definitional(complement(G)).verdict
    for G in all_graphs_up_to_iso(6):
        assert (is_perfect_definitional(G).verdict
                == is_perfect_definitional(complement(G)).verdict)


def test_incidence_and_vertex_clique_matrices():
    assert incidence_matrix(edge_clutter(complete_graph(2))).columns == ((1, 1),)
    assert vertex_clique_matrix(complete_graph(3)).columns == ((1, 1, 1),)
    assert vertex_clique_matrix(path_graph(3)).columns == ((1, 1, 0), (0, 1, 1))
