"""End-to-end verification suite.

Each test prints one PASS/FAIL line.  Everything is exact arithmetic, so
every comparison below is exact equality; the only numeric bounds are
wall-clock budgets and the recorded search boxes of the bounded oracles.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations

from covercones import (IntegerCone, balanced_check,
                        clique_halfspaces, clique_lift_set,
                        cover_ideal, dual_balanced_normal,
                        edge_clutter, gorenstein_check, hilbert_basis,
                        incidence_matrix,
                        is_rees_normal, is_unmixed,
                        is_chordal, complement, mfmc_check,
                        perfect_matrix_check, perfect_via_rees_cone,
                        rees_cone, simis_hilbert_basis,
                        tdi_check, vertex_clique_matrix)
from covercones.cli import main

from corpus import (all_graphs_up_to_iso, complete_bipartite, complete_graph,
                    cycle_graph, is_bipartite, no_isolated,
                    random_six_vertex_corpus, small_graph_corpus, with_edges)
from oracles import (balanced_oracle, brute_hilbert_basis, cone_membership_lp,
                     irredundancy_witnesses, is_perfect_definitional,
                     tdi_oracle)


@contextmanager
def criterion(name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name} ({time.monotonic() - started:.1f}s)")


def edge_ideal(G):
    return [tuple(1 if v in e else 0 for v in range(1, G.n + 1))
            for e in G.edges]


_corpus_cache = {}


def corpus():
    """All graphs on 2..5 vertices with edges and no isolated vertices,
    plus 100 seeded random 6-vertex graphs (distinct up to isomorphism)."""
    if "graphs" not in _corpus_cache:
        _corpus_cache["graphs"] = small_graph_corpus() + random_six_vertex_corpus()
        _corpus_cache["perfect"] = [
            G for G in _corpus_cache["graphs"]
            if is_perfect_definitional(G).verdict]
    return _corpus_cache["graphs"], _corpus_cache["perfect"]


def test_pentagon_imperfect_but_cover_ideal_normal(tmp_path, capsys):
    with criterion("pentagon: imperfect, cover ideal normal, under 5s"):
        started = time.monotonic()
        path = tmp_path / "c5.graph"
        path.write_text("graph { a-b b-c c-d d-e e-a }\n", encoding="utf-8")

        assert main(["check-perfect", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["primary_verdict"] is False
        cone_check, hole_check = report["results"]
        assert cone_check["witness"]["non_clique_facets"] == [[1, 1, 1, 1, 1, -3]]
        assert hole_check["witness"] == {"odd_hole": [1, 2, 3, 4, 5]}

        assert main(["check-normal", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["primary_verdict"] is True
        memberships = report["results"][1]["certificate"]["memberships"]
        assert len(memberships) == report["results"][1]["certificate"][
            "hilbert_basis_size"]
        assert time.monotonic() - started < 5.0


def test_cone_perfection_equals_definitional_oracle():
    with criterion("cone perfection matches the definitional oracle, under 3min"):
        started = time.monotonic()
        graphs, _ = corpus()
        assert len(graphs) == 133
        for G in graphs:
            cone = perfect_via_rees_cone(G)
            oracle = is_perfect_definitional(G)
            assert cone.verdict == oracle.verdict, G
        assert time.monotonic() - started < 180.0


def test_clique_inequalities_are_exactly_the_facets_for_perfect_graphs():
    with criterion("facets of perfect cover cones are the clique inequalities"):
        _, perfect = corpus()
        for G in perfect:
            model = rees_cone(cover_ideal(edge_clutter(G)))
            facets = set(model.cone.facets)
            cliques = set(clique_halfspaces(G))
            assert facets == cliques, G


def test_simis_basis_is_the_clique_set_for_perfect_graphs():
    with criterion("symbolic bases of perfect graphs are the clique lifts, under 5min"):
        started = time.monotonic()
        _, perfect = corpus()
        for G in perfect:
            hb = simis_hilbert_basis(edge_ideal(G))
            cliques = {m.exponents + (m.t_degree,) for m in clique_lift_set(G)}
            assert set(hb.elements) == cliques, G
        # complete graphs: every square-free monomial, t-degree = degree - 1
        for n in range(2, 6):
            hb = simis_hilbert_basis(edge_ideal(complete_graph(n)))
            expected = set()
            for size in range(1, n + 1):
                for support in combinations(range(n), size):
                    vec = tuple(1 if i in support else 0 for i in range(n))
                    expected.add(vec + (size - 1,))
            assert set(hb.elements) == expected
        # imperfect graphs keep the containment but lose the equality
        graphs, perfect = corpus()
        strict_seen = False
        for G in graphs:
            if G in perfect:
                continue
            hb = set(simis_hilbert_basis(edge_ideal(G)).elements)
            cliques = {m.exponents + (m.t_degree,) for m in clique_lift_set(G)}
            assert cliques <= hb, G
            strict_seen = strict_seen or cliques < hb
        assert strict_seen  # the pentagon at least
        assert time.monotonic() - started < 300.0


def test_cover_ideals_of_perfect_graphs_are_normal():
    with criterion("cover ideals of perfect graphs have normal blowups"):
        _, perfect = corpus()
        for G in perfect:
            report = is_rees_normal(cover_ideal(edge_clutter(G)))
            assert report.verdict is True, G
            memberships = report.certificate["memberships"]
            assert len(memberships) == report.certificate["hilbert_basis_size"]
            model = rees_cone(cover_ideal(edge_clutter(G)))
            for entry in memberships:
                combo = [0] * (model.cone.dim)
                for coeff, gen in zip(entry["coefficients"], model.lift_set):
                    for i, x in enumerate(gen):
                        combo[i] += coeff * x
                assert tuple(combo) == tuple(entry["element"])


def test_gorenstein_for_perfect_unmixed_graphs():
    with criterion("perfect unmixed cover blowups are Gorenstein"):
        _, perfect = corpus()
        named = [cycle_graph(4), complete_graph(2), complete_graph(3),
                 complete_graph(4), complete_graph(5), complete_graph(6),
                 complete_bipartite(2, 2), complete_bipartite(3, 3)]
        seen = set()
        todo = []
        for G in named + perfect:
            if is_unmixed(edge_clutter(G)) and G not in seen:
                seen.add(G)
                todo.append(G)
        assert len(todo) >= 10
        for G in todo:
            report = gorenstein_check(G)
            assert report.verdict is True, G
            assert report.certificate["canonical_generator"] == \
                "".join(f"x{i}" for i in range(1, G.n + 1)) + " t"
            assert report.search_bounds["scan_bound"] == G.n


def test_tdi_perfect_matrix_and_definitional_perfection_agree():
    with criterion("TDI, perfect-matrix and definitional perfection coincide"):
        graphs = []
        for n in range(1, 6):
            graphs.extend(all_graphs_up_to_iso(n))
        assert len(graphs) == 52
        for G in graphs:
            A = vertex_clique_matrix(G)
            tdi = tdi_check(A)
            pm = perfect_matrix_check(A)
            oracle = is_perfect_definitional(G)
            assert tdi.verdict == pm.verdict == oracle.verdict, G
        # bounded definitional oracle on the small-column fixtures
        small = [vertex_clique_matrix(G)
                 for n in range(1, 5) for G in all_graphs_up_to_iso(n)]
        small = [A for A in small if A.q <= 4]
        extra = [incidence_matrix(edge_clutter(cycle_graph(3))),
                 [(2,)], [(1, 1, 0), (0, 1, 1)]]
        for A in small + extra:
            report = tdi_oracle(A)
            assert report.search_bounds["alpha_box"][0] == -2
            assert report.verdict == tdi_check(A).verdict, A


BALANCED_FIXTURES = None


def _balanced_fixtures():
    """20 balanced 0/1 matrices: bipartite edge incidences and
    consecutive-ones (interval) matrices with at most 7 columns."""
    global BALANCED_FIXTURES
    if BALANCED_FIXTURES is not None:
        return BALANCED_FIXTURES
    fixtures = []
    bip = [G for n in range(2, 7) for G in
           with_edges(no_isolated(all_graphs_up_to_iso(n)))
           if is_bipartite(G)]
    for G in bip:
        A = incidence_matrix(edge_clutter(G))
        # a column covering every vertex would dualize to the zero exponent
        if A.q <= 7 and all(sum(col) < A.n for col in A.columns):
            fixtures.append(A.columns)
        if len(fixtures) == 14:
            break
    rng = random.Random(2)
    while len(fixtures) < 20:
        n = rng.randint(3, 6)
        cols = []
        for _ in range(rng.randint(2, 7)):
            a = rng.randint(1, n)
            b = rng.randint(a, n)
            cols.append(tuple(1 if a <= i <= b else 0 for i in range(1, n + 1)))
        if any(sum(c) == n for c in cols):
            continue  # keep the complemented columns non-zero
        fixtures.append(tuple(cols))
    BALANCED_FIXTURES = fixtures
    return fixtures


def test_balanced_fixtures_have_normal_dual_ideals():
    with criterion("balanced fixtures: dual ideals normal, scan agrees"):
        fixtures = _balanced_fixtures()
        assert len(fixtures) == 20
        for cols in fixtures:
            fast = balanced_check(cols)
            assert fast.verdict is True, cols
            report = dual_balanced_normal(cols)
            assert report.verdict is True, cols


def test_balanced_fast_path_agrees_with_submatrix_scan_everywhere():
    with criterion("balancedness fast path equals the submatrix scan"):
        fixtures = list(_balanced_fixtures())
        fixtures.append(incidence_matrix(edge_clutter(cycle_graph(3))).columns)
        fixtures.append(incidence_matrix(edge_clutter(cycle_graph(5))).columns)
        rng = random.Random(4)
        for _ in range(20):
            n, q = rng.randint(2, 6), rng.randint(2, 7)
            cols = [tuple(rng.randint(0, 1) for _ in range(n))
                    for _ in range(q)]
            cols = [c for c in cols if any(c)]
            if cols:
                fixtures.append(tuple(cols))
        for cols in fixtures:
            assert balanced_check(cols).verdict == \
                balanced_oracle(cols).verdict, cols


def test_mfmc_for_bipartite_edge_clutters_and_pentagon():
    with criterion("max-flow min-cut holds for bipartite edge clutters, fails for the pentagon"):
        bip = [G for n in range(2, 7) for G in
               with_edges(no_isolated(all_graphs_up_to_iso(n)))
               if is_bipartite(G)]
        assert len(bip) >= 30
        for G in bip:
            report = mfmc_check(edge_clutter(G))
            assert report.verdict is True, G
        report = mfmc_check(edge_clutter(cycle_graph(5)))
        assert report.verdict is False
        assert report.witness["packing"]["vertex"] == ("1/2",) * 5
        assert report.witness["covering"]["vertex"] == ("1/2",) * 5


def test_hilbert_basis_and_facets_against_brute_force():
    with criterion("random cones: Hilbert bases match the lattice scan, facets LP-irredundant, under 5min"):
        started = time.monotonic()
        rng = random.Random(20260811)
        done = 0
        while done < 100:
            dim = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(dim))
                    for _ in range(rng.randint(2, 6))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            done += 1
            cone = IntegerCone(dim, gens)
            hb = hilbert_basis(cone)
            scanned = brute_hilbert_basis(gens, box_hi=6)
            assert [e for e in hb.elements if max(e) <= 6] == scanned
            for e in hb.elements:
                assert cone_membership_lp(gens, e)
            witnesses, bad = irredundancy_witnesses(cone.dim, cone.facets)
            assert bad is None
        assert time.monotonic() - started < 300.0


def test_chordal_complement_cover_ideals_are_normal():
    with criterion("chordal-complement graphs have normal cover blowups"):
        todo = []
        for n in range(2, 7):
            for G in with_edges(all_graphs_up_to_iso(n)):
                if is_chordal(complement(G))[0]:
                    todo.append(G)
        assert len(todo) >= 100
        for G in todo:
            report = is_rees_normal(cover_ideal(edge_clutter(G)))
            assert report.verdict is True, G
