import random
from fractions import Fraction

import pytest

from covercones import CapExceededError, InputError
from covercones.lp import covering_attains

from corpus import cycle_graph
from oracles import covering_by_scan
from simplex import (EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, make_lp,
                     solve)


def edge_rows(G):
    return [[1 if v in e else 0 for v in range(1, G.n + 1)] for e in G.edges]


def test_simple_bounded_maximum():
    res = solve(make_lp([1, 1], [[1, 1]], [1], [LE], maximize=True))
    assert res.status == OPTIMAL and res.value == 1


def test_single_variable_covering():
    res = solve(make_lp([1], [[1]], [1], [GE]))
    assert res.status == OPTIMAL and res.value == 1 and res.primal == (1,)


def test_pentagon_fractional_packing_value():
    C5 = cycle_graph(5)
    res = solve(make_lp([1] * 5, edge_rows(C5), [1] * 5, [LE] * 5, maximize=True))
    assert res.value == Fraction(5, 2)
    assert res.primal == (Fraction(1, 2),) * 5


def test_one_variable_clique_dual():
    # min y over y >= 0 with the all-ones column covering (1,1,1)
    res = solve(make_lp([1], [[1], [1], [1]], [1, 1, 1], [GE] * 3))
    assert res.value == 1 and res.primal == (1,)


def test_statuses():
    assert solve(make_lp([1], [[1], [1]], [1, 2], [LE, GE])).status == INFEASIBLE
    assert solve(make_lp([1], [[1]], [0], [GE], maximize=True)).status == UNBOUNDED


def test_strong_duality_on_random_instances():
    rng = random.Random(3)
    solved = 0
    for _ in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        lp = make_lp(
            [rng.randint(-3, 3) for _ in range(n)],
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)],
            [rng.randint(-3, 3) for _ in range(m)],
            [rng.choice([LE, GE, EQ]) for _ in range(m)],
            nonneg=[rng.random() < 0.8 for _ in range(n)],
            maximize=rng.random() < 0.5)
        res = solve(lp)  # solve() re-verifies duality internally
        if res.status == OPTIMAL:
            solved += 1
            dual_value = sum(y * b for y, b in zip(res.dual, lp.rhs))
            assert dual_value == res.value
    assert solved > 30


def test_identical_inputs_give_identical_results():
    C5 = cycle_graph(5)
    lp = make_lp([1] * 5, edge_rows(C5), [1] * 5, [LE] * 5, maximize=True)
    first, second = solve(lp), solve(lp)
    assert first == second
    cols = [tuple(r[j] for r in edge_rows(C5)) for j in range(5)]
    assert covering_attains(cols, (1,) * 5, 3) == \
        covering_attains(cols, (1,) * 5, 3)


def test_covering_search_examples():
    assert covering_attains([(1,)], (1,), 1) == (True, 2)
    assert covering_attains([(1,)], (1,), 0) == (False, 1)
    # the pentagon's edges cover its vertices with 3 edges, not with 2,
    # while the covering LP value is 5/2
    C5 = cycle_graph(5)
    rows = edge_rows(C5)
    cols = [tuple(r[j] for r in rows) for j in range(5)]
    assert covering_attains(cols, (1,) * 5, 3)[0] is True
    assert covering_attains(cols, (1,) * 5, 2)[0] is False
    assert solve(make_lp([1] * 5, [list(c) for c in cols], [1] * 5,
                         [GE] * 5)).value == Fraction(5, 2)
    # no column is positive on the second row: nothing covers it
    assert covering_attains([(1, 0), (1, -1)], (0, 1), 5)[0] is False
    # (4,) first fails with one unit left, below (5,); reached again with
    # two units left, it is met by two units of the column (2,)
    assert covering_attains([(1,), (2,), (1,)], (6,), 3)[0] is True
    # objectives met by y = 0 need no units
    assert covering_attains([(2, -1)], (0, -2), 0) == (True, 1)


def test_covering_search_stops_past_its_node_budget(monkeypatch):
    from covercones import errors
    cols = [(1,)] * 5
    found, nodes = covering_attains(cols, (3,), 3)
    assert found and nodes > 1
    monkeypatch.setattr(errors, "SEARCH_BUDGET", nodes - 1)
    with pytest.raises(CapExceededError, match="covering search exceeded "
                       f"its budget of {nodes - 1} nodes"):
        covering_attains(cols, (3,), 3)


def test_programs_take_integer_data_only():
    with pytest.raises(InputError):
        make_lp([Fraction(1, 2)], [[1]], [1], [GE])
    assert make_lp([Fraction(2)], [[1]], [1], [GE]).objective == (2,)


def test_covering_search_never_beats_the_lp():
    """No integral y costs less than the covering LP value: the search
    finds none within one unit below the simplex's optimum."""
    rng = random.Random(11)
    compared = 0
    for _ in range(40):
        n, q = rng.randint(1, 3), rng.randint(1, 3)
        cols = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(q)]
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        relax = solve(make_lp([1] * q, [[c[i] for c in cols]
                                        for i in range(n)], alpha, [GE] * n))
        if relax.status == OPTIMAL:
            below = -(-relax.value.numerator // relax.value.denominator) - 1
            if below >= 0:
                assert covering_attains(cols, alpha, below)[0] is False
                compared += 1
    assert compared > 10


def test_covering_attains_matches_brute_force():
    rng = random.Random(19)
    answers = {True: 0, False: 0}
    for _ in range(1000):
        n, q = rng.randint(1, 3), rng.randint(1, 4)
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(q)]
        total = rng.randint(0, 4)
        # up to twice the units: some objectives need every unit at its
        # largest entry
        alpha = tuple(rng.randint(-2, 2 * total + 1) for _ in range(n))
        found, nodes = covering_attains(cols, alpha, total)
        assert found == covering_by_scan(cols, alpha, total), \
            (cols, alpha, total)
        assert nodes >= 1
        answers[found] += 1
    assert answers[True] >= 100 and answers[False] >= 100, answers
