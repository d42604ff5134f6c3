import random
from fractions import Fraction

import pytest

from covercones import CapExceededError, InputError, make_lp, solve_ilp_bounded
from covercones.lp import EQ, GE, INFEASIBLE, LE, OPTIMAL

from corpus import cycle_graph
from simplex import UNBOUNDED, solve


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
    assert solve_ilp_bounded(lp, [(0, 2)] * 5) == solve_ilp_bounded(lp, [(0, 2)] * 5)


def test_bounded_ilp_examples():
    res = solve_ilp_bounded(make_lp([1], [[1]], [1], [GE]), [(0, 3)])
    assert res.value == 1 and res.point == (1,)

    C5 = cycle_graph(5)
    cover_rows = [[1 if v in e else 0 for e in C5.edges] for v in range(1, 6)]
    lp = make_lp([1] * 5, cover_rows, [1] * 5, [GE] * 5)
    res = solve_ilp_bounded(lp, [(0, 3)] * 5)
    assert res.value == 3 and solve(lp).value == Fraction(5, 2)

    infeasible = make_lp([1], [[1], [-1]], [2, 0], [GE, GE])
    assert solve_ilp_bounded(infeasible, [(0, 1)]).status == INFEASIBLE


def test_branch_and_bound_stops_past_its_node_budget(monkeypatch):
    from covercones import lp
    prog = make_lp([1] * 5, [[1] * 5], [3], [GE])
    res = solve_ilp_bounded(prog, [(0, 3)] * 5)
    assert res.status == OPTIMAL and res.value == 3 and res.nodes > 1
    monkeypatch.setattr(lp, "NODE_BUDGET", res.nodes - 1)
    with pytest.raises(CapExceededError,
                       match=f"budget of {res.nodes - 1} nodes"):
        solve_ilp_bounded(prog, [(0, 3)] * 5)


def test_ilp_rejects_empty_box():
    with pytest.raises(InputError):
        solve_ilp_bounded(make_lp([1], [[1]], [1], [GE]), [(2, 1)])


def test_programs_take_integer_data_only():
    with pytest.raises(InputError):
        make_lp([Fraction(1, 2)], [[1]], [1], [GE])
    assert make_lp([Fraction(2)], [[1]], [1], [GE]).objective == (2,)


def test_ilp_never_beats_lp_on_minimization():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        lp = make_lp(
            [rng.randint(0, 3) for _ in range(n)],
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)],
            [rng.randint(0, 3) for _ in range(m)],
            [GE] * m)
        res = solve_ilp_bounded(lp, [(0, 4)] * n)
        relax = solve(lp)
        if res.status == OPTIMAL and relax.status == OPTIMAL:
            assert res.value >= relax.value
