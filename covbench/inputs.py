"""Workload inputs: named graphs, seeded random graphs, the six-vertex sweep.

Everything here is plain Python and independent of covercones.  A graph is
a pair (n, edges) with vertices 1..n and edges as sorted pairs.  An item is
one input document run through a fixed list of commands; its time is the
sum of those calls.  Inputs depend only on the workload name and the seed.
"""

import random
from dataclasses import dataclass
from itertools import combinations, permutations

import oracles


def _graph(n, edges):
    return n, tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def cycle(n):
    return _graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path(n):
    return _graph(n, [(i, i + 1) for i in range(1, n)])


def complete(n):
    return _graph(n, combinations(range(1, n + 1), 2))


def complete_bipartite(a, b):
    return _graph(a + b, [(i, a + j) for i in range(1, a + 1)
                          for j in range(1, b + 1)])


def complement(graph):
    n, edges = graph
    present = set(edges)
    return _graph(n, [p for p in combinations(range(1, n + 1), 2)
                      if p not in present])


def random_graph(rng, n, m):
    """Uniform graph on n vertices with m edges and no isolated vertex."""
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = rng.sample(pairs, m)
        if len({v for e in edges for v in e}) == n:
            return _graph(n, edges)


def random_bipartite(rng, a, b, m):
    """Graph with parts 1..a and a+1..a+b, m edges, no isolated vertex."""
    pairs = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    while True:
        edges = rng.sample(pairs, m)
        if len({v for e in edges for v in e}) == a + b:
            return _graph(a + b, edges)


def relabel(rng, graph):
    """An isomorphic copy under a seeded permutation of the vertices."""
    n, edges = graph
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return _graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


def six_vertex_graphs():
    """One representative of every isomorphism class of graphs on six
    vertices without isolated vertices (OEIS A002494: 122 classes).

    Graphs are 15-bit edge masks; each unseen mask's whole orbit under the
    720 vertex permutations is marked, so every class is met exactly once.
    """
    n = 6
    pairs = list(combinations(range(1, n + 1), 2))
    index = {p: i for i, p in enumerate(pairs)}
    images = [[1 << index[tuple(sorted((perm[u - 1], perm[v - 1])))]
               for u, v in pairs]
              for perm in permutations(range(1, n + 1))]
    full = (1 << n) - 1
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        for image in images:
            m = 0
            for i in bits:
                m |= image[i]
            seen[m] = 1
        touched = 0
        for i in bits:
            u, v = pairs[i]
            touched |= 1 << (u - 1) | 1 << (v - 1)
        if touched == full:
            out.append(_graph(n, [pairs[i] for i in bits]))
    if len(out) != 122:
        raise AssertionError(f"expected 122 six-vertex classes, got {len(out)}")
    return out


# --- input documents ------------------------------------------------------

def graph_text(graph):
    n, edges = graph
    return "graph { " + " ".join(f"{u}-{v}" for u, v in edges) + " }\n"


def clutter_text(graph):
    n, edges = graph
    return "clutter { " + " ".join(f"{{{u},{v}}}" for u, v in edges) + " }\n"


def matrix_text(graph):
    """Vertex-by-edge incidence matrix: rows are vertices."""
    n, edges = graph
    rows = [" ".join("1" if v in e else "0" for e in edges)
            for v in range(1, n + 1)]
    return "matrix { " + " ; ".join(rows) + " }\n"


@dataclass(frozen=True)
class Call:
    command: str          # the covercones command
    flags: tuple          # extra CLI flags after "--json"
    text: str             # the input document, fed on stdin


@dataclass(frozen=True)
class Item:
    name: str
    graph: tuple          # (n, edges): what the checks reason about
    calls: tuple          # Call objects, timed together


def _item(label, graph, commands, encode=graph_text):
    calls = tuple(Call(cmd[0], tuple(cmd[1:]), encode(graph))
                  for cmd in commands)
    return Item(f"{label}:{'+'.join(c[0] for c in commands)}", graph, calls)


# --- the four workloads ---------------------------------------------------

NORMAL = ("check-normal",)
# the default box 1..n takes 2.3-2.9 s on K33; the box 1..4 still finds
# C5's witness
GORENSTEIN = ("check-gorenstein", "--scan-bound", "4")
REES_HB = ("hilbert-basis", "--cone", "rees")
SIMIS_HB = ("hilbert-basis",)
SIMIS_CONE = ("simis-cone",)
SYMBOLIC = ("symbolic-gens",)


def random_graph_with(rng, n, m, accept):
    """random_graph(rng, n, m) drawn again until accept(graph) holds."""
    while True:
        graph = random_graph(rng, n, m)
        if accept(graph):
            return graph


def _cover_count(k):
    return lambda graph: len(oracles.Reference(graph).minimal_covers) == k


def _perfect(graph):
    return oracles.Reference(graph).perfect_by_subset_scan


def wheel(k):
    """The cycle C_k with a hub k + 1 joined to every cycle vertex."""
    _, edges = cycle(k)
    return _graph(k + 1, list(edges) + [(i, k + 1) for i in range(1, k + 1)])


def pendants(graph, *anchors):
    """graph with one new leaf attached to each anchor vertex."""
    n, edges = graph
    return _graph(n + len(anchors),
                  list(edges) + [(a, n + k) for k, a in enumerate(anchors, 1)])


def rees_items(rng):
    # Graphs with light calls run them all as one item; the heavier Rees
    # computations are items of their own.  Left out, each more than a
    # tenth of a pass: check-normal on C7, C7bar and C8, and C9.
    small = [("C4", cycle(4)), ("P4", path(4)), ("K4", complete(4)),
             ("C5", cycle(5)), ("K33", complete_bipartite(3, 3))]
    items = [_item(label, g, [NORMAL, REES_HB, GORENSTEIN]) for label, g in small]
    for label, g in [("C6", cycle(6)), ("P6", path(6)), ("C5p", pendants(cycle(5), 1))]:
        items.append(_item(label, g, [NORMAL, REES_HB]))
    for label, g in [("C5pp", pendants(cycle(5), 1, 3)), ("W5", wheel(5))]:
        items.append(_item(label, g, [NORMAL]))
    for label, g in [("C7", cycle(7)), ("C7bar", complement(cycle(7))),
                     ("P7", path(7)), ("P8", path(8)), ("C8", cycle(8)),
                     ("C5pp", pendants(cycle(5), 1, 3)), ("W5", wheel(5))]:
        items.append(_item(label, g, [REES_HB]))
    items.append(_item("K5", complete(5), [GORENSTEIN]))
    # seeded random graphs of fixed size and cover count, which sets the
    # number of lift generators and so much of the cost
    for k in range(2):
        g = random_graph_with(rng, 7, 9, _cover_count(4))
        items.append(_item(f"R7{'ab'[k]}", g, [NORMAL, REES_HB]))
    items.append(_item("R8", random_graph_with(rng, 8, 9, _cover_count(5)),
                       [REES_HB]))
    return items


def _simis_commands(graph):
    """symbolic-gens runs on perfect graphs only; it refuses the others."""
    if _perfect(graph):
        return [SIMIS_HB, SIMIS_CONE, SYMBOLIC]
    return [SIMIS_HB, SIMIS_CONE]


def simis_items(rng):
    # Left out, each more than a tenth of a pass: C9 and C7bar (about a
    # second each), C8, P8 and C7 with a pendant (0.3-0.37 s)
    named = [("C5", cycle(5)), ("C7", cycle(7)), ("C5p", pendants(cycle(5), 1)),
             ("C5pp", pendants(cycle(5), 1, 3)), ("K4", complete(4)),
             ("K5", complete(5)), ("K24", complete_bipartite(2, 4)),
             ("K33", complete_bipartite(3, 3)), ("K34", complete_bipartite(3, 4)),
             ("C6", cycle(6)), ("P7", path(7))]
    # random graphs with n = 6, 8 edges and 5 minimal covers; the perfect
    # ones also have at most 17 cliques.  Each takes 0.1-0.15 s, while
    # unconstrained random graphs with n = 7 spread from 0.2 to 0.7 s.
    def imperfect(g):
        return _cover_count(5)(g) and not _perfect(g)

    def perfect(g):
        return (_cover_count(5)(g) and _perfect(g)
                and len(oracles.Reference(g).cliques) <= 17)

    randoms = [(f"R6p{k}", random_graph_with(rng, 6, 8, perfect)) for k in range(5)]
    randoms += [(f"R6i{k}", random_graph_with(rng, 6, 8, imperfect)) for k in range(5)]
    return [_item(label, g, _simis_commands(g)) for label, g in named + randoms]


def polyhedra_items(rng):
    # C6, C7, P7 and K15 are left out: one command on each takes from
    # 0.3 s to over a second, more than a tenth of a pass
    named = [("C3", cycle(3)), ("C4", cycle(4)), ("C5", cycle(5)),
             ("K4", complete(4)), ("P5", path(5)), ("P6", path(6)),
             ("K14", complete_bipartite(1, 4)), ("K23", complete_bipartite(2, 3)),
             ("C4p", pendants(cycle(4), 1))]
    randoms = [("B0", relabel(rng, random_bipartite(rng, 3, 2, 5)))]
    items = []
    for label, g in named + randoms:
        items.append(_item(label, g, [("check-mfmc",)], clutter_text))
        items.append(_item(label, g, [("check-tdi",)], matrix_text))
    return items


def sweep_items(rng):
    items = []
    for k, g in enumerate(six_vertex_graphs()):
        g = relabel(rng, g)
        items.append(_item(f"G{k:03d}", g, [("check-perfect",), ("covers",),
                                            ("cliques",)]))
    return items


WORKLOADS = {
    "rees": rees_items,
    "simis": simis_items,
    "polyhedra": polyhedra_items,
    "sweep": sweep_items,
}


def build(workload, seed):
    """The workload's item list for a seed, in a seeded interleaving."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items
