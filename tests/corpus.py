"""Graph corpora and named fixtures shared across the test suite.

Unlabeled graph enumeration works on edge bitmasks: the canonical form of a
graph is the smallest bitmask in its permutation orbit, and orbits are
expanded eagerly so enumeration up to isomorphism stays cheap through n = 6.
"""

import random
from itertools import combinations, permutations

from covercones import Graph

_PAIRS = {n: list(combinations(range(1, n + 1), 2)) for n in range(1, 8)}


def cycle_graph(n):
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph(n, _PAIRS[n])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(1, a + 1)
                         for j in range(1, b + 1)])


def paw_graph():
    return Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def graph_from_mask(n, mask):
    pairs = _PAIRS[n]
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _mask_of_graph(G):
    pairs = _PAIRS[G.n]
    index = {p: i for i, p in enumerate(pairs)}
    mask = 0
    for e in G.edges:
        mask |= 1 << index[e]
    return mask


def _perm_tables(n):
    pairs = _PAIRS[n]
    index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(1, n + 1)):
        tables.append([index[tuple(sorted((perm[u - 1], perm[v - 1])))]
                       for u, v in pairs])
    return tables


def all_graphs_up_to_iso(n):
    """All unlabeled simple graphs on n vertices, canonical representatives."""
    tables = _perm_tables(n)
    m = len(_PAIRS[n])
    seen = set()
    out = []
    for mask in range(1 << m):
        if mask in seen:
            continue
        out.append(graph_from_mask(n, mask))
        for table in tables:
            img = 0
            rest = mask
            while rest:
                low = rest & -rest
                img |= 1 << table[low.bit_length() - 1]
                rest ^= low
            seen.add(img)
    return out


def no_isolated(graphs):
    return [G for G in graphs if not G.isolated_vertices()]


def with_edges(graphs):
    return [G for G in graphs if G.edges]


def small_graph_corpus():
    """All unlabeled graphs on 2..5 vertices with edges and no isolated
    vertices (1 + 2 + 7 + 23 = 33 graphs)."""
    out = []
    for n in range(2, 6):
        out.extend(no_isolated(all_graphs_up_to_iso(n)))
    return out


def random_six_vertex_corpus(count=100, seed=20260811):
    """Deterministic sample of `count` pairwise non-isomorphic 6-vertex
    graphs without isolated vertices."""
    rng = random.Random(seed)
    tables = _perm_tables(6)
    m = len(_PAIRS[6])
    chosen = []
    seen_canonical = set()
    while len(chosen) < count:
        mask = rng.getrandbits(m)
        G = graph_from_mask(6, mask)
        if G.isolated_vertices():
            continue
        canon = min(_remap(mask, table) for table in tables)
        if canon in seen_canonical:
            continue
        seen_canonical.add(canon)
        chosen.append(graph_from_mask(6, canon))
    return chosen


def sampled_graph(seed, n=18, m=40):
    """random.Random(seed) samples m of the vertex pairs of 1..n, again
    until every vertex is used.  With n = 18 and m = 40, seed 1 gives 45
    minimal vertex covers and seed 3 gives 93."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = rng.sample(pairs, m)
        if len({v for e in edges for v in e}) == n:
            return Graph(n, edges)


def _remap(mask, table):
    img = 0
    while mask:
        low = mask & -mask
        img |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return img


def is_bipartite(G):
    color = {}
    for start in range(1, G.n + 1):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in range(1, G.n + 1):
                if G.adjacent(u, v):
                    if v not in color:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return False
    return True
