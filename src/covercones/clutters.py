"""Graphs, clutters, cliques, covers, blockers and their monomial encodings.

Vertices are 1-based indices 1..n.  Vertex subsets are returned as ascending
tuples and subset lists are sorted lexicographically, so every operation is
deterministic and outputs are directly comparable.  Internally subsets live
as integer bitmasks (bit i-1 = vertex i).

A clutter is a hypergraph whose edges form an antichain.  Graphs are the
special case where all edges have two vertices; the edge ideal of a clutter
is the square-free monomial ideal generated by its edge monomials, and the
cover ideal is the edge ideal of the blocker (minimal vertex covers).
"""

from dataclasses import dataclass
from itertools import combinations

from . import errors
from .errors import InputError, spend


def _mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _vertices_of(mask):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class Graph:
    """Simple undirected graph on vertices 1..n (no loops, no multi-edges)."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        adj = [0] * (n + 1)
        seen = set()
        for e in edges:
            u, v = e
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"edge {e} out of range 1..{n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            seen.add((u, v))
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        self.n = n
        self.edges = tuple(sorted(seen))
        self.adj = tuple(adj)

    def adjacent(self, u, v):
        return bool(self.adj[u] >> (v - 1) & 1)

    def degree(self, v):
        return self.adj[v].bit_count()

    def isolated_vertices(self):
        return tuple(v for v in range(1, self.n + 1) if not self.adj[v])

    def induced(self, vertices):
        """Induced subgraph, relabelled 1..k in the order of `vertices`."""
        vs = sorted(vertices)
        idx = {v: i + 1 for i, v in enumerate(vs)}
        edges = [(idx[u], idx[v]) for u, v in self.edges if u in idx and v in idx]
        return Graph(len(vs), edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


class Clutter:
    """An antichain of non-empty vertex subsets of 1..n.

    The strict constructor (default) rejects comparable edges so that no
    input data is ever dropped silently; minimalize=True instead keeps the
    inclusion-minimal edges.  Duplicate edges are merged either way.
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n, edges, minimalize=False):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        masks = []
        for e in edges:
            vs = tuple(sorted(set(e)))
            if not vs:
                raise InputError("empty edge in clutter")
            if vs[0] < 1 or vs[-1] > n:
                raise InputError(f"edge {vs} out of range 1..{n}")
            masks.append(_mask_of(vs))
        masks = sorted(set(masks))
        if minimalize:
            masks = [m for m in masks
                     if not any(o != m and o & m == o for o in masks)]
        else:
            for a, b in combinations(masks, 2):
                if a & b == a or a & b == b:
                    raise InputError(
                        f"comparable edges {_vertices_of(a)} and {_vertices_of(b)}"
                        " (use minimalize=True to drop supersets)")
        self.n = n
        self._masks = tuple(sorted(masks, key=_vertices_of))
        self.edges = tuple(_vertices_of(m) for m in self._masks)

    def masks(self):
        return self._masks

    def __eq__(self, other):
        return isinstance(other, Clutter) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Clutter(n={self.n}, edges={[list(e) for e in self.edges]})"


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 matrix whose j-th column is the incidence vector of edge j."""

    n: int
    columns: tuple

    @property
    def q(self):
        return len(self.columns)


# ---------------------------------------------------------------------------
# clutters from graphs, complements, duality

def edge_clutter(G):
    """The clutter of the edges of G (supports of the edge ideal)."""
    if not G.edges:
        raise InputError("graph has no edges")
    return Clutter(G.n, G.edges)


def complement(G):
    edges = [(u, v) for u, v in combinations(range(1, G.n + 1), 2)
             if not G.adjacent(u, v)]
    return Graph(G.n, edges)


def maximal_cliques(G):
    """All inclusion-maximal cliques (Bron-Kerbosch with pivoting).

    The pivot choice only affects the search order; the returned set is
    sorted canonically and independent of it.  The search raises
    CapExceededError past errors.SEARCH_BUDGET nodes.
    """
    if G.n == 0:
        return []
    adj = G.adj
    full = (1 << G.n) - 1
    out = []
    nodes = 0

    def expand(r, p, x):
        nonlocal nodes
        nodes = spend(nodes, 1, "maximal clique search", "nodes")
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        pivot, best = 0, -1
        for ub in _bits(pool):
            c = (p & adj[ub.bit_length()]).bit_count()
            if c > best:
                best, pivot = c, ub.bit_length()
        for vb in _bits(p & ~adj[pivot]):
            v = vb.bit_length()
            expand(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    expand(0, full, 0)
    return sorted(_vertices_of(m) for m in out)


def all_cliques(G):
    """All non-empty cliques, the empty clique excluded.  The search
    raises CapExceededError past errors.SEARCH_BUDGET nodes, one per clique
    and one for the empty clique."""
    adj = G.adj
    out = []
    nodes = 0

    def grow(mask, cand):
        nonlocal nodes
        nodes = spend(nodes, 1, "clique enumeration", "nodes")
        for vb in _bits(cand):
            v = vb.bit_length()
            m = mask | vb
            out.append(m)
            grow(m, cand & adj[v] & ~((vb << 1) - 1))

    grow(0, (1 << G.n) - 1)
    return sorted(_vertices_of(m) for m in out)


def minimal_vertex_covers(C):
    """All minimal transversals, by Berge's sequential edge expansion.
    Each candidate, and each subset test of its minimality filter, costs
    one node; past errors.SEARCH_BUDGET nodes CapExceededError is raised."""
    if not C.edges:
        raise InputError("clutter has no edges")
    partial = [0]
    spent = 0
    for e in C.masks():
        grown = []
        for t in partial:
            if t & e:
                grown.append(t)
            else:
                grown.extend(t | vb for vb in _bits(e))
        grown = sorted(set(grown), key=lambda m: m.bit_count())
        keep = []
        for m in grown:
            spent = spend(spent, 1 + len(keep), "minimal cover expansion",
                          "nodes")
            if not any(k & m == k for k in keep):
                keep.append(m)
        partial = keep
    return sorted(_vertices_of(m) for m in partial)


def blocker(C):
    """The clutter of minimal vertex covers of C."""
    return Clutter(C.n, minimal_vertex_covers(C))


def _exponent(n, support):
    return tuple(1 if v in support else 0 for v in range(1, n + 1))


def cover_ideal(C):
    """Exponent vectors of the cover ideal generators (one per minimal cover)."""
    return sorted(_exponent(C.n, set(c)) for c in minimal_vertex_covers(C))


def dual_ideal(ideal):
    """Componentwise complement w = 1 - v of square-free exponent vectors."""
    out = []
    for v in ideal:
        if any(x not in (0, 1) for x in v):
            raise InputError(f"exponent vector {v} is not square-free")
        w = tuple(1 - x for x in v)
        if not any(w):
            raise InputError(f"dual of {v} is the zero exponent")
        out.append(w)
    return sorted(out)


def clique_equalization(G):
    """Grow G until all maximal cliques have the same size.

    Repeatedly takes the lowest maximal clique C, by size and then
    lexicographically, and adds a new vertex z adjacent exactly to C.  The
    maximal cliques change by replacing C with C + {z}: C is no longer
    maximal, and z extends no other maximal clique.  So one pass over the
    clique list predicts the grown graph's cliques, and one clique search
    checks the prediction.  Returns the grown graph and the list of added
    vertices.  Intended for perfect G; perfection is the caller's
    responsibility and is not checked here.
    """
    cliques = [(len(c), c) for c in maximal_cliques(G)]
    if not cliques:
        return G, []
    top = max(cliques)[0]
    edges = list(G.edges)
    added = []
    while (lowest := min(cliques))[0] < top:
        cliques.remove(lowest)
        size, low = lowest
        z = G.n + len(added) + 1
        edges.extend((u, z) for u in low)
        cliques.append((size + 1, low + (z,)))
        added.append(z)
    H = Graph(G.n + len(added), edges)
    if maximal_cliques(H) != sorted(c for _, c in cliques):
        raise AssertionError(
            "clique equalization changed unrelated maximal cliques")
    return H, added


# ---------------------------------------------------------------------------
# unmixedness

def is_unmixed(C):
    """True when all minimal vertex covers have the same cardinality."""
    covers = minimal_vertex_covers(C)
    return len({len(c) for c in covers}) <= 1


# ---------------------------------------------------------------------------
# matrices

def incidence_matrix(C):
    """Columns are the incidence vectors of the edges, in canonical order."""
    return IncidenceMatrix(C.n, tuple(_exponent(C.n, set(e)) for e in C.edges))


def vertex_clique_matrix(G):
    """Columns are the incidence vectors of the maximal cliques."""
    return IncidenceMatrix(
        G.n, tuple(_exponent(G.n, set(c)) for c in maximal_cliques(G)))


# ---------------------------------------------------------------------------
# induced cycles (used by the chordality, balancedness and perfection checks)

def chordless_cycles(n, adjacency, min_len=4):
    """Enumerate induced (chordless) cycles of length >= min_len.

    `adjacency` is a sequence indexed 1..n of neighbour bitmasks.  Cycles are
    yielded as vertex tuples starting at their smallest vertex, each exactly
    once; the orientation with the smaller second vertex is kept.  The
    search raises CapExceededError once it would expand more than
    errors.SEARCH_BUDGET nodes (induced paths).
    """
    budget = errors.SEARCH_BUDGET
    nodes = 0
    for s in range(1, n + 1):
        sbit = 1 << (s - 1)
        higher = ~((sbit << 1) - 1)
        stack = []
        for vb in _bits(adjacency[s] & higher):
            v = vb.bit_length()
            stack.append(((s, v), sbit | vb, adjacency[v] & higher & ~sbit & ~vb))
        while stack:
            nodes += 1
            if nodes > budget:
                spend(nodes, 0, "induced-cycle search", "nodes")
            path, mask, cand = stack.pop()
            last = path[-1]
            internal = mask & ~sbit & ~(1 << (last - 1))
            for vb in _bits(cand):
                v = vb.bit_length()
                if adjacency[v] & internal:
                    continue
                if adjacency[v] & sbit:
                    if len(path) + 1 >= min_len and path[1] < v:
                        yield path + (v,)
                else:
                    stack.append((path + (v,), mask | vb,
                                  adjacency[v] & higher & ~mask))


def is_chordal(G):
    """Chordal means no induced cycle of length four or more.  Returns the
    verdict together with a witness cycle when one exists."""
    for cycle in chordless_cycles(G.n, G.adj, 4):
        return False, cycle
    return True, None
