"""Independent checks of covercones reports.

Nothing here imports covercones.  Every reference is computed by brute
force over vertex subsets (n <= 9), and every checker returns a list of
problems, empty when the report is right.  A checker sees the parsed JSON
report of one call and the graph the call was made on.
"""

import hashlib
import json
import re
from functools import cached_property


# --- brute-force references -------------------------------------------------

class Reference:
    """Subset-scan facts about one graph (n, edges), each computed once."""

    def __init__(self, graph):
        self.n, self.edges = graph
        self.adj = [0] * (self.n + 1)
        for u, v in self.edges:
            self.adj[u] |= 1 << (v - 1)
            self.adj[v] |= 1 << (u - 1)

    def _vertices(self, mask):
        return tuple(v for v in range(1, self.n + 1) if mask >> (v - 1) & 1)

    def _is_clique(self, mask):
        return all(self.adj[v] | 1 << (v - 1) | ~mask == -1
                   for v in self._vertices(mask))

    def _is_cover(self, mask):
        return all(mask >> (u - 1) & 1 or mask >> (v - 1) & 1
                   for u, v in self.edges)

    @cached_property
    def cliques(self):
        """All non-empty cliques, as vertex tuples."""
        return [self._vertices(m) for m in range(1, 1 << self.n)
                if self._is_clique(m)]

    @cached_property
    def maximal_cliques(self):
        masks = [sum(1 << (v - 1) for v in c) for c in self.cliques]
        return sorted(self._vertices(m) for m in masks
                      if not any(o != m and o & m == m for o in masks))

    @cached_property
    def minimal_covers(self):
        covers = [m for m in range(1 << self.n) if self._is_cover(m)]
        minimal = [m for m in covers
                   if not any(self._is_cover(m & ~(1 << i))
                              for i in range(self.n) if m >> i & 1)]
        return sorted(self._vertices(m) for m in minimal)

    def indicator(self, vertices):
        return tuple(1 if v in vertices else 0 for v in range(1, self.n + 1))

    @cached_property
    def cover_vectors(self):
        return {self.indicator(c) for c in self.minimal_covers}

    @cached_property
    def edge_vectors(self):
        return {self.indicator(e) for e in self.edges}

    @cached_property
    def clique_lifts(self):
        """(chi_w, |w| - 1) for every non-empty clique w."""
        return {self.indicator(c) + (len(c) - 1,) for c in self.cliques}

    @cached_property
    def unmixed(self):
        return len({len(c) for c in self.minimal_covers}) == 1

    @cached_property
    def bipartite(self):
        colour = {}
        for start in range(1, self.n + 1):
            if start in colour:
                continue
            colour[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._vertices(self.adj[u]):
                    if v not in colour:
                        colour[v] = 1 - colour[u]
                        stack.append(v)
                    elif colour[v] == colour[u]:
                        return False
        return True

    def _colourable(self, mask, k):
        verts = self._vertices(mask)
        colours = {}

        def assign(i):
            if i == len(verts):
                return True
            v = verts[i]
            used = {colours[u] for u in verts[:i] if self.adj[v] >> (u - 1) & 1}
            for c in range(k):
                if c not in used:
                    colours[v] = c
                    if assign(i + 1):
                        return True
            return False

        return assign(0)

    @cached_property
    def perfect_by_subset_scan(self):
        """Chromatic number equals clique number on every induced subgraph."""
        omega = {}
        for c in self.cliques:
            m = sum(1 << (v - 1) for v in c)
            omega[m] = len(c)
        for mask in range(1, 1 << self.n):
            w = max(k for m, k in omega.items() if m & mask == m)
            if not self._colourable(mask, w):
                return False
        return True

    @cached_property
    def perfect_by_odd_holes(self):
        """No induced odd cycle of length >= 5 in the graph or its
        complement (strong perfect graph theorem)."""
        full = (1 << self.n) - 1
        comp = [0] + [full & ~self.adj[v] & ~(1 << (v - 1))
                      for v in range(1, self.n + 1)]
        for adj in (self.adj, comp):
            for mask in range(1 << self.n):
                size = bin(mask).count("1")
                if size >= 5 and size % 2 and _is_cycle(adj, mask):
                    return False
        return True


def _is_cycle(adj, mask):
    verts = [v for v in range(1, len(adj)) if mask >> (v - 1) & 1]
    if any(bin(adj[v] & mask).count("1") != 2 for v in verts):
        return False
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        u = stack.pop()
        for v in verts:
            if adj[u] >> (v - 1) & 1 and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(verts)


# --- parsing of rendered values --------------------------------------------

_VAR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_monomial(text, n):
    """'x1x3^2 t^2' -> (1, 0, 2, ..., 2)."""
    mono, _, tpart = text.partition(" ")
    if mono.startswith("t"):
        mono, tpart = "", mono
    exps = [0] * n
    for var, power in _VAR.findall(mono):
        exps[int(var) - 1] += int(power or 1)
    t = 0 if not tpart else int(tpart[2:] or 1) if tpart != "t" else 1
    return tuple(exps) + (t,)


def parse_inequality(text, n):
    """'a1 + 2*a3 >= a5' (variables a1..a{n+1}) -> its normal vector."""
    left, right = text.split(" >= ")
    normal = [0] * (n + 1)
    for side, sign in ((left, 1), (right, -1)):
        for term in side.split(" + "):
            if term == "0":
                continue
            coeff, _, var = term.rpartition("*")
            normal[int(var[1:]) - 1] += sign * int(coeff or 1)
    return tuple(normal)


# --- checkers ---------------------------------------------------------------

def report_digest(report):
    body = {k: v for k, v in report.items() if k not in ("digest", "timing_ms")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def section(report, name):
    for s in report["results"]:
        if s["name"] == name:
            return s
    raise KeyError(name)


def _lift_set(n, generators):
    units = [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    return units + [tuple(g) + (1,) for g in generators]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _check_cover_ideal(report, ref, problems):
    gens = section(report, "ideal")["value"]["generators"]
    if {tuple(g) for g in gens} != ref.cover_vectors or len(gens) != len(ref.cover_vectors):
        problems.append("ideal generators are not the minimal vertex covers")
    return gens


def _check_edge_ideal(report, ref, problems):
    gens = section(report, "ideal")["value"]["generators"]
    if {tuple(g) for g in gens} != ref.edge_vectors or len(gens) != len(ref.edge_vectors):
        problems.append("ideal generators are not the edges")


def check_normal(report, ref, problems):
    gens = _check_cover_ideal(report, ref, problems)
    lifts = _lift_set(ref.n, gens)
    sec = section(report, "rees-normal")
    if ref.perfect_by_subset_scan and sec["verdict"] is not True:
        problems.append("perfect graph whose cover ideal is reported not normal")
    if sec["verdict"] is not True:
        return
    cert = sec["certificate"]
    elements = set()
    for m in cert["memberships"]:
        coeffs, element = m["coefficients"], tuple(m["element"])
        elements.add(element)
        if len(coeffs) != len(lifts) or any(
                not isinstance(c, int) or c < 0 for c in coeffs):
            problems.append(f"bad coefficients for {element}")
            continue
        total = tuple(sum(c * l[i] for c, l in zip(coeffs, lifts))
                      for i in range(ref.n + 1))
        if total != element:
            problems.append(f"certificate of {element} multiplies out to {total}")
    if len(elements) != cert["hilbert_basis_size"]:
        problems.append("membership count differs from the basis size")
    _check_rees_basis(elements, lifts, ref, problems)


def _check_rees_basis(elements, lifts, ref, problems):
    # every lift generator is irreducible in the Rees cone, and a normal
    # Rees algebra (every perfect graph) has no other basis element
    if not set(lifts) <= elements:
        problems.append("Rees Hilbert basis misses a lift generator")
    if ref.perfect_by_subset_scan and elements != set(lifts):
        problems.append("perfect graph with a Rees basis beyond the lift set")


def check_rees_hilbert_basis(report, ref, problems):
    gens = _check_cover_ideal(report, ref, problems)
    elements = _check_basis_rendering(report, ref, problems)
    _check_rees_basis(elements, _lift_set(ref.n, gens), ref, problems)


def _check_basis_rendering(report, ref, problems):
    entries = section(report, "hilbert_basis")["value"]
    elements = {tuple(e["vector"]) for e in entries}
    if len(elements) != len(entries):
        problems.append("repeated Hilbert basis element")
    for e in entries:
        if parse_monomial(e["monomial"], ref.n) != tuple(e["vector"]):
            problems.append(f"monomial {e['monomial']} does not match {e['vector']}")
    return elements


def check_gorenstein(report, ref, problems):
    sec = section(report, "gorenstein")
    if not ref.unmixed:
        if sec["verdict"] is not None or sec["reason"] != "not unmixed":
            problems.append("graph is not unmixed but the check was applied")
        return
    if ref.perfect_by_subset_scan and sec["verdict"] is not True:
        problems.append("perfect unmixed graph reported not Gorenstein")
    if sec["verdict"] is True:
        cert = sec["certificate"] or {}
        if cert.get("interior_points_scanned", 0) < 1:
            problems.append("Gorenstein verdict true on an empty scan")
    elif sec["verdict"] is False:
        w = sec["witness"]
        if "all_ones_not_interior" in w:
            # V minus v is a vertex cover, so every vertex v misses some
            # minimal cover.  The all-ones vector is then (1/k) times the
            # sum of the k cover lifts plus a positive multiple of every
            # unit vector: a strictly positive combination of all the
            # generators of a full-dimensional cone, hence interior.
            if all(any(v not in c for c in ref.minimal_covers)
                   for v in range(1, ref.n + 1)):
                problems.append("all-ones vector reported outside the "
                                "interior, but it is interior")
            return
        facet, outside = w["facet"], w["not_in_cone"]
        lifts = _lift_set(ref.n, [ref.indicator(c) for c in ref.minimal_covers])
        if any(_dot(facet, l) < 0 for l in lifts):
            problems.append("witness facet is not valid on the lift set")
        if _dot(facet, outside) >= 0:
            problems.append("witness point is not cut off by its facet")
        if [x + 1 for x in outside] != w["interior_point"]:
            problems.append("witness points differ by more than the all-ones")


def check_simis_hilbert_basis(report, ref, problems):
    _check_edge_ideal(report, ref, problems)
    elements = _check_basis_rendering(report, ref, problems)
    if ref.perfect_by_subset_scan:
        if elements != ref.clique_lifts:
            problems.append("perfect graph whose Simis basis is not the clique lifts")
    elif not (ref.clique_lifts < elements):
        problems.append("imperfect graph whose Simis basis lacks a clique lift "
                        "or an extra element")


def check_simis_cone(report, ref, problems):
    _check_edge_ideal(report, ref, problems)
    rows = section(report, "halfspaces")["value"]
    halfspaces = [parse_inequality(r["inequality"], ref.n) for r in rows]
    expected = {tuple(int(i == j) for j in range(ref.n + 1))
                for i in range(ref.n + 1)}
    expected |= {v + (-1,) for v in ref.cover_vectors}
    if set(halfspaces) != expected or len(halfspaces) != len(expected):
        problems.append("halfspaces are not the units and the cover inequalities")
    facets = {parse_inequality(f, ref.n)
              for f in section(report, "irredundant_facets")["value"]}
    for row, h in zip(rows, halfspaces):
        if row["redundant"] == (h in facets):
            problems.append(f"redundancy flag of {row['inequality']} is wrong")
    if any(_dot(f, lift) < 0 for f in facets for lift in ref.clique_lifts):
        problems.append("a clique lift violates a facet")


def check_symbolic_gens(report, ref, problems):
    gens = section(report, "generators")["value"]
    if {parse_monomial(g, ref.n) for g in gens} != ref.clique_lifts \
            or len(gens) != len(ref.clique_lifts):
        problems.append("symbolic generators are not the clique lifts")


def check_mfmc(report, ref, problems):
    sec = section(report, "mfmc")
    if sec["verdict"] is not ref.bipartite:
        problems.append(f"mfmc verdict {sec['verdict']} on a graph with "
                        f"bipartite={ref.bipartite}")
    if sec["verdict"]:
        verts = {tuple(v) for v in sec["certificate"]["covering_integral_vertices"]}
        if verts != ref.cover_vectors:
            problems.append("integral covering vertices are not the covers")


def check_tdi(report, ref, problems):
    sec = section(report, "tdi")
    if sec["verdict"] is not ref.bipartite:
        problems.append(f"tdi verdict {sec['verdict']} on a graph with "
                        f"bipartite={ref.bipartite}")
    if sec["verdict"] and sec["certificate"]["polytope_integral"] is not True:
        problems.append("tdi true without an integral polytope")


def check_perfect(report, ref, problems):
    expected = ref.perfect_by_odd_holes
    if report["primary_verdict"] is not expected:
        problems.append(f"perfect verdict {report['primary_verdict']}, "
                        f"odd-hole scan says {expected}")
    if any(s["verdict"] is not expected for s in report["results"]):
        problems.append("a perfection section disagrees with the scan")


def _label_sets(value):
    return sorted(tuple(sorted(int(x) for x in s)) for s in value)


def check_covers(report, ref, problems):
    value = section(report, "minimal_vertex_covers")["value"]
    if _label_sets(value) != ref.minimal_covers:
        problems.append("minimal vertex covers differ from the subset scan")


def check_cliques(report, ref, problems):
    value = section(report, "maximal_cliques")["value"]
    if _label_sets(value) != ref.maximal_cliques:
        problems.append("maximal cliques differ from the subset scan")


CHECKERS = {
    "check-normal": check_normal,
    "check-gorenstein": check_gorenstein,
    "hilbert-basis": check_simis_hilbert_basis,
    "simis-cone": check_simis_cone,
    "symbolic-gens": check_symbolic_gens,
    "check-mfmc": check_mfmc,
    "check-tdi": check_tdi,
    "check-perfect": check_perfect,
    "covers": check_covers,
    "cliques": check_cliques,
}


def checker_for(command, flags):
    if command == "hilbert-basis" and "rees" in flags:
        return check_rees_hilbert_basis
    return CHECKERS[command]


def _input_payload(kind, ref):
    """What the report's input section must hold for the document sent."""
    if kind == "matrix":
        return {"rows": [[1 if v in e else 0 for e in ref.edges]
                         for v in range(1, ref.n + 1)]}
    return {"n": ref.n, "edges": [list(e) for e in ref.edges]}


def check_report(command, flags, exit_code, stdout, ref):
    """All problems with one call's outcome; an empty list means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return check_parsed(command, flags, report, ref)


def check_parsed(command, flags, report, ref):
    problems = []
    try:
        if report.get("digest") != report_digest(report):
            problems.append("digest does not match the report")
        if report["command"] != command:
            problems.append("report names another command")
        inp = report["input"]
        payload = {k: v for k, v in inp.items()
                   if k not in ("kind", "source", "labels", "digest")}
        if payload != _input_payload(inp["kind"], ref):
            problems.append("report input differs from the document sent")
        checker_for(command, flags)(report, ref, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
