"""Command line front end.

One command per invocation; input files hold a graph, clutter, matrix or
ideal (see textio).  Output is a pretty text report by default or a
versioned machine-readable document with --json.  Exit codes: 0 the command
completed (whatever the verdict), 1 the verdict differed from --assert,
2 malformed input, 3 a document named more than textio.MAX_VERTICES
vertices or a search spent more than errors.SEARCH_BUDGET (no flag sets
either), 4 an internal self-check failed (a theorem path disagreed with
an independent path or its own invariant).
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time

from . import blowup, checks
from .clutters import (_exponent, all_cliques, blocker, clique_equalization,
                       cover_ideal, dual_ideal, edge_clutter, maximal_cliques,
                       minimal_vertex_covers)
from .errors import CapExceededError, InputError
from .report import _plain
from .textio import format_inequality, parse_input, read_labels

SCHEMA_VERSION = 1

NO_VERDICT = object()   # data-only commands; --assert rejects these


def _transpose(rows):
    return tuple(tuple(r[i] for r in rows) for i in range(len(rows[0])))


def _doc_columns(doc):
    """Matrix documents store rows (vertices); columns are the generators."""
    if doc.kind != "matrix":
        raise InputError(f"command expects a matrix, got {doc.kind}")
    return _transpose(doc.rows)


def _doc_graph(doc):
    if doc.kind != "graph":
        raise InputError(f"command expects a graph, got {doc.kind}")
    return doc.graph


def _doc_clutter(doc):
    if doc.kind == "clutter":
        return doc.clutter
    if doc.kind == "graph":
        return edge_clutter(doc.graph)
    raise InputError(f"command expects a clutter or graph, got {doc.kind}")


def _cover_side_ideal(doc):
    """The ideal a cone command works on: graphs contribute their cover
    ideal, clutters their edge ideal, ideal documents themselves."""
    if doc.kind == "graph":
        return cover_ideal(edge_clutter(doc.graph)), "cover ideal of the graph"
    if doc.kind == "clutter":
        return [_exponent(doc.n, set(e)) for e in doc.clutter.edges], \
            "edge ideal of the clutter"
    if doc.kind == "ideal":
        return list(doc.rows), "given ideal"
    raise InputError(f"command expects a graph, clutter or ideal, got {doc.kind}")


def _edge_side_ideal(doc):
    if doc.kind == "graph":
        return [_exponent(doc.n, e) for e in doc.graph.edges], \
            "edge ideal of the graph"
    return _cover_side_ideal(doc)


def _subset(doc, vertices):
    return [doc.labels[v - 1] for v in vertices]


def _monomial(vec):
    return str(blowup.MonomialGenerator(tuple(vec[:-1]), vec[-1]))


def data(name, value):
    return {"type": "data", "name": name, "value": _plain(value)}


def check(report):
    return {"type": "check", **report.as_dict()}


# --- command handlers: each returns (sections, primary_verdict) ------------

def _cmd_check_perfect(doc, cfg):
    G = _doc_graph(doc)
    cone = checks.perfect_via_rees_cone(G)
    holes = checks.perfect_via_odd_holes(G)
    sections = [check(cone), check(holes)]
    if cone.verdict != holes.verdict:
        raise AssertionError(f"perfection paths disagree: {json.dumps(sections)}")
    return sections, cone.verdict


def _cmd_rees_cone(doc, cfg):
    ideal, origin = _cover_side_ideal(doc)
    model = blowup.rees_cone(ideal)
    return [
        data("ideal", {"origin": origin, "generators": ideal}),
        data("lift_set", model.lift_set),
        data("facets", [format_inequality(h) for h in model.cone.facets]),
    ], NO_VERDICT


def _cmd_simis_cone(doc, cfg):
    ideal, origin = _edge_side_ideal(doc)
    model = blowup.simis_cone(ideal)
    redundant = set(model.redundant_halfspaces)
    return [
        data("ideal", {"origin": origin, "generators": ideal}),
        data("halfspaces", [
            {"inequality": format_inequality(h), "redundant": h in redundant}
            for h in model.halfspaces]),
        data("irredundant_facets",
             [format_inequality(h) for h in model.cone.facets]),
    ], NO_VERDICT


def _cmd_hilbert_basis(doc, cfg):
    if cfg["cone"] == "rees":
        ideal, origin = _cover_side_ideal(doc)
        hb = blowup.rees_hilbert_basis(ideal)
    else:
        ideal, origin = _edge_side_ideal(doc)
        hb = blowup.simis_hilbert_basis(ideal)
    return [
        data("ideal", {"origin": origin, "generators": ideal}),
        data("hilbert_basis", [{"vector": e, "monomial": _monomial(e)}
                               for e in hb.elements]),
    ], NO_VERDICT


def _cmd_check_normal(doc, cfg):
    ideal, origin = _cover_side_ideal(doc)
    report = blowup.is_rees_normal(ideal)
    return [data("ideal", {"origin": origin, "generators": ideal}),
            check(report)], report.verdict


def _cmd_check_gorenstein(doc, cfg):
    G = _doc_graph(doc)
    report = blowup.gorenstein_check(G, scan_bound=cfg["scan_bound"])
    return [check(report)], report.verdict


def _cmd_symbolic_gens(doc, cfg):
    G = _doc_graph(doc)
    gens = blowup.symbolic_generators_perfect(G)
    return [data("perfection", "verified-perfect"),
            data("generators", [str(m) for m in gens])], NO_VERDICT


def _cmd_check_tdi(doc, cfg):
    cols = _doc_columns(doc)
    report = checks.tdi_check(cols)
    return [check(report)], report.verdict


def _cmd_check_balanced(doc, cfg):
    report = checks.balanced_check(_doc_columns(doc))
    return [check(report)], report.verdict


def _cmd_check_mfmc(doc, cfg):
    C = _doc_clutter(doc)
    report = checks.mfmc_check(C)
    return [check(report)], report.verdict


def _cmd_blocker(doc, cfg):
    C = _doc_clutter(doc)
    B = blocker(C)
    return [data("blocker_edges", [_subset(doc, e) for e in B.edges])], NO_VERDICT


def _cmd_covers(doc, cfg):
    C = _doc_clutter(doc)
    covers = minimal_vertex_covers(C)
    return [data("minimal_vertex_covers", [_subset(doc, c) for c in covers])], NO_VERDICT


def _cmd_cliques(doc, cfg):
    G = _doc_graph(doc)
    sections = [data("maximal_cliques",
                     [_subset(doc, c) for c in maximal_cliques(G)])]
    if cfg["all_cliques"]:
        sections.append(data("all_cliques",
                             [_subset(doc, c) for c in all_cliques(G)]))
    return sections, NO_VERDICT


def _cmd_dual_ideal(doc, cfg):
    if doc.kind == "ideal":
        vectors = list(doc.rows)
    elif doc.kind == "matrix":
        vectors = list(_doc_columns(doc))
    else:
        raise InputError(f"command expects an ideal or matrix, got {doc.kind}")
    return [data("dual_ideal", dual_ideal(vectors))], NO_VERDICT


def _cmd_clique_equalize(doc, cfg):
    G = _doc_graph(doc)
    H, added = clique_equalization(G)
    labels = list(doc.labels) + [f"z{i}" for i in range(1, len(added) + 1)]
    return [
        data("added_vertices", [labels[v - 1] for v in added]),
        data("grown_graph", {"n": H.n, "edges": [list(e) for e in H.edges]}),
        data("maximal_cliques",
             [[labels[v - 1] for v in c] for c in maximal_cliques(H)]),
    ], NO_VERDICT


def _cmd_check_cm2_normal(doc, cfg):
    G = _doc_graph(doc)
    report = checks.cm_height_two_normal(list(G.edges))
    return [check(report)], report.verdict


COMMANDS = {
    "check-perfect": (_cmd_check_perfect, "graph"),
    "rees-cone": (_cmd_rees_cone, "ideal"),
    "simis-cone": (_cmd_simis_cone, "ideal"),
    "hilbert-basis": (_cmd_hilbert_basis, "ideal"),
    "check-normal": (_cmd_check_normal, "ideal"),
    "check-gorenstein": (_cmd_check_gorenstein, "graph"),
    "symbolic-gens": (_cmd_symbolic_gens, "graph"),
    "check-tdi": (_cmd_check_tdi, "matrix"),
    "check-balanced": (_cmd_check_balanced, "matrix"),
    "check-mfmc": (_cmd_check_mfmc, "clutter"),
    "blocker": (_cmd_blocker, "clutter"),
    "covers": (_cmd_covers, "clutter"),
    "cliques": (_cmd_cliques, "graph"),
    "dual-ideal": (_cmd_dual_ideal, "ideal"),
    "clique-equalize": (_cmd_clique_equalize, "graph"),
    "check-cm2-normal": (_cmd_check_cm2_normal, "graph"),
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="covercones",
        description="Exact cone computations and decision procedures for "
                    "graphs, clutters and monomial ideals.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("input", help="input file, or '-' for stdin")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--assert", dest="assert_verdict", choices=["true", "false"],
                        help="exit 1 unless the primary verdict matches")
    parser.add_argument("--scan-bound", type=int, default=None,
                        help="t-degree bound of the Gorenstein interior "
                             "scan, at least 2")
    parser.add_argument("--labels", default=None,
                        help="file with one label per vertex, for rendering")
    parser.add_argument("--cone", choices=["rees", "simis"], default="simis",
                        help="which cone hilbert-basis works on")
    parser.add_argument("--all", dest="all_cliques", action="store_true",
                        help="also list non-maximal cliques")
    parser.add_argument("--minimalize", action="store_true",
                        help="drop comparable clutter edges instead of rejecting")
    return parser


def run(args):
    handler, expected_kind = COMMANDS[args.command]
    if args.input == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
        source = args.input
    doc = parse_input(text, expected_kind=expected_kind,
                      strict=not args.minimalize, source=source)
    if args.labels:
        with open(args.labels, encoding="utf-8") as fh:
            labels = read_labels(fh.read())
        if len(labels) < doc.n:
            raise InputError(
                f"label file has {len(labels)} names for {doc.n} vertices")
        doc = dataclasses.replace(doc, labels=labels[:doc.n])
    cfg = {
        "scan_bound": args.scan_bound,
        "cone": args.cone,
        "all_cliques": args.all_cliques,
        "strict_clutters": not args.minimalize,
    }
    started = time.monotonic()
    sections, verdict = handler(doc, cfg)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input": {"kind": doc.kind, "source": doc.source,
                  "labels": list(doc.labels), "digest": doc.digest(),
                  **doc.payload()},
        "config": {k: v for k, v in sorted(cfg.items())},
        "results": sections,
        "primary_verdict": None if verdict is NO_VERDICT else verdict,
    }
    blob = json.dumps(report, sort_keys=True)
    report["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    report["timing_ms"] = round(elapsed_ms, 3)
    exit_code = 0
    if args.assert_verdict is not None:
        if verdict is NO_VERDICT:
            raise InputError(
                f"{args.command} produces no verdict to assert on")
        if verdict != (args.assert_verdict == "true"):
            exit_code = 1
    return report, exit_code


def _print_pretty(report, out):
    print(f"command: {report['command']}", file=out)
    inp = report["input"]
    print(f"input: {inp['kind']} ({inp['source']}), digest {inp['digest'][:12]}",
          file=out)
    for section in report["results"]:
        if section["type"] == "data":
            print(f"{section['name']}:", file=out)
            value = section["value"]
            if isinstance(value, list):
                for item in value:
                    print(f"  {item}", file=out)
            else:
                print(f"  {value}", file=out)
        else:
            verdict = {True: "true", False: "false", None: "n/a"}[section["verdict"]]
            print(f"check {section['name']}: {verdict}  [{section['method']}]",
                  file=out)
            if section.get("reason"):
                print(f"  reason: {section['reason']}", file=out)
            if section.get("witness") is not None:
                print(f"  witness: {section['witness']}", file=out)
            if section.get("certificate") is not None:
                print(f"  certificate: {section['certificate']}", file=out)
            if section.get("search_bounds"):
                print(f"  bounds: {section['search_bounds']}", file=out)
    if report.get("primary_verdict") is not None:
        print(f"verdict: {report['primary_verdict']}", file=out)
    print(f"timing: {report['timing_ms']} ms", file=out)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        report, exit_code = run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal consistency failure: {exc}", file=sys.stderr)
        return 4
    if args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        _print_pretty(report, sys.stdout)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
