import json
import time
from fractions import Fraction

import pytest

from covercones.cli import COMMANDS, _doc_columns, main
from covercones.textio import (ParseError, format_inequality, parse_input,
                               read_labels)
from covercones import InputError, errors, make_halfspace

from oracles import covering_by_scan, tdi_oracle


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- parsing ---------------------------------------------------------------

def test_parse_bespoke_graph_with_labels():
    doc = parse_input("graph { a-b b-c c-d d-a }")
    assert doc.kind == "graph" and doc.labels == ("a", "b", "c", "d")
    assert doc.graph.edges == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_parse_numeric_vertices_are_indices():
    doc = parse_input("graph { 2-4 1-2 }")
    assert doc.graph.n == 4
    assert doc.graph.edges == ((1, 2), (2, 4))


def test_parse_clutter_and_strictness():
    doc = parse_input("clutter { {a,b,d} {b,c,e} }")
    # names are numbered by first appearance: a, b, d, c, e
    assert doc.labels == ("a", "b", "d", "c", "e")
    assert doc.clutter.edges == ((1, 2, 3), (2, 4, 5))
    with pytest.raises(InputError):
        parse_input("clutter { {a} {a,b} }")
    doc = parse_input("clutter { {a} {a,b} }", strict=False)
    assert doc.clutter.edges == ((1,),)


def test_parse_errors_carry_positions():
    with pytest.raises(InputError) as err:
        parse_input("graph { a-a }")
    assert "line 1" in str(err.value) and "column 9" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_input("graph { a-b\nb- }")
    assert "line 2" in str(err.value)


def test_parse_matrix_and_ideal():
    doc = parse_input("matrix { 1 0 ; 1 1 ; 0 1 }")
    assert doc.rows == ((1, 0), (1, 1), (0, 1))
    doc = parse_input("ideal { [1 1 0] [0 1 1] }")
    assert doc.rows == ((1, 1, 0), (0, 1, 1))


def test_parse_plain_vector_format():
    doc = parse_input("# covers\n1 0 1\n0 1 0\n", expected_kind="ideal")
    assert doc.rows == ((1, 0, 1), (0, 1, 0))
    doc = parse_input("1 2\n2 3\n", expected_kind="graph")
    assert doc.graph.edges == ((1, 2), (2, 3))


# the rules both formats keep: what a token is, which integers are read,
# and where an error points
@pytest.mark.parametrize("text, kind, labels, payload", [
    ("a-b c\n", "graph", ("a-b", "c"), {"n": 2, "edges": [[1, 2]]}),
    ("matrix { - 3 1 ; 1 1 }", None, ("x1", "x2"), {"rows": [[-3, 1], [1, 1]]}),
    ("1_000 -2\n", "ideal", ("x1", "x2"), {"rows": [[1000, -2]]}),
    ("clutter { {a,} {b} }", None, ("a", "b"), {"n": 2, "edges": [[1], [2]]}),
    ("matrix { ;; 1 0 ;; 0 1 ; }", None, ("x1", "x2"), {"rows": [[1, 0], [0, 1]]}),
    ("graph { 0-1 1-2 }", None, ("0", "1", "2"), {"n": 3, "edges": [[1, 2], [2, 3]]}),
    ("graph { ²-1 }", None, ("²", "1"), {"n": 2, "edges": [[1, 2]]}),
], ids=["plain-name-with-dash", "bespoke-spaced-minus", "plain-underscore",
        "trailing-comma", "empty-rows", "vertex-zero-names", "superscript-names"])
def test_parse_rules(text, kind, labels, payload):
    doc = parse_input(text, expected_kind=kind)
    assert (doc.labels, doc.payload()) == (labels, payload)


LONG_INTEGER = "1" * 5000       # past CPython's 4,300-digit conversion limit


@pytest.mark.parametrize("text, kind, position", [
    ("- 3\n", "matrix", (1, 1)),
    ("graph {\n a-b\n b c }", None, (3, 2)),
    ("clutter {\n {a b} }", None, (2, 5)),
    ("matrix { 1 0 ;\n 1 x }", None, (2, 4)),
    ("ideal { [1 0]\n  1 }", None, (2, 3)),
    ("1 2\n3 x\n", "matrix", (2, 3)),
    ("matrix { 1 ² ; 1 1 }", None, (1, 12)),
    (f"matrix {{ 1 {LONG_INTEGER} ; 1 1 }}", None, (1, 12)),
    (f"graph {{ 1-{LONG_INTEGER} }}", None, (1, 11)),
    (f"1 {LONG_INTEGER}\n", "graph", (1, 3)),
], ids=["plain-lone-minus", "graph", "clutter", "matrix", "ideal", "plain",
        "superscript-entry", "long-entry", "long-vertex", "long-plain-vertex"])
def test_parse_errors_point_at_their_token(text, kind, position):
    with pytest.raises(ParseError) as err:
        parse_input(text, expected_kind=kind)
    assert (err.value.line, err.value.col) == position


def test_labels_file_rejects_duplicates():
    with pytest.raises(InputError):
        read_labels("a b a")


def test_inequality_formatting():
    assert format_inequality(make_halfspace((1, 1, -1))) == "a1 + a2 >= a3"
    assert format_inequality(make_halfspace((1, 0, 0))) == "a1 >= 0"
    assert format_inequality(make_halfspace((1, 1, 1, 1, -3))) == \
        "a1 + a2 + a3 + a4 >= 3*a5"
    assert format_inequality(make_halfspace((-1, 2), 1)) == "2*a2 >= a1 + 1"


# --- commands --------------------------------------------------------------

PENTAGON = "graph { a-b b-c c-d d-e e-a }\n"


def test_check_perfect_pentagon(write, capsys):
    path = write("c5.graph", PENTAGON)
    code, report = run_json(capsys, ["check-perfect", path])
    assert code == 0
    assert report["primary_verdict"] is False
    cone, holes = report["results"]
    assert cone["method"] == holes["method"] == "theorem-path"
    assert cone["witness"]["non_clique_facets"] == [[1, 1, 1, 1, 1, -3]]
    assert holes["name"] == "perfect-via-odd-holes"
    assert holes["witness"] == {"odd_hole": [1, 2, 3, 4, 5]}


def test_check_perfect_past_nine_vertices(write, capsys):
    """Both perfection sections answer on cycles of 10 to 13 vertices and
    agree, or the command would exit 4."""
    for n, perfect in ((10, True), (11, False), (13, False)):
        path = write(f"c{n}.graph",
                     "".join(f"{v} {v % n + 1}\n" for v in range(1, n + 1)))
        code, report = run_json(capsys, ["check-perfect", path])
        assert code == 0 and report["primary_verdict"] is perfect
        cone, holes = report["results"]
        assert cone["verdict"] is holes["verdict"] is perfect
        assert cone["search_bounds"] == {"dd_budget": 1000000,
                                          "enumeration_budget": 1000000}
        if n == 11:
            assert cone["witness"]["non_clique_facets"] == [[1] * 11 + [-6]]


def test_check_normal_past_nine_vertices(write, capsys):
    """No dimension cap: the cover ideals of C10 to C13 and of the perfect
    K_{5,5} have Rees cones in 11 to 14 coordinates, and each answers."""
    graphs = {f"c{n}": [(v, v % n + 1) for v in range(1, n + 1)]
              for n in (10, 12, 11, 13)}
    graphs["k55"] = [(u, v) for u in range(1, 6) for v in range(6, 11)]
    for name, edges in graphs.items():
        path = write(f"{name}.graph", "graph { " + " ".join(
            f"{u}-{v}" for u, v in edges) + " }\n")
        code, report = run_json(capsys, ["check-normal", path,
                                         "--assert", "true"])
        assert code == 0 and report["primary_verdict"] is True, name
        assert report["results"][1]["search_bounds"] == {
            "hb_budget": 1000000}


@pytest.mark.parametrize("command", ["rees-cone", "simis-cone",
                                     "check-perfect"])
def test_cone_commands_exit_3_past_the_dd_budget(write, capsys, monkeypatch,
                                                 command):
    # the pentagon's covers take 42 nodes, and its cone 111 ray pairs
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 50)
    assert main([command, write("c5.graph", PENTAGON)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: double description exceeded its budget of 50 ray pairs\n")
    assert captured.out == ""


def test_check_perfect_exits_3_past_the_enumeration_budget(write, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 5)
    assert main(["check-perfect", write("c5.graph", PENTAGON)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: minimal cover expansion exceeded its budget of 5 nodes\n")
    assert captured.out == ""


def test_symbolic_gens_verifies_perfection_past_the_cone_cap(write, capsys):
    k55 = write("k55.graph", "".join(f"{u} {v}\n" for u in range(1, 6)
                                     for v in range(6, 11)))
    code, report = run_json(capsys, ["symbolic-gens", k55])
    assert code == 0
    assert report["results"][0]["value"] == "verified-perfect"
    assert len(report["results"][1]["value"]) == 35   # 10 vertices, 25 edges
    c7bar = write("c7bar.graph", "".join(
        f"{u} {v}\n" for u in range(1, 8) for v in range(u + 2, 8)
        if (u, v) != (1, 7)))
    assert main(["symbolic-gens", c7bar]) == 2
    err = capsys.readouterr().err
    assert "odd antihole (1, 2, 3, 4, 5, 6, 7)" in err


def test_clique_equalize_needs_more_steps_than_vertices(write, capsys):
    # K5 plus K_{2,2,2,2} on 6..13: one maximal clique of size 5 and 16 of
    # size 4, so sixteen vertices are added, one per small clique
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    edges += [(u, v) for u in range(6, 14) for v in range(u + 1, 14)
              if not (u % 2 == 0 and v == u + 1)]
    path = write("k5_k2222.graph", "".join(f"{u} {v}\n" for u, v in edges))
    code, report = run_json(capsys, ["clique-equalize", path])
    assert code == 0
    added, grown, cliques = (s["value"] for s in report["results"])
    assert added == [f"z{i}" for i in range(1, 17)]
    assert grown["n"] == 29
    assert len(cliques) == 17 and {len(c) for c in cliques} == {5}


def test_assert_flag_drives_exit_code(write, capsys):
    path = write("c5.graph", PENTAGON)
    assert main(["check-perfect", path, "--assert", "false"]) == 0
    capsys.readouterr()
    assert main(["check-perfect", path, "--assert", "true"]) == 1
    capsys.readouterr()
    assert main(["check-normal", path, "--assert", "true"]) == 0
    capsys.readouterr()


def test_exit_codes_for_errors(write, capsys, monkeypatch):
    bad = write("bad.graph", "graph { a-a }\n")
    assert main(["check-perfect", bad]) == 2
    capsys.readouterr()
    c10 = write("c10.graph", "".join(f"{v} {v % 10 + 1}\n" for v in range(1, 11)))
    # C10's covers take 630 nodes, and its cone 777 ray pairs
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 700)
    assert main(["check-perfect", c10]) == 3
    assert capsys.readouterr().err == (
        "error: double description exceeded its budget of 700 ray pairs\n")
    missing_verdict = write("k2.graph", "graph { a-b }\n")
    assert main(["cliques", missing_verdict, "--assert", "true"]) == 2
    capsys.readouterr()


def test_undecodable_input_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"\xff\xfe")
    assert main(["covers", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err + captured.out


def test_internal_self_check_failure_exits_four(write, capsys, monkeypatch):
    from covercones import checks

    def broken(C):
        raise AssertionError(
            "integral covering vertices differ from the minimal covers")

    monkeypatch.setattr(checks, "mfmc_check", broken)
    path = write("c4.graph", "graph { a-b b-c c-d d-a }\n")
    assert main(["check-mfmc", path, "--assert", "true"]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "error: internal consistency failure: integral covering vertices "
        "differ from the minimal covers\n")
    assert captured.out == ""


def test_gorenstein_scan_bound_below_two_is_rejected(write, capsys):
    path = write("c5.graph", PENTAGON)
    for bound in ("0", "1"):
        assert main(["check-gorenstein", path, "--scan-bound", bound]) == 2
        assert capsys.readouterr().err.startswith("error:")
    code, report = run_json(capsys, ["check-gorenstein", path])
    assert code == 0 and report["primary_verdict"] is False


def test_gorenstein_walk_past_its_budget_exits_3(write, capsys):
    k33 = write("k33.graph", "graph { a-d a-e a-f b-d b-e b-f c-d c-e c-f }\n")
    start = time.perf_counter()
    assert main(["check-gorenstein", k33, "--scan-bound", "1000"]) == 3
    assert time.perf_counter() - start < 60
    captured = capsys.readouterr()
    assert captured.err == ("error: Gorenstein box walk exceeded its budget "
                            "of 1000000 nodes\n")
    assert captured.out == ""


def _tdi_oracle_section(text):
    """The test-side TDI oracle on a matrix document, read into columns as
    the matrix commands read it, as the section of a --json report."""
    return tdi_oracle(_doc_columns(parse_input(text))).as_dict()


def test_tdi_oracle_command_is_retired(write, capsys):
    path = write("triangle.mat", "matrix { 1 1 0 ; 0 1 1 ; 1 0 1 }\n")
    assert "tdi-oracle" not in COMMANDS
    with pytest.raises(SystemExit) as exc:
        main(["tdi-oracle", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument command: invalid choice: 'tdi-oracle'" in err


def test_tdi_oracle_verdicts_on_matrix_documents():
    cases = (("matrix { 1 1 0 ; 0 1 1 ; 1 0 1 }", False),
             ("matrix { 1 0 ; 1 1 ; 0 1 }", True),
             ("matrix { 2 -1 2 ; -1 1 -1 }", False),
             ("matrix { 1 1 1 0 ; 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1 }",
              True))
    for text, verdict in cases:
        assert _tdi_oracle_section(text)["verdict"] is verdict, text


def test_alpha_box_flag_is_gone(write, capsys):
    text = "matrix { 1 1 0 ; 0 1 1 ; 1 0 1 }\n"
    path = write("triangle.mat", text)
    with pytest.raises(SystemExit) as exc:
        main(["check-tdi", path, "--alpha-box", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha-box 1" in capsys.readouterr().err
    section = _tdi_oracle_section(text)
    assert section["verdict"] is False
    assert section["search_bounds"]["alpha_box"] == [-2, 2]


def test_tdi_oracle_on_a_matrix_with_negative_entries():
    # alpha = (-1, 3) is met at cost 7 by y = (0, 5, 2)
    section = _tdi_oracle_section("matrix { 2 -1 2 ; -1 1 -1 }\n")
    assert section["verdict"] is False
    assert section["witness"] == {"alpha": [1, -2], "lp_value": "1/2"}
    assert section["search_bounds"] == {"alpha_box": [-2, 3],
                                        "node_budget": 1000000}
    # no integral y of cost at most 1/2, so only y = 0, covers the witness
    cols = [(2, -1), (-1, 1), (2, -1)]
    assert not covering_by_scan(cols, (1, -2), Fraction(1, 2))


def _bipartite_incidence(p, q):
    edges = [(i, p + j) for i in range(p) for j in range(q)]
    rows = [" ".join("1" if v in e else "0" for e in edges)
            for v in range(p + q)]
    return "matrix { " + " ; ".join(rows) + " }\n"


def test_balanced_walk_past_its_budget_exits_3(write, capsys):
    k66 = write("k66.mat", _bipartite_incidence(6, 6))
    code, report = run_json(capsys, ["check-balanced", k66])
    assert code == 0 and report["primary_verdict"] is True
    assert report["results"][0]["search_bounds"] == {"node_budget": 1000000}
    k77 = write("k77.mat", _bipartite_incidence(7, 7))
    assert main(["check-balanced", k77]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: induced-cycle search exceeded its budget "
                            "of 1000000 nodes\n")
    assert captured.out == ""


def test_check_balanced_prints_one_section(write, capsys):
    for text, verdict in (("matrix { 1 0 ; 1 1 ; 0 1 }\n", True),
                          ("matrix { 1 1 0 ; 0 1 1 ; 1 0 1 }\n", False)):
        path = write("m.mat", text)
        code, report = run_json(capsys, ["check-balanced", path])
        assert code == 0 and report["primary_verdict"] is verdict
        [section] = report["results"]
        assert (section["name"], section["method"]) == \
            ("balanced", "theorem-path")
        assert main(["check-balanced", path]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if line.startswith("check ")] == \
            [f"check balanced: {str(verdict).lower()}  [theorem-path]"]


def test_hilbert_basis_command_monomials(write, capsys):
    path = write("k2.graph", "graph { a-b }\n")
    code, report = run_json(capsys, ["hilbert-basis", path, "--cone", "simis"])
    assert code == 0
    monomials = {entry["monomial"] for entry in report["results"][1]["value"]}
    assert monomials == {"x1", "x2", "x1x2 t"}
    # the cover-side cone of the same graph
    code, report = run_json(capsys, ["hilbert-basis", path, "--cone", "rees"])
    assert code == 0
    monomials = {entry["monomial"] for entry in report["results"][1]["value"]}
    assert monomials == {"x1", "x2", "x1 t", "x2 t"}


def test_symbolic_gens_command(write, capsys):
    path = write("k3.graph", "graph { a-b b-c a-c }\n")
    code, report = run_json(capsys, ["symbolic-gens", path])
    assert code == 0
    gens = report["results"][1]["value"]
    assert len(gens) == 7 and "x1x2x3 t^2" in gens


def test_check_commands_on_matrix_and_clutter(write, capsys):
    m = write("m.matrix", "matrix { 1 0 ; 1 1 ; 0 1 }\n")
    code, report = run_json(capsys, ["check-tdi", m])
    assert code == 0 and report["primary_verdict"] is True
    code, report = run_json(capsys, ["check-balanced", m])
    assert code == 0 and report["primary_verdict"] is True
    c = write("c4.clutter", "clutter { {1,2} {2,3} {3,4} {1,4} }\n")
    code, report = run_json(capsys, ["check-mfmc", c])
    assert code == 0 and report["primary_verdict"] is True
    assert report["results"][0]["search_bounds"] == {
        "enumeration_budget": 1000000}
    code, report = run_json(capsys, ["blocker", c])
    assert report["results"][0]["value"] == [["1", "3"], ["2", "4"]]


@pytest.mark.parametrize("command", ["check-mfmc", "covers", "blocker"])
def test_clutter_without_edges_is_bad_input(write, capsys, command):
    assert main([command, write("empty.clutter", "clutter { }\n")]) == 2
    assert capsys.readouterr().err == "error: clutter has no edges\n"


def test_gorenstein_and_cm2_commands(write, capsys):
    c4 = write("c4.graph", "graph { a-b b-c c-d d-a }\n")
    code, report = run_json(capsys, ["check-gorenstein", c4, "--scan-bound", "3"])
    assert code == 0 and report["primary_verdict"] is True
    assert report["results"][0]["search_bounds"]["scan_bound"] == 3
    code, report = run_json(capsys, ["check-cm2-normal", c4])
    assert code == 0 and report["primary_verdict"] is True


def test_labels_are_used_in_rendering(write, capsys):
    g = write("g.graph", "1 2\n2 3\n")
    labels = write("labels.txt", "left mid right\n")
    code, report = run_json(capsys, ["covers", g, "--labels", labels])
    assert code == 0
    assert report["results"][0]["value"] == [["left", "right"], ["mid"]]


def test_json_reports_are_deterministic(write, capsys):
    path = write("c5.graph", PENTAGON)
    _, first = run_json(capsys, ["check-perfect", path])
    _, second = run_json(capsys, ["check-perfect", path])
    assert first["digest"] == second["digest"]
    first.pop("timing_ms"), second.pop("timing_ms")
    assert first == second
    assert first["schema_version"] == 1
    assert set(first["config"]) == {"all_cliques", "cone", "scan_bound",
                                     "strict_clutters"}


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("graph { a-b }\n"))
    code, report = run_json(capsys, ["cliques", "-"])
    assert code == 0
    assert report["results"][0]["value"] == [["a", "b"]]


def test_disagreeing_perfection_paths_exit_4_with_both_reports(
        write, capsys, monkeypatch):
    import dataclasses
    from covercones import checks
    honest = checks.perfect_via_odd_holes

    def flipped(G):
        report = honest(G)
        return dataclasses.replace(report, verdict=not report.verdict)

    monkeypatch.setattr(checks, "perfect_via_odd_holes", flipped)
    assert main(["check-perfect", write("c5.graph", PENTAGON)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "perfect-via-cone" in captured.err
    assert "perfect-via-odd-holes" in captured.err


def test_cm2_normal_records_its_cycle_budget(write, capsys, monkeypatch):
    bounds = {"node_budget": 1000000}
    star = write("star.graph", "graph { 1-2 1-3 1-4 1-5 1-6 1-7 }\n")
    code, report = run_json(capsys, ["check-cm2-normal", star])
    assert code == 0 and report["primary_verdict"] is True
    assert report["results"][0]["search_bounds"] == {
        "hb_budget": 1000000, "enumeration_budget": 1000000, **bounds}
    two_edges = write("2k2.graph", "graph { a-b c-d }\n")
    code, report = run_json(capsys, ["check-cm2-normal", two_edges])
    assert code == 0 and report["primary_verdict"] is None
    assert report["results"][0]["search_bounds"] == bounds
    # the chordality search of the star's complement, K6, expands 15 nodes
    monkeypatch.setattr(errors, "SEARCH_BUDGET", 10)
    assert main(["check-cm2-normal", star]) == 3
    assert capsys.readouterr().err == (
        "error: induced-cycle search exceeded its budget of 10 nodes\n")


def test_cliques_all_lists_every_clique(write, capsys):
    code, report = run_json(capsys, ["cliques", write("c5.graph", PENTAGON),
                                     "--all"])
    assert code == 0
    names, all_cliques = report["results"]
    assert names["name"] == "maximal_cliques" and len(names["value"]) == 5
    assert all_cliques["name"] == "all_cliques"
    assert len(all_cliques["value"]) == 10


def test_covers_minimalize_drops_comparable_edges(write, capsys):
    path = write("nested.clutter", "clutter { {a} {a,b} }\n")
    assert main(["covers", path]) == 2
    assert "comparable edges" in capsys.readouterr().err
    code, report = run_json(capsys, ["covers", path, "--minimalize"])
    assert code == 0
    assert report["results"][0]["value"] == [["a"]]


@pytest.mark.parametrize("flag", [["--cap-n", "3"], ["--hb-dim-cap", "11"],
                                  ["--assume-perfect"]])
def test_removed_flags_are_refused(write, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["symbolic-gens", write("k3.graph", "graph { a-b b-c a-c }\n"),
              *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_vertex_cap_of_documents(write, capsys):
    code, report = run_json(capsys, ["covers", write("k2.graph",
                                                     "graph { 1-128 }\n")])
    assert code == 0 and report["input"]["n"] == 128
    for text in ("graph { 1-129 }\n", "clutter { {1,129} }\n", "1 129\n",
                 "graph { 1-10000000000 }\n"):
        start = time.perf_counter()
        assert main(["cliques", write("big.graph", text)]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.endswith("past the cap of 128\n")
