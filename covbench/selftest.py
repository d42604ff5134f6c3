"""Show that every checker rejects a corrupted report.

Each case runs one real covercones call, checks that the genuine report is
accepted, corrupts it, recomputes its digest (so that only the checker
under test can notice) and checks that the corrupted report is rejected.

    python3 covbench/selftest.py        # exit 0 when every case holds
"""

import json
import sys

import inputs
import oracles
import worker


def _report(cli, command, flags, text):
    _, code, stdout = worker.call(cli, inputs.Call(command, flags, text))
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    return json.loads(stdout)


def _drop_basis_element(report):
    oracles.section(report, "hilbert_basis")["value"].pop()


def _flip_verdict(report):
    report["primary_verdict"] = not report["primary_verdict"]
    for s in report["results"]:
        if s["type"] == "check":
            s["verdict"] = not s["verdict"]


def _certificate_off_by_one(report):
    cert = oracles.section(report, "rees-normal")["certificate"]
    cert["memberships"][-1]["coefficients"][0] += 1


def _drop_cover(report):
    oracles.section(report, "minimal_vertex_covers")["value"].pop()


CASES = [
    # (case, command, flags, graph, encoder, corruption)
    ("dropped Simis basis element", "hilbert-basis", (), inputs.cycle(5),
     inputs.graph_text, _drop_basis_element),
    ("dropped Rees basis element", "hilbert-basis", ("--cone", "rees"),
     inputs.path(4), inputs.graph_text, _drop_basis_element),
    ("flipped perfection verdict", "check-perfect", (), inputs.cycle(5),
     inputs.graph_text, _flip_verdict),
    ("flipped mfmc verdict", "check-mfmc", (), inputs.cycle(4),
     inputs.clutter_text, _flip_verdict),
    ("flipped tdi verdict", "check-tdi", (), inputs.cycle(5),
     inputs.matrix_text, _flip_verdict),
    ("flipped Gorenstein verdict", "check-gorenstein", (), inputs.cycle(5),
     inputs.graph_text, _flip_verdict),
    ("certificate off by one", "check-normal", (), inputs.cycle(4),
     inputs.graph_text, _certificate_off_by_one),
    ("dropped minimal cover", "covers", (), inputs.path(5),
     inputs.graph_text, _drop_cover),
]


def run(cli):
    """[(case, genuine problems, corrupted problems, stale-digest problems)]"""
    results = []
    for case, command, flags, graph, encode, corrupt in CASES:
        ref = oracles.Reference(graph)
        report = _report(cli, command, flags, encode(graph))
        genuine = oracles.check_parsed(command, flags, report, ref)
        corrupt(report)
        stale = oracles.check_parsed(command, flags, report, ref)
        report["digest"] = oracles.report_digest(report)
        corrupted = oracles.check_parsed(command, flags, report, ref)
        results.append((case, genuine, corrupted, stale))
    return results


def passed(results):
    return all(not genuine and corrupted and stale
               for _, genuine, corrupted, stale in results)


def main():
    results = run(worker.import_covercones())
    for case, genuine, corrupted, stale in results:
        ok = not genuine and corrupted and stale
        print(f"{'ok  ' if ok else 'FAIL'} {case}: genuine "
              f"{'accepted' if not genuine else genuine}; corrupted "
              f"{'rejected: ' + corrupted[0] if corrupted else 'ACCEPTED'}; "
              f"stale digest {'rejected' if stale else 'ACCEPTED'}")
    return 0 if passed(results) else 1


if __name__ == "__main__":
    sys.exit(main())
