"""Seeded fuzzing of the command line's exit-code contract.

Small documents in each bespoke block and in the plain line format are
mutated by deleting, inserting and replacing punctuation, digits, names and
kind keywords.  Every command runs on every mutant, and must end in exit 0
(done), 2 (bad input) or 3 (cap exceeded), with stderr empty or a single
`error:` line, and without an exception leaving `main`.
"""

import json
import random

from covercones.cli import COMMANDS, main

DOCUMENTS = (
    "graph { a-b b-c c-d d-e e-a }\n",
    "clutter { {a,b,d} {b,c,e} {a,c} }\n",
    "matrix { 1 1 0 ; 0 1 1 ; 1 0 1 }\n",
    "ideal { [1 1 0] [0 1 1] [1 0 1] }\n",
    "1 2\n2 3\n3 1  # a triangle\n",
)


def _matrix(rows):
    return "matrix { " + " ; ".join(" ".join(map(str, r)) for r in rows) + " }\n"


# larger inputs: the incidence matrix of C10, whose 11-dimensional cone
# check-tdi takes a Hilbert basis of and whose 20-vertex row/column graph
# check-balanced walks for induced cycles; a 2 x 20 0/1 matrix with zero
# and repeated columns, which check-tdi and check-balanced answer and
# dual-ideal refuses (its column (1, 1) dualizes to zero); and the 16-edge
# perfect matching, whose 2^16 minimal vertex covers put every command that
# enumerates covers past the search budget
LARGE = (
    _matrix([[int(v in (j, (j + 1) % 10)) for j in range(10)]
             for v in range(10)]),
    "matrix { 1 1 0 1 0 1 0 0 0 1 0 0 0 1 0 0 0 0 0 0 ;"
    " 0 0 1 1 1 1 0 1 0 1 0 0 0 0 1 0 1 1 0 1 }\n",
    "graph { " + " ".join(f"{v}-{v + 1}" for v in range(1, 32, 2)) + " }\n",
)
PIECES = (tuple("{}[]-,;#") + tuple("0123456789")
          + ("a", "b", "z_1", " ", "\n")
          + ("graph", "clutter", "matrix", "ideal"))
MUTANTS_PER_DOCUMENT = 25


def mutate(text, rng):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice(("delete", "insert", "replace"))
        if op == "insert" or not text:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
    return text


def test_every_command_on_mutated_inputs_keeps_the_exit_code_contract(
        tmp_path, capsys):
    rng = random.Random(20261019)
    inputs = [doc.encode() for doc in DOCUMENTS]
    inputs += [mutate(doc, rng).encode() for doc in DOCUMENTS
               for _ in range(MUTANTS_PER_DOCUMENT)]
    inputs.append(b"graph { a-b \xff\xfe }\n")     # not UTF-8
    # digit tokens that int() refuses, and integers past its digit limit
    long = "1" * 5000
    inputs += [doc.encode() for doc in (
        "graph { ²-1 }\n", "matrix { 1 ² ; 1 1 }\n", "1 ²\n",
        f"matrix {{ 1 {long} ; 1 1 }}\n", f"graph {{ 1-{long} }}\n", f"1 {long}\n")]
    # short documents that name more vertices than the cap
    capped = {b"graph { 1-10000000000 }\n", b"graph { 1-129 }\n"}
    inputs += sorted(capped)
    inputs += [doc.encode() for doc in LARGE]
    path = tmp_path / "input.txt"
    codes = {0: 0, 2: 0, 3: 0}
    for data in inputs:
        path.write_bytes(data)
        for command in sorted(COMMANDS):
            code = main([command, str(path), "--json"])
            out, err = capsys.readouterr()
            context = (command, data)
            assert code in codes, context
            assert code == 3 or data not in capped, context
            codes[code] += 1
            if code == 0:
                assert err == "", context
                json.loads(out)
            else:
                assert out == "" and err.startswith("error:"), context
                assert err.count("\n") == 1 and err.endswith("\n"), context
    # the contract is exercised on both sides: some mutants still parse
    assert codes[0] > 0 and codes[2] > 0
