"""Input documents: parsing of graph / clutter / matrix / ideal files.

Two formats are accepted.  The bespoke grammar is explicit about its kind:

    graph   { a-b b-c c-d d-a }
    clutter { {a,b,d} {b,c,e} }
    matrix  { 1 1 0 ; 0 1 1 }          # rows, ';' separated
    ideal   { [1 1 0] [0 1 1] }        # exponent vectors

Bespoke tokens are the characters {}-,;[] and runs of letters, digits and
'_'; an integer is a digit token after an optional '-' token.  The plain
format has one edge, vertex set or integer row per line, as the command
expects, of whitespace-separated tokens: names may hold the punctuation,
and integers are what int() reads.  Both formats allow the same
characters; '#' starts a comment.  Both read into the same records of
tokens with line and column, and one assembly per kind builds the
InputDocument.  Vertex tokens that are all positive integers are 1-based
indices; otherwise they are names, numbered by first appearance.  Graph
and clutter documents are capped at MAX_VERTICES vertices.
"""

import hashlib
import json
import re
from collections import namedtuple
from dataclasses import dataclass

from .clutters import Clutter, Graph
from .errors import CapExceededError, InputError

KINDS = ("graph", "clutter", "matrix", "ideal")
MAX_VERTICES = 128


class ParseError(InputError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


Token = namedtuple("Token", "text line col")

_PUNCT = set("{}-,;[]")
# on str patterns, \w is str.isalnum() or '_' and \s is str.isspace()
_UNEXPECTED = re.compile(r"[^\w\s{}\-,;\[\]]")
_BESPOKE_TOKEN = re.compile(r"\w+|[{}\-,;\[\]]")
_PLAIN_TOKEN = re.compile(r"\S+")


def _lines(text, pattern):
    """Non-empty lines as token lists; comments dropped, foreign characters refused."""
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if bad := _UNEXPECTED.search(body):
            raise ParseError(f"unexpected character {bad[0]!r}", ln, bad.start() + 1)
        if line := [Token(m[0], ln, m.start() + 1) for m in pattern.finditer(body)]:
            lines.append(line)
    return lines


@dataclass(frozen=True)
class InputDocument:
    kind: str
    labels: tuple          # vertex labels, index i -> labels[i-1]
    graph: Graph | None = None
    clutter: Clutter | None = None
    rows: tuple | None = None       # matrix rows or ideal exponent vectors
    source: str = "<input>"

    @property
    def n(self):
        if self.graph is not None:
            return self.graph.n
        if self.clutter is not None:
            return self.clutter.n
        return len(self.rows[0]) if self.rows else 0

    def payload(self):
        if self.graph is not None:
            return {"n": self.graph.n, "edges": [list(e) for e in self.graph.edges]}
        if self.clutter is not None:
            return {"n": self.clutter.n, "edges": [list(e) for e in self.clutter.edges]}
        return {"rows": [list(r) for r in self.rows]}

    def digest(self):
        blob = json.dumps({"kind": self.kind, "labels": list(self.labels),
                           **self.payload()}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _int(tok):
    """The one integer conversion of both formats, by int()'s rules and limit."""
    try:
        return int(tok.text)
    except ValueError:
        digits = tok.text.removeprefix("-")
        message = (f"integer of {len(digits)} digits is too long" if digits.isdecimal()
                   else f"expected integer, found {tok.text!r}")
        raise ParseError(message, tok.line, tok.col) from None


def _vertex(tok):
    if tok.text in _PUNCT:
        raise ParseError(f"expected vertex, found {tok.text!r}", tok.line, tok.col)
    return tok


def _signed(tok, it):
    """A bespoke integer token; '-' and its digits become one token."""
    num = next(it) if tok.text == "-" else tok
    if not num.text.isdecimal():
        raise ParseError(f"expected integer, found {num.text!r}", num.line, num.col)
    return tok if num is tok else Token("-" + num.text, tok.line, tok.col)


def _pairs(it):
    """a-b pairs: edge records."""
    edges = []
    while (a := next(it)).text != "}":
        if next(it).text != "-":
            raise ParseError("expected '-' between edge endpoints", a.line, a.col)
        edges.append((_vertex(a), _vertex(next(it))))
    return edges


def _groups(it):
    """{a,b,..} groups, with an optional trailing comma: vertex-set records."""
    groups = []
    while (tok := next(it)).text != "}":
        if tok.text != "{":
            raise ParseError(f"expected '{{', found {tok.text!r}", tok.line, tok.col)
        group = []
        while (t := next(it)).text != "}":
            group.append(_vertex(t))
            if (t := next(it)).text == "}":
                break
            if t.text != ",":
                raise ParseError(f"expected ',', found {t.text!r}", t.line, t.col)
        if not group:
            raise ParseError("empty edge", tok.line, tok.col)
        groups.append(group)
    return groups


def _rows(it):
    """';'-separated rows of integers; empty rows are skipped."""
    rows = [[]]
    while (t := next(it)).text != "}":
        if t.text == ";":
            rows.append([])
        else:
            rows[-1].append(_signed(t, it))
    return [row for row in rows if row]


def _vectors(it):
    """[..] vectors of integers."""
    vectors = []
    while (tok := next(it)).text != "}":
        if tok.text != "[":
            raise ParseError(f"expected '[', found {tok.text!r}", tok.line, tok.col)
        vector = []
        while (t := next(it)).text != "]":
            vector.append(_signed(t, it))
        vectors.append(vector)
    return vectors


_READERS = {"graph": _pairs, "clutter": _groups, "matrix": _rows, "ideal": _vectors}


def _vertices(records):
    """Labels and index tuples of vertex records, numbered as the module
    docstring says; the one vertex naming of both formats."""
    tokens = [t for r in records for t in r]
    index = {}
    for tok in tokens:
        if tok.text not in index:
            index[tok.text] = _int(tok) if tok.text.isdecimal() else 0
            if not index[tok.text]:
                names = dict.fromkeys(t.text for t in tokens)
                index = {name: i for i, name in enumerate(names, start=1)}
                break
    else:
        names = range(1, max(index.values(), default=0) + 1)
    if len(names) > MAX_VERTICES:
        raise CapExceededError(f"document names {len(names)} vertices, "
                               f"past the cap of {MAX_VERTICES}")
    return tuple(map(str, names)), [tuple([index[t.text] for t in r]) for r in records]


def _assemble(kind, records, strict, end):
    """(labels, fields) of the document; `end` positions errors that belong
    to no single token."""
    if kind == "graph":
        for r in records:
            if len(r) != 2:
                raise ParseError("expected two vertices per edge", r[0].line, r[0].col)
            if r[0].text == r[1].text:
                raise ParseError(f"loop at vertex {r[0].text!r}", r[0].line, r[0].col)
        labels, edges = _vertices(records)
        return labels, {"graph": Graph(len(labels), edges)}
    if kind == "clutter":
        labels, edges = _vertices(records)
        return labels, {"clutter": Clutter(len(labels), edges, minimalize=not strict)}
    rows = tuple(tuple([_int(t) for t in r]) for r in records)
    if not rows:
        raise ParseError("no rows given", end.line, end.col)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("rows have unequal lengths", end.line, end.col)
    count = len(rows) if kind == "matrix" else len(rows[0])
    return tuple(f"x{i}" for i in range(1, count + 1)), {"rows": rows}


def parse_input(text, expected_kind=None, strict=True, source="<input>"):
    """Parse a document; bespoke blocks declare their own kind, the plain
    line format uses `expected_kind`."""
    tokens = [t for line in _lines(text, _BESPOKE_TOKEN) for t in line]
    if tokens and tokens[0].text in KINDS:
        kind = tokens[0].text
        if len(tokens) < 2 or tokens[1].text != "{":
            raise ParseError(f"expected '{{' after {kind!r}",
                             tokens[0].line, tokens[0].col)
        it = iter(tokens[2:])
        try:
            records = _READERS[kind](it)
        except StopIteration:
            raise ParseError(f"unterminated {kind} block",
                             tokens[-1].line, tokens[-1].col) from None
        if (t := next(it, None)) is not None:
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    elif expected_kind is None:
        raise ParseError("cannot infer the input kind; use the bespoke syntax", 1, 1)
    elif not tokens:
        raise ParseError("empty input", 1, 1)
    else:
        kind, records = expected_kind, _lines(text, _PLAIN_TOKEN)
    labels, fields = _assemble(kind, records, strict, end=tokens[-1])
    return InputDocument(kind=kind, labels=labels, source=source, **fields)


def read_labels(text):
    names = text.split()
    if len(set(names)) != len(names):
        raise InputError("duplicate labels in label file")
    return tuple(names)


def format_inequality(halfspace):
    """Primitive-coefficient inequality with negative terms moved right:
    (1, 1, -1) >= 0 prints as 'a1 + a2 >= a3'."""
    left = []
    right = []
    for i, c in enumerate(halfspace.normal, start=1):
        if c > 0:
            left.append(f"a{i}" if c == 1 else f"{c}*a{i}")
        elif c < 0:
            right.append(f"a{i}" if c == -1 else f"{-c}*a{i}")
    rhs = halfspace.rhs
    if rhs:
        right.append(str(rhs))
    return f"{' + '.join(left) or '0'} >= {' + '.join(right) or '0'}"
