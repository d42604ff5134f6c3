"""Small exact linear algebra helpers over Z and Q.

Vectors are tuples of ints (or Fractions where stated); matrices are
sequences of row tuples.  Everything is exact, nothing here touches
floating point.
"""

from fractions import Fraction
from math import gcd
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def gcd_vec(v):
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd_vec(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def sign_normalized(v):
    """Flip sign so the first non-zero entry is positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def solve_square(rows, rhs):
    """Solve a square linear system exactly.  Returns a Fraction tuple or
    None when the matrix is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


def diagonalize(columns):
    """Diagonalize the d x k integer matrix S whose columns are `columns`
    (k <= d) by unimodular row and column operations: U S V = D, with D
    zero off its leading k x k diagonal.

    Returns (diag, V) where diag is the list of the k diagonal entries of D
    and V is the k x k column transform as a list of rows.  Only V is
    tracked: with the columns linearly independent, the lattice points of
    span S are U^{-1}(Z^k x 0) and S Z^k is U^{-1}(D Z^k), so the cosets of
    S Z^k are indexed by c in the box prod [0, |d_i|), and the coset of c has
    coordinates V D^{-1} c over the columns.
    """
    d = len(columns[0])
    k = len(columns)
    m = [[s[i] for s in columns] for i in range(d)]
    v = [[int(i == j) for j in range(k)] for i in range(k)]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_col(i, j, q):
        # col_i -= q * col_j, in S and in V alike
        for r in m:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    for p in range(k):
        while True:
            best = None
            for i in range(p, d):
                for j in range(p, k):
                    if m[i][j] and (best is None or abs(m[i][j]) < best[0]):
                        best = (abs(m[i][j]), i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != p:
                m[p], m[bi] = m[bi], m[p]
            if bj != p:
                swap_cols(p, bj)
            done = True
            for i in range(p + 1, d):
                if m[i][p]:
                    q = m[i][p] // m[p][p]
                    m[i] = [a - q * b for a, b in zip(m[i], m[p])]
                    if m[i][p]:
                        done = False
            for j in range(p + 1, k):
                if m[p][j]:
                    add_col(j, p, m[p][j] // m[p][p])
                    if m[p][j]:
                        done = False
            if done and all(m[i][p] == 0 for i in range(p + 1, d)) \
                    and all(m[p][j] == 0 for j in range(p + 1, k)):
                break
    return [m[i][i] for i in range(k)], v
