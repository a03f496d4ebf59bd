"""Independent oracles used by the tests.

The characteristic polynomial oracle expands det(λI - W) by recursive
cofactors over polynomial entries, where W is the rational random-walk
matrix (zero rows at isolated vertices). It shares no code path with the
modular Hessenberg implementation under test. Practical up to ~8 vertices.
"""

from fractions import Fraction

from randic import Graph, RatPoly


def det_poly(mat: list[list[RatPoly]]) -> RatPoly:
    n = len(mat)
    if n == 0:
        return RatPoly.one()
    if n == 1:
        return mat[0][0]
    total = RatPoly.zero()
    for j, entry in enumerate(mat[0]):
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = entry * det_poly(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def charpoly_bruteforce(g: Graph) -> RatPoly:
    degs = g.degrees
    lam = RatPoly.x()
    mat = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            if i == j:
                row.append(lam)
            elif g.has_edge(i, j):
                row.append(RatPoly((-Fraction(1, degs[i]),)))
            else:
                row.append(RatPoly.zero())
        mat.append(row)
    return det_poly(mat)
