"""Independent oracles used by the tests.

The characteristic polynomial oracle expands det(λI - W) by recursive
cofactors over polynomial entries, where W is the rational random-walk
matrix (zero rows at isolated vertices). It shares no code path with the
modular Hessenberg implementation under test. Practical up to ~8 vertices.

``charpoly_at`` evaluates the same polynomial at one rational point as
det(xD - A)/∏d by Gaussian elimination over Fractions, for graphs without
isolated vertices; it is practical at order 64.

``cheb_u`` builds the Chebyshev polynomials of the second kind by their
recurrence, an independent check on the library's explicit coefficients of
the tridiagonal determinants Λ_k = U_k(λ)/2^k. ``is_connected`` is a plain
breadth-first search.
"""

import math
from collections import deque
from fractions import Fraction

from randic import DomainError, Graph, RatPoly


def cheb_u(k: int) -> RatPoly:
    """Chebyshev polynomial of the second kind: U_k = 2λ·U_{k-1} - U_{k-2}."""
    if k < 0:
        raise DomainError(f"cheb_u requires k >= 0 (got {k})")
    two_x = RatPoly((0, 2))
    prev, cur = RatPoly.one(), two_x
    for _ in range(k):
        prev, cur = cur, two_x * cur - prev
    return prev


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


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
            elif j in g.adjacency[i]:
                row.append(RatPoly((-Fraction(1, degs[i]),)))
            else:
                row.append(RatPoly.zero())
        mat.append(row)
    return det_poly(mat)


def charpoly_at(g: Graph, x) -> Fraction:
    """det(xD - A) / (product of degrees), by elimination over Fractions."""
    degs = g.degrees
    if 0 in degs:
        raise ValueError("isolated vertex: D is singular")
    n = g.n
    rows = [
        [Fraction(x * degs[i]) if i == j else Fraction(-1 if j in g.adjacency[i] else 0) for j in range(n)]
        for i in range(n)
    ]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        top = rows[c]
        det *= top[c]
        for r in range(c + 1, n):
            row = rows[r]
            if row[c]:
                f = row[c] / top[c]
                for j in range(c + 1, n):
                    row[j] -= f * top[j]
    return det / math.prod(degs)
