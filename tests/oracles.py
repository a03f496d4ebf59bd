"""Independent oracles used by the tests.

The characteristic polynomial oracle expands det(λI - W) by cofactors over
polynomial entries, where W is the rational random-walk matrix (zero rows at
isolated vertices). It shares no code path with the modular Hessenberg
implementation under test. Each minor is expanded once, so it is practical
up to ~12 vertices.

``charpoly_at`` evaluates the same polynomial at one rational point x = a/b
as det(aD - bA)/(bⁿ·∏d), the determinant by fraction-free elimination in
integers, for graphs without isolated vertices; it is practical at order 64.

``charpoly_mod_p`` computes det(λI - H) of a matrix over Z/p with neither
a Hessenberg form nor a recurrence: the determinant by elimination mod p at
the n + 1 points λ = 0, ..., n, then Lagrange interpolation.

``weighted_matching_polynomial`` is Sachs' coefficient theorem on a forest
(Cvetkovic, Doob and Sachs, Spectra of Graphs, 1980): no cycles, so
det(λD - A) is the sum over matchings M of (-1)^|M| times the product of
d_w·λ over the vertices w that M leaves free (Godsil and Gutman, J. Graph
Theory 5, 1981), with λ in place of d_w·λ for an isolated vertex, in
integers, by one dynamic program per rooted tree. The diagonal D may also
be given, so that a forest cut from a larger graph keeps that graph's
degrees: the edge recurrence of a graph with cycles reduces it to such
forests. ``matching_number`` is greedy leaf matching, which is maximum on
a forest: the Randic eigenvalue 0 of a forest has multiplicity n - 2ν
(Cvetkovic and Gutman, Mat. Vesnik 9, 1972).

``schoolbook_product`` multiplies two coefficient lists term by term in
``Fraction`` arithmetic, the reference for ``RatPoly``'s integer
convolution, and ``format_fractions`` renders a polynomial from its
``Fraction`` coefficients, the reference for ``format_poly``, which works
from the integer numerators.

``power_by_squaring`` raises a ``RatPoly`` to a power by repeated squaring,
the reference for ``RatPoly.__pow__``, which uses Miller's recurrence.

``neighbours`` gives a graph's neighbour lists, each sorted ascending; the
library keeps none. ``bfs_order_and_depths`` is a breadth-first search over
them, the reference for ``graphs._bfs``, which walks neighbour bitmasks.

``cheb_u`` builds the Chebyshev polynomials of the second kind by their
recurrence, an independent check on the library's explicit coefficients of
the tridiagonal determinants Λ_k = U_k(λ)/2^k. ``is_connected`` is a plain
breadth-first search, ``randic_index`` the sum over the edges of
1/sqrt(d_u d_v), and ``disjoint_union`` places a second graph's vertices
after the first's.

``_max_root_residual`` is max |φ(λ)| over a spectrum, by Horner in floats.
Its rounding grows with the coefficients (about 2n·u·Σ|c_i||λ|^i), so it
serves as a check at moderate orders only.
"""

import math
from collections import deque
from functools import cache
from fractions import Fraction

from randic import DomainError, Graph, RatPoly, Spectrum


def cheb_u(k: int) -> RatPoly:
    """Chebyshev polynomial of the second kind: U_k = 2λ·U_{k-1} - U_{k-2}."""
    if k < 0:
        raise DomainError(f"cheb_u requires k >= 0 (got {k})")
    two_x = RatPoly((0, 2))
    prev, cur = RatPoly.one(), two_x
    for _ in range(k):
        prev, cur = cur, two_x * cur - prev
    return prev


def schoolbook_product(a, b) -> tuple[Fraction, ...]:
    """Ascending coefficients of the product, trailing zeros trimmed."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def format_fractions(p: RatPoly, descending: bool = True) -> str:
    """``format_poly`` written on ``str`` and ``abs`` of each Fraction."""
    terms = [(k, c) for k, c in enumerate(p.coeffs) if c != 0]
    if not terms:
        return "0"
    if descending:
        terms.reverse()
    parts = []
    for idx, (k, c) in enumerate(terms):
        mag = abs(c)
        var = "" if k == 0 else "λ" if k == 1 else f"λ^{k}"
        body = str(mag) if not var else var if mag == 1 else f"{mag}·{var}"
        sign = ("" if c > 0 else "-") if idx == 0 else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts)


def power_by_squaring(p: RatPoly, m: int) -> RatPoly:
    """p**m from products alone: square the base, multiply in the set bits of m."""
    result = RatPoly.one()
    while m:
        if m & 1:
            result = result * p
        m >>= 1
        if m:
            p = p * p
    return result


def neighbours(g: Graph) -> list[list[int]]:
    """Neighbour lists of ``g``, each sorted ascending."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(ns) for ns in nbrs]


def bfs_order_and_depths(g: Graph) -> tuple[list[int], list[int]]:
    """Visiting order and depths of a breadth-first search of every
    component from its smallest vertex, neighbours in ascending order."""
    nbrs = neighbours(g)
    depth = [-1] * g.n
    order = []
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in nbrs[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    queue.append(w)
    return order, depth


def randic_index(g: Graph) -> float:
    """Sum over edges of 1/sqrt(d_i*d_j)."""
    degs = g.degrees
    return sum(1.0 / math.sqrt(degs[u] * degs[v]) for u, v in g.edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Union with g2's vertices relabeled by offset g1.n."""
    off = g1.n
    edges = set(g1.edges)
    edges.update((u + off, v + off) for u, v in g2.edges)
    return Graph(g1.n + g2.n, frozenset(edges))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    nbrs = neighbours(g)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def det_poly(mat: list[list[RatPoly]]) -> RatPoly:
    """Laplace expansion along the rows, memoized on the set of columns still
    free, so each minor is expanded once: n·2^n products in place of n!."""
    n = len(mat)

    @cache
    def minor(cols: int) -> RatPoly:
        if not cols:
            return RatPoly.one()
        row = mat[n - cols.bit_count()]
        total = RatPoly.zero()
        sign = 1
        for j in range(n):
            if cols >> j & 1:
                if not row[j].is_zero:
                    term = row[j] * minor(cols & ~(1 << j))
                    total = total + term if sign > 0 else total - term
                sign = -sign
        return total

    return minor((1 << n) - 1)


def charpoly_bruteforce(g: Graph) -> RatPoly:
    degs, nbrs = g.degrees, neighbours(g)
    lam = RatPoly.x()
    mat = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            if i == j:
                row.append(lam)
            elif j in nbrs[i]:
                row.append(RatPoly((-Fraction(1, degs[i]),)))
            else:
                row.append(RatPoly.zero())
        mat.append(row)
    return det_poly(mat)


def charpoly_at(g: Graph, x) -> Fraction:
    """det(xD - A) / (product of degrees) at x = a/b, as det(aD - bA) over
    b^n times the product of degrees, the integer determinant by Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968): after step c, each
    entry below row c is a minor of the matrix, so every division is exact."""
    degs = g.degrees
    if 0 in degs:
        raise ValueError("isolated vertex: D is singular")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    n, nbrs = g.n, neighbours(g)
    rows = [[a * degs[i] if i == j else -b if j in nbrs[i] else 0 for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        top = rows[c]
        p = top[c]
        for row in rows[c + 1 :]:
            f = row[c]
            row[c + 1 :] = [(p * u - f * v) // prev for u, v in zip(row[c + 1 :], top[c + 1 :])]
        prev = p
    return Fraction(sign * prev, b**n * math.prod(degs))


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant over Z/p by Gaussian elimination with row swaps; ``rows``
    is overwritten."""
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        top = rows[c]
        det = det * top[c] % p
        inv = pow(top[c], -1, p)
        tail = top[c + 1 :]
        for row in rows[c + 1 :]:
            f = row[c] * inv % p
            if f:
                # column c is not read again
                row[c + 1 :] = [(u - f * v) % p for u, v in zip(row[c + 1 :], tail)]
    return det % p


def charpoly_mod_p(h: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of det(λI - H) mod p, for a prime p above the
    order n: the determinant at λ = 0, ..., n, then Lagrange interpolation."""
    n = len(h)
    xs = range(n + 1)
    ys = [_det_mod_p([[((x if i == j else 0) - h[i][j]) % p for j in range(n)] for i in range(n)], p) for x in xs]
    coeffs = [0] * (n + 1)
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        basis, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != k:
                # basis *= (λ - x_j)
                basis = [(a - xj * b) % p for a, b in zip([0] + basis, basis + [0])]
                denom = denom * (xk - xj) % p
        f = yk * pow(denom, -1, p) % p
        coeffs = [(c + f * b) % p for c, b in zip(coeffs, basis)]
    return coeffs


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b + [0] * (len(a) - len(b)))]


def _forest_order(g: Graph) -> list[tuple[int, int]]:
    """(vertex, parent) pairs of a breadth-first search from each component's
    least vertex, parents first; ValueError if ``g`` has a cycle."""
    nbrs = neighbours(g)
    parent = [None] * g.n
    visits = []
    for root in range(g.n):
        if parent[root] is not None:
            continue
        parent[root] = -1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            visits.append((u, parent[u]))
            for w in nbrs[u]:
                if parent[w] is None:
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    raise ValueError("not a forest: the graph has a cycle")
    return visits


def weighted_matching_polynomial(g: Graph, degrees=None) -> list[int]:
    """Ascending integer coefficients of det(λD - A) of a forest, with λ in
    place of d_w·λ for a vertex w of degree 0: the sum over matchings M of
    (-1)^|M| times the product over the vertices w that M leaves free of
    d_w·λ. D holds ``degrees``, by default the forest's own; a forest cut
    from a larger graph can keep that graph's. Per vertex v of a rooted
    tree, ``free[v]`` sums the matchings of v's subtree that leave v free,
    without v's own factor, and ``total[v]`` sums all of them with it;
    matching v to its child c takes -free[c]."""
    degs = g.degrees if degrees is None else degrees
    visits = _forest_order(g)
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v, up in visits:
        if up >= 0:
            children[up].append(v)
    free: list[list[int]] = [[]] * g.n
    total: list[list[int]] = [[]] * g.n
    for v, _ in reversed(visits):
        unmatched, matched = [1], [0]
        for c in children[v]:
            matched = _poly_add(_poly_mul(matched, total[c]), _poly_mul(unmatched, [-x for x in free[c]]))
            unmatched = _poly_mul(unmatched, total[c])
        free[v] = unmatched
        total[v] = _poly_add(_poly_mul([0, degs[v] or 1], unmatched), matched)
    poly = [1]
    for v, up in visits:
        if up < 0:
            poly = _poly_mul(poly, total[v])
    return poly


def matching_number(g: Graph) -> int:
    """Size of a maximum matching of a forest, by greedy leaf matching: a
    leaf is matched to its neighbour, both leave, and so on."""
    _forest_order(g)
    left = [set(nbrs) for nbrs in neighbours(g)]
    leaves = [v for v in range(g.n) if len(left[v]) == 1]
    size = 0
    while leaves:
        v = leaves.pop()
        if len(left[v]) != 1:
            continue
        (u,) = left[v]
        size += 1
        for w in (u, v):
            for x in left[w]:
                left[x].discard(w)
                if len(left[x]) == 1:
                    leaves.append(x)
            left[w] = set()
    return size


def _max_root_residual(poly: RatPoly, spectrum: Spectrum) -> float:
    # Horner in floats on coefficients converted once; n / den is correctly
    # rounded, so each equals float(Fraction(n, den)) and the result is
    # bit-identical to float(poly(v)), where Fraction.__radd__ does
    # float(c) + acc every step
    den = poly.den
    coeffs = [c / den for c in reversed(poly.nums)]

    def at(v: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * v + c
        return acc

    return max(abs(at(v)) for v in spectrum.values)
