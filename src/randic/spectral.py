"""Degree-normalized (Randic) matrices, exact characteristic polynomials,
a tridiagonal-reduction + implicit-shift QL eigensolver, and the two
spectral energies.

The Randic matrix has entry 1/sqrt(d_i*d_j) on adjacent pairs. Its entries
are irrational, but it is similar (via D^{1/2}) to the random-walk matrix
W = D^{-1}A whose entries are rational, so the characteristic polynomial is
computed exactly on W: isolated vertices are split off first (each
contributes one factor of λ, and D is singular there), then twin vertices.
A class of t vertices of degree d with one open neighbourhood N(v) puts
W(e_u - e_v) = 0, t - 1 factors of λ; one with a closed neighbourhood N[v]
puts W(e_u - e_v) = -(e_u - e_v)/d, t - 1 factors of λ + 1/d. The classes
form an equitable partition, and the rest is the characteristic polynomial
of its quotient, one vertex per class, computed by a Hessenberg reduction
modulo a prime from a table of certified primes, the smallest above an
a-priori bound on the coefficients of the quotient's det(λD' - A'), lifted
back to rationals.

The eigensolver first splits off twins: indices whose rows agree outside
the pair and whose diagonals agree, compared exactly (in a graph's Randic or
adjacency matrix, vertices with the same open or closed neighbourhood; see
Cvetkovic, Rowlinson and Simic, An Introduction to the Theory of Graph
Spectra, 1.3). A class of t twins gives t - 1 known eigenvalues and one
merged index, by an orthogonal similarity, so a degenerate spectrum
(complete, complete bipartite, star, friendship) skips most or all of the
cubic reduction. What remains is cut into the connected components of its
support, read from the support bitmasks the twin pass already has, and each
block is brought to tridiagonal form on its own. A bipartite block (zero
diagonal, 2-colourable support) is [[0, B], [B^T, 0]] with one colour class
first; its eigenvalues are the singular values of B and their negatives,
and Golub-Kahan bidiagonalization (Golub and Kahan, SIAM J. Numer. Anal. B
2, 1965) reduces B alone, at about a sixth of the arithmetic of Householder
tridiagonalization on the whole block, which any other block goes through.
The blocks' tridiagonals are joined and solved by one QL run.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import ConvergenceError, DomainError
from .graphs import Graph, _bfs
from .ratpoly import RatPoly, convolve

DEFAULT_SOLVER_TOL = 1e-12
QL_ITERATION_CAP = 30
EXACT_ORDER_CAP = 128
# the energies build a dense matrix of the non-isolated vertices and run a
# cubic solver on it; beyond this order they raise DomainError instead
ENERGY_ORDER_CAP = 1024


@dataclass(frozen=True)
class SymMatrix:
    """Dense symmetric matrix of floats (row-major tuple of row tuples)."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @property
    def order(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted non-increasing, multiplicities as repeats."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(self.values[i] < self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("spectrum must be sorted non-increasing")

    def __len__(self) -> int:
        return len(self.values)


def randic_matrix(g: Graph) -> SymMatrix:
    """Matrix with (i,j) entry 1/sqrt(d_i*d_j) when i~j, else 0."""
    n = g.n
    degs = g.degrees
    rows = [[0.0] * n for _ in range(n)]
    for u, v in g.edges:
        w = 1.0 / math.sqrt(degs[u] * degs[v])
        rows[u][v] = w
        rows[v][u] = w
    return SymMatrix(tuple(tuple(r) for r in rows))


def adjacency_matrix(g: Graph) -> SymMatrix:
    """Plain 0/1 adjacency matrix."""
    n = g.n
    rows = [[0.0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u][v] = 1.0
        rows[v][u] = 1.0
    return SymMatrix(tuple(tuple(r) for r in rows))


def randic_index(g: Graph) -> float:
    """Sum over edges of 1/sqrt(d_i*d_j)."""
    degs = g.degrees
    return sum(1.0 / math.sqrt(degs[u] * degs[v]) for u, v in g.edges)


# The moduli of the exact route, ascending, each a proven prime stored with
# its certificate, so no primality test runs here: (p, None) for a Mersenne
# prime p = 2^e - 1 (Lucas-Lehmer), and (p, a) for a Proth prime
# p = k·2^e + 1 with k odd and k < 2^e, prime because a^((p-1)/2) = -1 mod p
# (Proth's theorem). From 2^61 - 1 on there is a Proth prime of exactly 30j
# bits for each j >= 3, so a residue is at most one 30-bit digit of a Python
# int wider than the bound. The table ends at the first prime above the bound
# 2·127^128·C(128, 64) of any quotient within EXACT_ORDER_CAP; a higher cap
# needs larger primes here.
CERTIFIED_PRIMES = (
    ((1 << 61) - 1, None),
    ((1 << 89) - 1, None),
    ((65503 << 74) + 1, 3),
    ((1 << 107) - 1, None),
    ((65521 << 104) + 1, 3),
    ((1 << 127) - 1, None),
    ((65517 << 134) + 1, 7),
    ((65523 << 164) + 1, 7),
    ((65493 << 194) + 1, 5),
    ((64933 << 224) + 1, 3),
    ((65517 << 254) + 1, 7),
    ((65503 << 284) + 1, 3),
    ((65323 << 314) + 1, 3),
    ((65467 << 344) + 1, 3),
    ((65499 << 374) + 1, 5),
    ((65391 << 404) + 1, 5),
    ((64887 << 434) + 1, 7),
    ((65527 << 464) + 1, 3),
    ((65505 << 494) + 1, 13),
    ((1 << 521) - 1, None),
    ((65515 << 524) + 1, 3),
    ((65139 << 554) + 1, 5),
    ((64767 << 584) + 1, 5),
    ((1 << 607) - 1, None),
    ((65389 << 614) + 1, 3),
    ((65535 << 644) + 1, 7),
    ((64359 << 674) + 1, 5),
    ((65391 << 704) + 1, 5),
    ((64659 << 734) + 1, 5),
    ((65527 << 764) + 1, 3),
    ((65293 << 794) + 1, 3),
    ((64981 << 824) + 1, 3),
    ((64915 << 854) + 1, 3),
    ((64543 << 884) + 1, 3),
    ((64555 << 914) + 1, 3),
    ((65373 << 944) + 1, 23),
    ((64845 << 974) + 1, 7),
    ((65445 << 1004) + 1, 13),
)


def _modulus(bound: int) -> int:
    """Smallest prime of ``CERTIFIED_PRIMES`` above ``bound``."""
    for p, _ in CERTIFIED_PRIMES:
        if p > bound:
            return p
    raise DomainError(
        f"exact characteristic polynomial needs a prime modulus above a {bound.bit_length()}-bit "
        f"bound; the largest certified prime has {CERTIFIED_PRIMES[-1][0].bit_length()} bits"
    )


def _hessenberg_charpoly(h: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial det(λI - H) of a matrix over Z/p.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9:
    reduce H to upper Hessenberg form by elementary similarity transforms
    (any nonzero pivot, with a row and column swap), then run the
    Hessenberg determinant recurrence. ``h`` holds residues in [0, p) and
    is overwritten. Returns ascending coefficients in [0, p), c[n] = 1.
    """
    n = len(h)
    for m in range(1, n - 1):
        col = m - 1
        piv = next((i for i in range(m, n) if h[i][col]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][col], -1, p)
        tail = h[m][m:]
        # row_i -= u_i * row_m for each i > m (as row_i += (p - u_i) * row_m,
        # which keeps the operands non-negative); these transforms commute,
        # so the inverse column updates are applied together afterwards
        idx, mults = [], []
        for i in range(m + 1, n):
            row = h[i]
            if row[col]:
                u = row[col] * inv % p
                neg = p - u
                row[col] = 0
                row[m:] = [(a + neg * b) % p for a, b in zip(row[m:], tail)]
                idx.append(i)
                mults.append(u)
        if len(idx) == 1:
            i, u = idx[0], mults[0]
            for row in h:
                if row[i]:
                    row[m] = (row[m] + u * row[i]) % p
        elif idx:
            # column_m += sum of u_i * column_i
            pick = operator.itemgetter(*idx)
            for row in h:
                row[m] = (row[m] + sum(map(operator.mul, pick(row), mults))) % p
    # P_0 = 1; P_{m+1} = (λ - h_mm) P_m - sum_i (h_{m,m-1}...h_{m-i+1,m-i}) h_{m-i,m} P_{m-i}
    # Column m's terms stop at its first nonzero row: every later one has
    # h_{m-i,m} = 0, so a tridiagonal or sparse core costs O(n) terms, not O(n^2)
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        hm = h[m][m]
        acc = [-hm * c for c in prev] + [0]
        acc[1:] = [a + c for a, c in zip(acc[1:], prev)]
        top = next((r for r in range(m) if h[r][m]), m)
        t = 1
        for i in range(1, m - top + 1):
            t = t * h[m - i + 1][m - i] % p
            if not t:
                break
            s = t * h[m - i][m] % p
            if s:
                q = polys[m - i]
                acc[: len(q)] = [a - s * c for a, c in zip(acc, q)]
        polys.append([a % p for a in acc])
    return polys[n]


def charpoly_exact(g: Graph) -> RatPoly:
    """Monic degree-n characteristic polynomial of the Randic matrix, exact.

    Computed on the similar rational matrix W = D^{-1}A after splitting off
    isolated vertices (factor λ each). The k vertices left are grouped by
    open neighbourhood N(v) and by closed neighbourhood N[v]; no vertex is in
    a class of two or more of each kind. A class of t open twins of degree d
    gives λ^(t-1), since W(e_u - e_v) = 0, and a class of t closed twins
    gives (λ + 1/d)^(t-1), since W(e_u - e_v) = -(e_u - e_v)/d. One
    representative per class remains, k' in all. The quotient has
    A'[I][J] = |J|·A[i][j] between classes, |J| - 1 on the diagonal of a
    closed class and 0 on that of an open one, and D' the representatives'
    degrees. The classes are an equitable partition: the class-constant
    vectors are invariant under W, which acts on them as W' = D'^{-1}A', so
    the characteristic polynomial of W is that of W' times the twin factors,
    and the eigenvalues of W' are some of those of W, in [-1, 1]. With P' the
    product of D', N'(λ) = det(λD' - A') = P'·det(λI - W') then has integer
    coefficients with |N'_j| <= P'·C(k', j), and one Hessenberg charpoly of
    W' modulo a prime p > 2·P'·C(k', k'/2) (the smallest in
    ``CERTIFIED_PRIMES`` that large) determines N' exactly: each coefficient
    is lifted into (-p/2, p/2). The integer factors dλ and dλ + 1, one per
    twin beyond its class's representative, are multiplied in, and each
    coefficient is divided by the product of all k degrees. A twin-free
    graph is its own quotient. Raises DomainError when k exceeds
    ``EXACT_ORDER_CAP``, or when no certified prime is large enough.
    """
    degs = g.degrees
    isolated = degs.count(0)
    k = g.n - isolated
    if k > EXACT_ORDER_CAP:
        raise DomainError(f"exact characteristic polynomial capped at order {EXACT_ORDER_CAP} (got {k})")
    if k == 0:
        return RatPoly.one().shift(isolated)
    # the non-isolated vertices in reversed breadth-first order: the labeling
    # does not change the polynomial, and this one keeps the Hessenberg
    # fill-in of a sparse graph small
    core = [v for v in reversed(_bfs(g)[0]) if degs[v]]
    # twin classes: the vertices of one open neighbourhood N(v) (pairwise
    # non-adjacent) or of one closed neighbourhood N[v] (pairwise adjacent).
    # No N(u) equals an N[v], so one dict holds both kinds of key, and a
    # vertex is in at most one class of two or more.
    twins: dict[frozenset[int], list[int]] = {}
    for v in core:
        nbrs = frozenset(g.adjacency[v])
        twins.setdefault(nbrs, []).append(v)
        twins.setdefault(nbrs | {v}, []).append(v)
    size = dict.fromkeys(core, 1)  # class size by representative
    rep = {v: v for v in core}  # each vertex's class, by its representative
    factors: dict[tuple[int, int], int] = {}  # (d, c) -> m for (dλ + c)^m
    for key, members in twins.items():
        if len(members) > 1:
            first = members[0]
            size[first] = len(members)
            for v in members[1:]:
                rep[v] = first
                del size[v]
            factor = (degs[first], int(first in key))
            factors[factor] = factors.get(factor, 0) + len(members) - 1
    quotient = list(size)
    kq = len(quotient)
    scale = math.prod(degs[v] for v in core)
    scale_q = math.prod(degs[v] for v in quotient)
    p = _modulus(2 * scale_q * math.comb(kq, kq // 2))
    index = {v: i for i, v in enumerate(quotient)}
    inverse = {d: pow(d, -1, p) for d in set(degs[v] for v in quotient)}
    # row I of W' mod p: |J|/d_I at each neighbouring class J (|J| - 1 at
    # I itself, for a closed class)
    w = [[0] * kq for _ in range(kq)]
    for i, u in enumerate(quotient):
        row, inv = w[i], inverse[degs[u]]
        for v in g.adjacency[u]:
            r = rep[v]
            row[index[r]] = (size[r] - (r == u)) * inv % p
    # N'(λ) = det(λD' - A'), lifted into (-p/2, p/2), times the twin factors
    # (dλ + c)^m = sum_j C(m, j) d^j c^(m-j) λ^j, all integers
    half = p // 2
    num = []
    for c in _hessenberg_charpoly(w, p):
        c = c * scale_q % p
        num.append(c - p if c > half else c)
    for (d, c), m in factors.items():
        num = convolve([math.comb(m, j) * d**j * c ** (m - j) for j in range(m + 1)], num)
    return RatPoly([Fraction(c, scale) for c in num]).shift(isolated)


def _reflector(x: list[float]) -> tuple[list[float], float, float]:
    """Householder reflector I - beta*v*v^T taking a nonzero x onto r*e1.

    Returns (v, beta, r). Normalizing x first keeps beta in [1/2, 1] even
    when x is rounding residue near underflow.
    """
    norm = math.hypot(*x)
    v = [xi / norm for xi in x]
    x0 = v[0]
    alpha = -math.copysign(1.0, x0)
    v[0] = x0 - alpha
    return v, 1.0 / (1.0 + abs(x0)), alpha * norm  # beta = 2 / (v.v)


def _tridiagonalize(rows) -> tuple[list[float], list[float]]:
    """Householder reduction of a symmetric matrix to tridiagonal form.

    ``rows`` are the rows of a full symmetric matrix, as any sequences; they
    are read, never written. Returns the diagonal d and the subdiagonal e
    (e[i] couples d[i] and d[i+1]; e[-1] = 0). Eigenvalues only: the
    reflections are not accumulated. A column already zero below its
    subdiagonal is skipped, so a tridiagonal input (a path) costs O(n^2).
    """
    n = len(rows)
    a = list(rows)
    d = [row[i] for i, row in enumerate(a)]
    e = [0.0] * n
    # step k replaces each row i > k by a new list of its columns k+1..n-1
    # (the columns left of the trailing block are never read again), so a
    # row always ends at column n-1 and column j of row i is a[i][j - n]
    for k in range(n - 2):
        lo = k + 1
        # column k below the diagonal, read from row k by symmetry
        v = a[k][lo - n :]
        if not any(v[1:]):
            e[k] = v[0]
            continue
        v, beta, e[k] = _reflector(v)
        # trailing block B -= v w^T + w v^T with p = beta*B*v, w = p - (beta*p.v/2)*v
        p = [beta * sum(map(operator.mul, a[i][lo - n :], v)) for i in range(lo, n)]
        half = 0.5 * beta * sum(map(operator.mul, p, v))
        w = [pi - half * vi for pi, vi in zip(p, v)]
        for i in range(lo, n):
            vi = v[i - lo]
            wi = w[i - lo]
            # the sum is commutative, so the block stays exactly symmetric
            a[i] = row = [x - (vi * wj + wi * vj) for x, vj, wj in zip(a[i][lo - n :], v, w)]
            d[i] = row[i - lo]
    if n >= 2:
        e[n - 2] = a[n - 2][-1]
    return d, e


def _bidiagonalize(b, q: int) -> list[float]:
    """Golub-Kahan upper bidiagonalization of a p x q matrix B, p <= q.

    ``b`` are the p rows of B, as any sequences of length q; they are read,
    never written. Reflections from the left (on column k) and the right (on
    row k past its diagonal) give U^T B V upper bidiagonal, with diagonal
    a_1..a_p and superdiagonal b_1..b_p (b_p couples row p to column p+1,
    and is 0 when q = p). Returns a_1, b_1, ..., a_p, b_p: the subdiagonal
    of the tridiagonal that [[0, B], [B^T, 0]] becomes with its indices in
    the order column 1, row 1, column 2, row 2, ... (Golub and Van Loan,
    Matrix Computations, 5.4.8 and 8.6.1). A column or row already zero
    past its first entry is skipped, so an upper bidiagonal B costs O(pq).
    """
    p = len(b)
    a = list(b)
    e: list[float] = []
    # as in _tridiagonalize, a row always ends at column q-1, so column j of
    # row i is a[i][j - q]; a reflection replaces rows by shorter lists
    for k in range(p):
        lo = k + 1
        x = list(map(operator.itemgetter(k - q), a[k:]))
        if lo == q:
            # the last row of a square B: a 1 x 1 block is left
            e += [x[0], 0.0]
            break
        top = a[k][lo - q :]
        left = any(x[1:])
        if not left and not any(top[1:]):
            e += [x[0], top[0]]
            continue
        rest = [a[i][lo - q :] for i in range(lo, p)]
        # the left reflection I - beta*v*v^T on rows k..p-1 takes column k
        # onto alpha*e1 and row i to row_i - c_i*u, with u = v^T R, c_i = beta*v_i
        if left:
            v, beta, alpha = _reflector(x)
            u = [sum(map(operator.mul, v, col)) for col in zip(top, *rest)]
            cs = [beta * vi for vi in v]
            top = [y - cs[0] * uj for y, uj in zip(top, u)]
        else:
            alpha, u, cs = x[0], [0.0] * (q - lo), [0.0] * (p - k)
        # the right reflection I - gamma*w*w^T on columns lo..q-1 takes row k
        # (past its diagonal) onto b_k*e1
        if any(top[1:]):
            w, gamma, b_k = _reflector(top)
        else:
            w, gamma, b_k = [0.0] * (q - lo), 0.0, top[0]
        e += [alpha, b_k]
        # both applied to rows k+1..p-1 in one pass:
        # row_i <- row_i - c_i*u - s_i*w with s_i = gamma*(row_i - c_i*u).w
        wu = sum(map(operator.mul, w, u))
        for i, c, row in zip(range(lo, p), cs[1:], rest):
            s = gamma * (sum(map(operator.mul, row, w)) - c * wu)
            a[i] = [y - c * uj - s * wj for y, uj, wj in zip(row, u, w)]
    return e


def _twin_classes(rows, supports: list[int]) -> list[list[int]]:
    """The classes of two or more twins of a symmetric matrix, ascending.

    Indices u != v are twins when rows u and v agree outside {u, v} and
    M[u][u] == M[v][v], compared exactly. ``supports[i]`` is the support of
    row i, its nonzero columns as a bitmask. Twins with M[u][v] == 0 have
    the same support less their own index, and twins with M[u][v] != 0 the
    same support with it, so each row is keyed by its support s and by s
    with its own bit toggled (one is s less i, the other s with i), and only
    rows that share a key are compared.
    """
    toggled = [s ^ (1 << i) for i, s in enumerate(supports)]
    if len({*supports, *toggled}) == 2 * len(supports):
        return []
    groups: dict[int, list[int]] = {}
    for i, keys in enumerate(zip(supports, toggled)):
        for key in keys:
            groups.setdefault(key, []).append(i)
    classes = []
    for members in groups.values():
        while len(members) > 1:
            u = members[0]
            ru = rows[u]
            same, rest = [u], []
            for v in members[1:]:
                rv = rows[v]
                twin = (
                    ru[u] == rv[v]
                    and ru[:u] == rv[:u]
                    and ru[u + 1 : v] == rv[u + 1 : v]
                    and ru[v + 1 :] == rv[v + 1 :]
                )
                (same if twin else rest).append(v)
            if len(same) > 1:
                classes.append(same)
            members = rest
    return classes


def _split_twins(rows, classes: list[list[int]]) -> tuple[list[list[float]], list[int], list[float]]:
    """Split each twin class off a symmetric matrix by an orthogonal similarity.

    The twin relation is transitive, so a class S of t indices has a common
    diagonal a, a common entry c inside S and equal rows outside S. The
    vectors on S summing to zero are eigenvectors for a - c, t - 1 of them;
    on the unit vector of S the matrix is a + (t-1)c, with entry
    sqrt(t*t')*M[u][j] towards an index (or class of t' indices) j. Returns
    the rows of that reduced matrix, one index for each class in place of
    its first, their supports as bitmasks, and the split eigenvalues.
    """
    inner = {cls[0]: (len(cls), rows[cls[0]][cls[1]]) for cls in classes}
    split = [rows[u][u] - c for u, (t, c) in inner.items() for _ in range(t - 1)]
    dropped = {v for cls in classes for v in cls[1:]}
    keep = [i for i in range(len(rows)) if i not in dropped]
    sizes = [inner[i][0] if i in inner else 1 for i in keep]
    bits = [1 << k for k in range(len(keep))]
    reduced, supports = [], []
    for k, (i, ti) in enumerate(zip(keep, sizes)):
        src = rows[i]
        # sqrt(ti*tj) is symmetric in i and j, so the rows stay exactly symmetric
        row = [src[j] if ti * tj == 1 else math.sqrt(ti * tj) * src[j] for j, tj in zip(keep, sizes)]
        if ti > 1:
            row[k] = src[i] + (ti - 1) * inner[i][1]
        reduced.append(row)
        supports.append(sum(compress(bits, row)))
    return reduced, supports, split


def _submatrix(rows, top: list[int], side: list[int]) -> list[tuple[float, ...]]:
    """Rows ``top`` of a matrix, restricted to the columns ``side``, which
    must hold two or more indices."""
    pick = operator.itemgetter(*side)
    return [pick(rows[i]) for i in top]


def _blocks(supports: list[int]):
    """Connected components of a symmetric matrix's support graph.

    ``supports[i]`` is the support of row i as a bitmask. Yields, for each
    component in the order of its smallest index, its two halves (the
    indices at even and at odd breadth-first distance from that smallest
    index, in visiting order) and whether it is bipartite: whether no
    nonzero entry joins two indices of one half. A nonzero diagonal entry
    joins an index to itself, so a bipartite component has a zero diagonal.
    """
    unseen = (1 << len(supports)) - 1
    while unseen:
        layer = seen = unseen & -unseen
        halves: tuple[list[int], list[int]] = ([], [])
        side = 0
        bipartite = True
        while layer:
            members = halves[side]
            reach = 0
            rest = layer
            while rest:
                j = (rest & -rest).bit_length() - 1
                members.append(j)
                reach |= supports[j]
                rest &= rest - 1
            if reach & layer:
                bipartite = False
            layer = reach & ~seen
            seen |= layer
            side ^= 1
        unseen ^= seen
        yield halves, bipartite


def eigenvalues(mat: SymMatrix, tol: float = DEFAULT_SOLVER_TOL) -> Spectrum:
    """All eigenvalues of a symmetric matrix.

    Twin indices (rows equal outside the pair, equal diagonals, compared
    exactly; twin vertices of a graph) are split off first, a class of t
    twins at a time: t - 1 eigenvalues are known and the class becomes one
    index, repeatedly until no twins remain. The reduced matrix is then cut
    into the connected components of its support (the blocks of a
    disconnected graph), and each block is reduced to a tridiagonal on its
    own: a single index is its diagonal entry; a bipartite block (zero
    diagonal, its support 2-colourable) is [[0, B], [B^T, 0]] up to order,
    and Golub-Kahan bidiagonalization of B gives its tridiagonal with zero
    diagonal, the |p - q| indices left over when the halves have p and q
    indices being exact zeros; any other block goes through Householder
    tridiagonalization. The blocks' tridiagonals are joined, with a zero
    subdiagonal entry at each seam, and go through implicit Wilkinson-shift
    QL once (EISPACK tql1, eigenvalues only). A subdiagonal entry e_m is
    deflated once |e_m| <= max(eps*(|d_m|+|d_{m+1}|), tol/sqrt(2(k-1))) at
    reduced order k, so the off-diagonal Frobenius norm dropped in total is
    at most ``tol`` beyond rounding. ``QL_ITERATION_CAP`` caps the QL
    iterations spent on each eigenvalue of the joined tridiagonal; exceeding
    it raises ConvergenceError carrying the off-diagonal Frobenius norm of
    the joined tridiagonal in its current form. A non-finite or non-positive
    ``tol``, a non-finite entry or an asymmetric matrix raises ValueError.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    # one scan: each row is finite and equals the matching column, and its
    # support is taken for the twin search and the blocks
    bits = [1 << j for j in range(mat.order)]
    supports = []
    for row, col in zip(mat.entries, zip(*mat.entries)):
        if not all(map(math.isfinite, row)):
            raise ValueError("matrix has a non-finite entry")
        if row != col:
            raise ValueError("matrix is not symmetric")
        supports.append(sum(compress(bits, row)))
    rows, split = mat.entries, []
    while classes := _twin_classes(rows, supports):
        rows, supports, known = _split_twins(rows, classes)
        split += known
    d: list[float] = []
    e: list[float] = []
    for (even, odd), bipartite in _blocks(supports):
        if bipartite and odd:
            # B has the smaller half as its rows (on a tie the half without
            # the block's first index), so a path's B is upper bidiagonal.
            # Two indices would be a twin pair, split off already, so B has
            # two or more columns.
            top, side = (odd, even) if len(odd) <= len(even) else (even, odd)
            top.sort()
            side.sort()
            e += _bidiagonalize(_submatrix(rows, top, side), len(side))
            e += [0.0] * (len(side) - len(top))
            d += [0.0] * (len(top) + len(side))
        elif not odd:
            (i,) = even
            d.append(rows[i][i])
            e.append(0.0)
        else:
            block = rows
            if len(even) + len(odd) < len(rows):
                index = sorted(even + odd)
                block = _submatrix(rows, index, index)
            db, eb = _tridiagonalize(block)
            d += db
            e += eb
    n = len(d)
    floor = tol / math.sqrt(2.0 * max(n - 1, 1))
    eps = sys.float_info.epsilon
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and (em := abs(e[m])) > floor and em > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iterations >= QL_ITERATION_CAP:
                residual = math.sqrt(2.0 * sum(x * x for x in e))
                raise ConvergenceError(
                    f"QL did not converge in {QL_ITERATION_CAP} iterations "
                    f"for eigenvalue {l} (residual {residual:.3e})",
                    residual,
                )
            iterations += 1
            # implicit QL step on d[l..m] with the Wilkinson shift
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # underflow: the block split at i+1; restart on it
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return Spectrum(tuple(sorted(d + split, reverse=True)))


def _without_isolated(g: Graph) -> Graph:
    """``g`` less its isolated vertices, the others relabeled in order.

    An isolated vertex is a zero row and column of both the Randic and the
    adjacency matrix: a free zero eigenvalue that adds nothing to an energy.
    """
    degs = g.degrees
    if 0 not in degs:
        return g
    index = {v: i for i, v in enumerate(v for v, d in enumerate(degs) if d)}
    return Graph(len(index), frozenset((index[u], index[v]) for u, v in g.edges))


def _energy(g: Graph, matrix, tol: float) -> float:
    """Sum of absolute eigenvalues of ``matrix`` built on ``g`` less its
    isolated vertices; DomainError when more than ``ENERGY_ORDER_CAP`` remain."""
    core = _without_isolated(g)
    if core.n > ENERGY_ORDER_CAP:
        raise DomainError(
            f"energies capped at {ENERGY_ORDER_CAP} non-isolated vertices (got {core.n})"
        )
    return sum((abs(v) for v in eigenvalues(matrix(core), tol).values), 0.0)


def randic_energy(g: Graph, tol: float = DEFAULT_SOLVER_TOL) -> float:
    """Sum of absolute eigenvalues of the Randic matrix (isolated vertices add 0)."""
    return _energy(g, randic_matrix, tol)


def graph_energy(g: Graph, tol: float = DEFAULT_SOLVER_TOL) -> float:
    """Sum of absolute eigenvalues of the adjacency matrix (isolated vertices add 0)."""
    return _energy(g, adjacency_matrix, tol)
