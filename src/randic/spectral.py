"""Degree-normalized (Randic) matrices, exact characteristic polynomials,
an eigensolver (a Givens band chase to bidiagonal or tridiagonal form per
block, then dqds), and the two spectral energies.

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
back to integers and returned over the product of the degrees as one
``RatPoly`` denominator. Each row operation of the reduction reads only the
pivot row's nonzeros, so a sparse quotient pays for its nonzeros and their
fill, not for every entry. When every edge of the quotient joins breadth-first
depths of opposite parity, its W' is [[0, X], [Y, 0]] with s <= t classes
in its halves, and the reduction runs on the s x s product XY alone, whose
eigenvalues are the squares of those of W'.

The eigensolver first splits off twins: indices whose rows agree outside
the pair and whose diagonals agree, compared exactly (in a graph's Randic or
adjacency matrix, vertices with the same open or closed neighbourhood; see
Cvetkovic, Rowlinson and Simic, An Introduction to the Theory of Graph
Spectra, 1.3). A class of t twins gives t - 1 known eigenvalues and one
merged index, by an orthogonal similarity, so a degenerate spectrum
(complete, complete bipartite, star, friendship) skips most or all of the
cubic work. What remains is cut into the connected components of its
support, read from the support bitmasks the twin pass already has.

A bipartite block (zero diagonal, 2-colourable support) is [[0, B], [B^T,
0]] up to order, and its eigenvalues are the p singular values of B, their
negatives and |p - q| zeros, when its halves have p <= q indices. It is
layered breadth first from a pseudo-peripheral index (George and Liu), and
each half taken in visiting order, so that B is banded whatever the labels:
a path's B is upper bidiagonal and a cycle's has one diagonal below and one
above. Givens rotations reduce B to upper bidiagonal form by chasing each
bulge off the band (Schwarz; LAPACK xGBBRD), at O(p*q*w) for bandwidth w.
The bidiagonal is scaled by a power of two, exactly, to a largest entry in
[1/2, 1), and dqds finds its singular values from q_i = a_i^2, e_i = b_i^2
(Fernando and Parlett; Parlett and Marques) with one zero row appended,
which makes a p x (p+1) bidiagonal square. Each dqds shift reads the last
transform's d_j up to the current bottom: LAPACK DLASQ4's bound from the
bottom 2 x 2 when the least two are the last two, and a quarter of the
least otherwise. A transform with a negative d_j is redone without shift,
which cannot fail. A transform that meets a zero e_j, given or underflowed
to zero on the way, stops there, and the array splits below j; the part
below goes on without shift. A zero q_i, that row's or a square below the
least normal float, leaves through dqds: a transform without shift carries
it to the bottom, where it deflates exactly.
dqds keeps every singular value, however small, to high relative accuracy;
the eigenvalues of B^T B computed from the matrix itself could be off by
eps*||B||^2 each, so a singular value near 0 could be off by sqrt(eps) =
1.5e-8 in the energy.
Any other block is ordered from a pseudo-peripheral index in the same way
(Cuthill-McKee), and a chase of Givens rotations reduces its band to
tridiagonal form (LAPACK xSBTRD) at O(n^2*b) for bandwidth b. Those
tridiagonals are joined into one T, shifted below its Gershgorin bound so
that T - sigma*I = LDL^T is positive definite, and dqds finds the
eigenvalues of LDL^T from q_i = D_i, e_i = L_i^2*D_i, which sigma shifts
back. Single indices are their own eigenvalues.

``SymMatrix`` and ``Spectrum`` are immutable, hashable value classes.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import chain, compress, count, repeat

from ._record import FrozenRecord
from .errors import ConvergenceError, DomainError
from .graphs import Graph, _bfs, _members, _neighbour_masks
from .ratpoly import RatPoly, convolve

ITERATION_CAP = 30
EXACT_ORDER_CAP = 128


def _check_exact_order(k: int) -> None:
    """DomainError when ``k`` non-isolated vertices exceed ``EXACT_ORDER_CAP``."""
    if k > EXACT_ORDER_CAP:
        raise DomainError(f"exact characteristic polynomial capped at order {EXACT_ORDER_CAP} (got {k})")


# the energies build a dense matrix of the non-isolated vertices; a sparse
# block costs O(n^2*b) for its bandwidth b, but a dense one with no twins has
# b near n and stays cubic, so beyond this order they raise DomainError
ENERGY_ORDER_CAP = 1024


def _check_energy_order(k: int) -> None:
    """DomainError when ``k`` non-isolated vertices exceed ``ENERGY_ORDER_CAP``."""
    if k > ENERGY_ORDER_CAP:
        raise DomainError(f"energies capped at {ENERGY_ORDER_CAP} non-isolated vertices (got {k})")


class SymMatrix(FrozenRecord):
    """Dense symmetric matrix of floats, stored row-major as a tuple of row
    tuples; immutable and hashable.

    ``entries`` may be any sequence of row sequences (tuples or lists).
    ValueError when a row's length differs from the number of rows ("matrix
    must be square"); then, row by row, when the row has a non-finite entry
    ("matrix has a non-finite entry") or differs from the matching column
    ("matrix is not symmetric"); then when the order times the largest
    |entry| exceeds 2^1020. Every |eigenvalue| is at most that product, so
    below the limit every value the eigensolver forms stays finite.
    """

    _fields = ("entries",)

    def __init__(self, entries):
        entries = tuple(map(tuple, entries))
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for row, col in zip(entries, zip(*entries)):
            if not all(map(math.isfinite, row)):
                raise ValueError("matrix has a non-finite entry")
            if row != col:
                raise ValueError("matrix is not symmetric")
        if n * max(map(abs, chain.from_iterable(entries)), default=0.0) > 2.0**1020:
            raise ValueError("matrix order times its largest |entry| exceeds 2^1020")
        self.__dict__["entries"] = entries

    @property
    def order(self) -> int:
        return len(self.entries)


class Spectrum(FrozenRecord):
    """Real eigenvalues sorted non-increasing, multiplicities as repeats;
    immutable and hashable."""

    _fields = ("values",)

    def __init__(self, values: tuple[float, ...]):
        if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("spectrum must be sorted non-increasing")
        self.__dict__["values"] = values

    def __len__(self) -> int:
        return len(self.values)


def _graph_matrix(rows: list[list[float]]) -> SymMatrix:
    """The SymMatrix of ``rows`` built from a ``Graph``, without the
    constructor's scan: such rows are finite and symmetric by construction."""
    mat = object.__new__(SymMatrix)
    mat.__dict__["entries"] = tuple(map(tuple, rows))
    return mat


def randic_matrix(g: Graph) -> SymMatrix:
    """Matrix with (i,j) entry 1/sqrt(d_i*d_j) when i~j, else 0."""
    n = g.n
    degs = g.degrees
    rows = [[0.0] * n for _ in range(n)]
    for u, v in g.edges:
        w = 1.0 / math.sqrt(degs[u] * degs[v])
        rows[u][v] = w
        rows[v][u] = w
    return _graph_matrix(rows)


def adjacency_matrix(g: Graph) -> SymMatrix:
    """Plain 0/1 adjacency matrix."""
    n = g.n
    rows = [[0.0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u][v] = 1.0
        rows[v][u] = 1.0
    return _graph_matrix(rows)


# The moduli of the exact route, ascending: each entry (p, a) is a Proth
# prime p = k·2^e + 1, k odd and k < 2^e, stored with its certificate a,
# a^((p-1)/2) = -1 mod p (Proth's theorem), so no primality test runs here.
# Entry i has exactly 30(i + 2) bits, so a residue is at most one 30-bit
# digit of a Python int wider than the bound. The table ends at the first
# prime above the bound 2·127^128·C(128, 64) of any quotient within
# EXACT_ORDER_CAP; a higher cap needs larger primes here.
CERTIFIED_PRIMES = (
    ((65487 << 44) + 1, 5),
    ((65503 << 74) + 1, 3),
    ((65521 << 104) + 1, 3),
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
    ((65515 << 524) + 1, 3),
    ((65139 << 554) + 1, 5),
    ((64767 << 584) + 1, 5),
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

    Each step reads column m - 1 below the diagonal once for the pivot and
    the rows it eliminates; a step with nothing below the pivot ends at the
    swap, with no inverse taken and no row read. A row operation reads only
    the pivot row's nonzeros right of the pivot, so a sparse matrix pays for
    its nonzeros and their fill, not for every entry of the tail. The entries
    stay reduced in [0, p) throughout.
    """
    n = len(h)
    for m in range(1, n - 1):
        col = m - 1
        # the rows at and below m with a nonzero in column m - 1: the first
        # is the pivot, the rest are eliminated
        idx = list(compress(range(m, n), map(operator.itemgetter(col), h[m:])))
        if not idx:
            continue
        piv = idx.pop(0)
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        if not idx:
            continue  # the pivot alone: nothing to eliminate
        top = h[m]
        inv = pow(top[col], -1, p)
        # row_i -= u_i * row_m for each i > m (as row_i += (p - u_i) * row_m,
        # which keeps the operands non-negative), on the columns from m on
        # where row m is nonzero; these transforms commute, so the inverse
        # column updates are applied together afterwards
        cols = list(compress(range(m, n), top[m:]))
        mults = []
        for i in idx:
            row = h[i]
            u = row[col] * inv % p
            neg = p - u
            row[col] = 0
            for j in cols:
                row[j] = (row[j] + neg * top[j]) % p
            mults.append(u)
        if len(idx) == 1:
            i, u = idx[0], mults[0]
            for row in compress(h, map(operator.itemgetter(i), h)):
                row[m] = (row[m] + u * row[i]) % p
        else:
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
        # (λ - h_mm)·P_m: coefficient j is P_m[j-1] - h_mm·P_m[j]
        acc = [a - hm * c for a, c in zip([0, *prev], [*prev, 0])]
        top = next(compress(range(m), map(operator.itemgetter(m), h)), m)
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
    open neighbourhood N(v) and by closed neighbourhood N[v], each an int
    bitmask built in one pass over the edges, which also serve the
    breadth-first search and the quotient's adjacency; no vertex is in a
    class of two or more of each kind. A class of t open twins of degree d
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
    is lifted into (-p/2, p/2). A quotient in which every edge joins classes
    of opposite breadth-first depth parity has W' = [[0, X], [Y, 0]], with
    halves of s <= t classes, X s x t and Y t x s. Then det(λI - W') =
    λ^(t-s)·det(λ²I - XY) (Schur complement), so one Hessenberg charpoly ψ of
    XY modulo p gives N'(λ) = P'·λ^(t-s)·ψ(λ²). The eigenvalues of XY are
    squares of those of W', in [0, 1], so |P'·ψ_j| <= P'·C(s, j) and
    p > 2·P'·C(s, s/2) suffices. A closed class is next to itself in the
    quotient, so a quotient with one takes the general route; in a bipartite
    graph, that is a K_2 component. The integer factors dλ and dλ + 1, one
    per twin beyond its class's representative, are multiplied in, and each
    coefficient is divided by the product of all k degrees. A twin-free graph
    is its own quotient. Raises DomainError when k exceeds
    ``EXACT_ORDER_CAP``, or when no certified prime is large enough.
    """
    degs = g.degrees
    isolated = degs.count(0)
    k = g.n - isolated
    _check_exact_order(k)
    # the non-isolated vertices in reversed breadth-first order: the labeling
    # does not change the polynomial, and this one keeps the Hessenberg
    # fill-in of a sparse graph small
    nb = _neighbour_masks(g)
    order, depth = _bfs(nb)
    core = [v for v in reversed(order) if degs[v]]
    # twin classes: the vertices of one open neighbourhood N(v), mask nb[v]
    # (pairwise non-adjacent), or of one closed neighbourhood N[v], mask
    # nb[v] | 1 << v (pairwise adjacent). No N(u) equals an N[v], so one dict
    # holds both kinds of key, and a vertex is in at most one class of two
    # or more.
    twins: dict[int, list[int]] = {}
    for v in core:
        twins.setdefault(nb[v], []).append(v)
        twins.setdefault(nb[v] | 1 << v, []).append(v)
    size = dict.fromkeys(core, 1)  # class size by representative
    loops = 0  # the representatives of closed classes
    factors: dict[tuple[int, int], int] = {}  # (d, c) -> m for (dλ + c)^m
    for key, members in twins.items():
        if len(members) > 1:
            first = members[0]
            size[first] = len(members)
            for v in members[1:]:
                del size[v]
            loops |= key & 1 << first
            factor = (degs[first], key >> first & 1)
            factors[factor] = factors.get(factor, 0) + len(members) - 1
    quotient = list(size)
    kq = len(quotient)
    scale = math.prod(degs[v] for v in core)
    scale_q = math.prod(degs[v] for v in quotient)
    # the classes next to each class, as a mask of their representatives:
    # a twin of a neighbour is a neighbour, so a class is next to u when its
    # representative is, and a closed class is next to itself
    reps = sum(1 << u for u in quotient)
    near = {u: nb[u] & reps | loops & 1 << u for u in quotient}
    # W' = [[0, X], [Y, 0]] when no class is next to one of the same depth
    # parity, itself included, so a closed class keeps the full route; the
    # kernel then gets XY, on the smaller half, and otherwise W' itself
    odd = sum(1 << u for u in quotient if depth[u] % 2)
    even = reps ^ odd
    halved = not any(near[u] & (odd if depth[u] % 2 else even) for u in quotient)
    rows = quotient
    if halved:
        rows = [u for u in quotient if depth[u] % 2 == 0]
        if 2 * len(rows) > kq:
            rows = [u for u in quotient if depth[u] % 2]
    s = len(rows)
    p = _modulus(2 * scale_q * math.comb(s, s // 2))
    index = {v: i for i, v in enumerate(rows)}
    inverse = {d: pow(d, -1, p) for d in set(degs[v] for v in quotient)}
    near = {u: _members(mask) for u, mask in near.items()}  # as lists
    h = [[0] * s for _ in range(s)]
    for row, u in zip(h, rows):
        inv = inverse[degs[u]]
        if halved:
            # row u of XY: W'[u][r] = |r|/d_u times row r of Y, W'[r][q] =
            # |q|/d_r, summed over the classes r next to u
            for r in near[u]:
                f = size[r] * inverse[degs[r]]
                for q in near[r]:
                    row[index[q]] += f * size[q]
            row[:] = [a * inv % p for a in row]
        else:
            # row u of W': |r|/d_u at each class r next to u (|r| - 1 at u
            # itself, for a closed class)
            for r in near[u]:
                row[index[r]] = (size[r] - (r == u)) * inv % p
    coeffs = _hessenberg_charpoly(h, p)
    if halved:
        # det(λI - W') = λ^(t-s)·det(λ²I - XY), by the Schur complement
        coeffs, psi = [0] * (kq + 1), coeffs
        coeffs[kq - 2 * s :: 2] = psi
    # N'(λ) = det(λD' - A'), lifted into (-p/2, p/2), times the twin factors
    # (dλ + c)^m = sum_j C(m, j) d^j c^(m-j) λ^j, all integers
    half = p // 2
    num = []
    for c in coeffs:
        c = c * scale_q % p
        num.append(c - p if c > half else c)
    for (d, c), m in factors.items():
        num = convolve([math.comb(m, j) * d**j * c ** (m - j) for j in range(m + 1)], num)
    return RatPoly.from_numerators([0] * isolated + num, scale)


def _band_tridiagonalize(rows) -> tuple[list[float], list[float]]:
    """Tridiagonal form of a symmetric band matrix.

    ``rows`` are the rows of a full symmetric matrix, as any sequences; they
    are read, never written, and only their lower triangles are kept. Returns
    the diagonal d and the subdiagonal e (e[i] couples d[i] and d[i+1];
    e[-1] = 0). Eigenvalues only: the rotations are not accumulated.

    The lower bandwidth b is taken from each row's first nonzero. Each column
    k is cleared below its subdiagonal, bottom of the band up: the entry at
    (r, k) is zeroed by rotating rows and columns r-1 and r, which puts a
    bulge at (r+b, r-1), and that bulge is zeroed in turn, b rows further
    down each time, until it falls off the matrix (Schwarz, Numer. Math. 12,
    1968; LAPACK xSBTRD). A rotation touches O(b) entries and a chase takes
    O(n/b) of them, so the reduction costs O(n^2*b); an entry already zero
    costs no rotation, so a tridiagonal matrix is read off.
    """
    n = len(rows)
    a = [list(row[: i + 1]) for i, row in enumerate(rows)]
    b = max(i - next(compress(count(), row), i) for i, row in enumerate(a))
    hypot = math.hypot
    for k in range(n - 2):
        for r in range(min(k + b, n - 1), k + 1, -1):
            c = k
            while r < n and (y := a[r][c]):
                top, bot = a[r - 1], a[r]
                x = top[c]
                h = hypot(x, y)
                cs, sn = x / h, y / h
                top[c], bot[c] = h, 0.0
                # the two rows left of the 2 x 2 block at (r-1, r)
                xs, ys = top[c + 1 : r - 1], bot[c + 1 : r - 1]
                top[c + 1 : r - 1] = [cs * u + sn * v for u, v in zip(xs, ys)]
                bot[c + 1 : r - 1] = [cs * v - sn * u for u, v in zip(xs, ys)]
                # the block itself
                p, q, t = top[r - 1], bot[r - 1], bot[r]
                u, v = cs * p + sn * q, cs * q + sn * t
                w, z = cs * q - sn * p, cs * t - sn * q
                top[r - 1] = cs * u + sn * v
                bot[r - 1] = cs * w + sn * z
                bot[r] = cs * z - sn * w
                # the two columns below it; the last row gains the bulge
                for row in a[r + 1 : r + b + 1]:
                    u, v = row[r - 1], row[r]
                    if u or v:
                        row[r - 1] = cs * u + sn * v
                        row[r] = cs * v - sn * u
                r, c = r + b, r - 1
    return [row[i] for i, row in enumerate(a)], [row[i] for i, row in enumerate(a[1:])] + [0.0]


def _band_bidiagonalize(b) -> tuple[list[float], list[float]]:
    """Upper bidiagonal form of a p x q band matrix B, p <= q, no row of
    which is all zero.

    ``b`` are the p rows of B, as any sequences of length q; they are read,
    never written. Returns the diagonal a_1..a_p and the superdiagonal
    b_1..b_p of U^T B V (b_p couples row p to column p+1, and is 0 when
    q = p; the columns past p+1 are zero).

    Step k clears column k below its diagonal, bottom up, by rotations of
    adjacent rows, and then row k past its superdiagonal, right to left, by
    rotations of adjacent columns. Each rotation puts one entry just outside
    the band, further down, and that bulge is chased off the matrix by
    alternating column and row rotations, each moving it kl + ku places
    (Schwarz, Numer. Math. 12, 1968; LAPACK xGBBRD; Kaufman, ACM TOMS 26,
    2000). A rotation touches O(kl + ku) entries and a chase takes
    O(p/(kl + ku)) of them, so the reduction costs O(p*q*(kl + ku)); an
    entry already zero costs no rotation, so an upper bidiagonal B costs
    O(p). The upper bandwidth ku is B's; the lower one, kl, is taken afresh
    at each step from a bound kept on each row's first nonzero, so a dense
    column widens the band only until its step has cleared it.

    A full band costs O(p^2*q): each rotation at step k spans the trailing
    block, and the bulge it makes falls off the matrix at once. The last
    step has only row p - 1 to clear past its superdiagonal, and that row
    is read off.
    """
    p, q = len(b), len(b[0])
    first = [next(compress(count(), row)) for row in b]
    ku = max(q - 1 - next(compress(count(), reversed(row))) - i for i, row in enumerate(b))
    if ku <= 1 and all(map(operator.ge, first, range(p))):
        # upper bidiagonal already
        return [row[i] for i, row in enumerate(b)], [row[i + 1] if i + 1 < q else 0.0 for i, row in enumerate(b)]
    a = [list(r) for r in b]
    # a bulge must fall outside the final bidiagonal: one superdiagonal at least
    ku = max(ku, 1)
    kl = 0
    hypot = math.hypot

    def chase(r: int, c: int) -> None:
        # zero the entry at (r, c) and then the bulge it makes, and so on
        while True:
            if c < r:
                # below the diagonal: rotate rows r-1 and r over their band
                if r >= p or not (y := a[r][c]):
                    return
                top, bot = a[r - 1], a[r]
                x = top[c]
                h = hypot(x, y)
                cs, sn = x / h, y / h
                top[c], bot[c] = h, 0.0
                end = lead = min(r + ku + 1, q)
                for j in range(c + 1, end):
                    u, v = top[j], bot[j]
                    if u or v:
                        top[j] = cs * u + sn * v
                        bot[j] = w = cs * v - sn * u
                        if w and lead == end:
                            lead = j
                first[r - 1], first[r] = c, lead
                r, c = r - 1, r + ku
                if c >= q:
                    return
            else:
                # past the superdiagonal: rotate columns c-1 and c
                row = a[r]
                if not (y := row[c]):
                    return
                x = row[c - 1]
                h = hypot(x, y)
                cs, sn = x / h, y / h
                for i in range(r + 1, min(c + kl, p - 1) + 1):
                    row = a[i]
                    u, v = row[c - 1], row[c]
                    if v:
                        row[c - 1] = cs * u + sn * v
                        row[c] = cs * v - sn * u
                        if first[i] >= c:
                            first[i] = c - 1
                    elif u:
                        row[c - 1] = cs * u
                        row[c] = -sn * u
                a[r][c - 1], a[r][c] = h, 0.0
                r, c = c + kl, c - 1

    diag: list[float] = []
    sup: list[float] = []
    for k in range(p):
        # the band for step k: rows k.. are zero left of column k, and those
        # with an entry in column k are taken past it, so a dense column
        # widens the band only at its own step; a row rotated with the row
        # below hands it its entries, hence the second term
        rest = first[k:]
        bottom = k
        for i in compress(count(k), map(operator.le, rest, repeat(k))):
            rest[i - k] = next(compress(count(k + 1), a[i][k + 1 :]), q)
            bottom = i
        kl = max(chain([0], map(operator.sub, range(k + 1, p), rest[1:]), map(operator.sub, range(k + 1, bottom + 1), rest)))
        for i in range(bottom, k, -1):
            chase(i, k)
        for j in range(min(k + ku, q - 1), k + 1, -1):
            chase(k, j)
        diag.append(a[k][k])
        sup.append(a[k][k + 1] if k + 1 < q else 0.0)
    return diag, sup


def _dqds_shift(q, e, n0, tail):
    """The shift for the next dqds transform of the segment ending at n0.

    ``q``, ``e`` are the qd arrays the last transform made, and ``tail`` holds
    (d_j, the least d_i for i <= j) of that transform for its last positions
    up to n0, d_n0 last: a deflation drops the d_j of the values it takes, and
    those left are what a transform of the shorter segment would have made.
    When the least two d_j up to n0 are the last two, the shift is LAPACK
    DLASQ4's bound from the bottom 2 x 2 (Parlett and Marques, Linear Algebra
    Appl. 309, 2000, section 6, cases 2 and 3); otherwise a quarter of the
    least d_j up to n0. An empty ``tail``, or a least d_j <= 0, asks for a
    transform without shift.
    """
    if not tail or tail[-1][1] <= 0.0:
        return 0.0
    dn, dmin = tail[-1]
    if len(tail) > 2 and dn == dmin and tail[-2][0] == tail[-2][1]:
        dmin2 = tail[-3][1]
        b1 = math.sqrt(q[n0]) * math.sqrt(e[n0 - 1])
        b2 = math.sqrt(q[n0 - 1]) * math.sqrt(e[n0 - 2])
        a2 = q[n0 - 1] + e[n0 - 1]
        gap2 = dmin2 - a2 - dmin2 * 0.25
        if gap2 > b2:
            gap1 = a2 - dn - (b2 / gap2) * b2
        else:
            gap1 = a2 - dn - (b1 + b2)
        if gap1 > b1:
            return max(dn - (b1 / gap1) * b1, 0.5 * dmin)
        s = dn - b1 if dn > b1 else 0.0
        if a2 > b1 + b2:
            s = min(s, a2 - (b1 + b2))
        return max(s, 0.333 * dmin)
    return 0.25 * dmin


def _qd_pair(a: float, b: float, c: float, tol2: float) -> tuple[float, float]:
    """The two eigenvalues of the 2 x 2 qd array q = (a, c), e = (b,): the
    roots of x^2 - (a + b + c)x + ac, symmetric in a and c (LAPACK DLASQ3)."""
    if c > a:
        a, c = c, a
    t = 0.5 * ((a - c) + b)
    if b > c * tol2 and t != 0.0:
        s = c * (b / t)
        if s <= t:
            s = c * (b / (t * (1.0 + math.sqrt(1.0 + s / t))))
        else:
            s = c * (b / (t + math.sqrt(t) * math.sqrt(t + s)))
        t = a + (s + b)
        c *= a / t
        a = t
    return a, c


def _dqds(q: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of B^T B for a square upper bidiagonal B given by its qd
    arrays q_i = a_i^2 >= 0 and e_i = b_i^2 (e[i] couples i and i+1); for a
    positive definite LDL^T = B^T B, q_i = D_i and e_i = L_i^2*D_i. Neither
    list is written.

    The differential qd algorithm with shifts (Fernando and Parlett, Numer.
    Math. 67, 1994; Parlett and Marques, Linear Algebra Appl. 309, 2000;
    LAPACK DLASQ2-DLASQ5). A transform with shift tau < the least eigenvalue
    maps (q, e) to the qd arrays of B'^T B' = B B^T - tau*I by
    d_1 = q_1 - tau, q'_j = d_j + e_j, e'_j = e_j*q_{j+1}/q'_j,
    d_{j+1} = d_j*q_{j+1}/q'_j - tau, q'_n = d_n, with no subtraction but
    the shift's: every eigenvalue, however small, keeps high relative
    accuracy, which forming B^T B would lose. The shift comes from the last
    transform's d_j up to the current bottom: those of its last five
    positions, less one per value deflated since (``_dqds_shift``). It is
    DLASQ4's bound from the bottom 2 x 2 when the least two are the last
    two, else a quarter of the least. A shift too large shows as a negative
    d_j, and the transform is redone without shift, whose d_j all stay >= 0,
    so none is redone twice. Only d_n < 0, by less than rounding, is no
    failure: the last value has converged, and d_n is taken as 0. The shifts
    add up in sigma; a value is deflated at the bottom once e_{n-1} <=
    tol^2*(sigma + q_n), tol = 100*eps, or two at once from the bottom 2 x 2
    once e_{n-2} <= tol^2*sigma. A transform that meets a zero e_j, given or
    underflowed to 0 on the way, stops there before using it, and the array
    splits below j: the part above waits with its arrays and sigma, and the
    part below goes on, its next transform without shift. A transform
    without shift carries a zero q_i to the bottom: d_j = 0 from i on, so
    q'_n = 0. Its least d_j is 0, so the next transform takes no shift
    either, and its e'_{n-1}, a multiple of q_n = 0, is 0: the zero deflates
    exactly, as in Demmel and Kahan's zero-shift QR sweep (SIAM J. Sci.
    Stat. Comput. 11, 1990). ``ITERATION_CAP`` caps the transforms, failed
    ones and those stopped at a split included, at that many per value;
    past it ConvergenceError carries the Frobenius norm of the
    superdiagonal still to be reduced.
    """
    eps = sys.float_info.epsilon
    tol = 100.0 * eps
    tol2 = tol * tol
    n = len(q)
    q, e = q[:], e + [0.0] * (n - len(e))
    out = []
    iterations = 0
    # segments to do, each with its shift so far and the buffers holding it
    stack = [(0, n - 1, 0.0, q, e, q[:], e[:])]
    while stack:
        i0, n0, sigma, q, e, qo, eo = stack.pop()
        tail = []
        while n0 >= i0:
            if n0 == i0 or e[n0 - 1] <= tol2 * (sigma + q[n0]):
                out.append(q[n0] + sigma)
                n0 -= 1
                del tail[-1:]
                continue
            if n0 - 1 == i0 or e[n0 - 2] <= tol2 * sigma:
                out += [x + sigma for x in _qd_pair(q[n0 - 1], e[n0 - 1], q[n0], tol2)]
                n0 -= 2
                del tail[-2:]
                continue
            tau = _dqds_shift(q, e, n0, tail)
            while True:
                if iterations >= ITERATION_CAP * n:
                    residual = math.sqrt(math.fsum(chain(e[i0:n0], *(s[4][s[0] : s[1]] for s in stack))))
                    raise ConvergenceError(
                        f"dqds did not converge in {ITERATION_CAP} iterations per value: "
                        f"{len(out)} of {n} found (residual {residual:.3e})",
                        residual,
                    )
                iterations += 1
                # the transform into qo, eo, keeping (d_j, least d_i for
                # i <= j) of its last five positions in tail; a d_j < 0 ends
                # it early, and so does a zero e_j, before it is used
                d = dmin = q[i0] - tau
                last = n0 - 4
                tail = []
                for j in range(i0, n0):
                    if d < 0.0 or not e[j]:
                        break
                    if j >= last:
                        tail.append((d, dmin))
                    t = d + e[j]
                    qo[j] = t
                    r = q[j + 1] / t
                    eo[j] = e[j] * r
                    d = d * r - tau
                    if d < dmin:
                        dmin = d
                else:
                    qo[n0] = d
                    tail.append((d, dmin))
                    dn1, dmin1 = tail[-2]
                    if d < 0.0 and dmin1 > 0.0 and -d < tol * sigma and eo[n0 - 1] < tol * (sigma + dn1):
                        # only d_n < 0, and by less than rounding: the last
                        # value has converged; take d_n as 0
                        qo[n0] = dmin = 0.0
                        tail[-1] = (0.0, 0.0)
                split = not e[j]
                if split or dmin >= 0.0:
                    break
                # a d_j < 0: the shift was too large; redo the transform
                # without one, whose d_j all stay >= 0
                tau = 0.0
            if split:
                # e_j = 0: the array splits below j; the d_j above the split
                # say nothing of the part below it, whose first transform
                # takes no shift
                stack.append((i0, j, sigma, q, e, qo, eo))
                i0 = j + 1
                tail = []
                continue
            sigma += tau
            q, qo, e, eo = qo, q, eo, e
    return out


def _singular_values(d: list[float], e: list[float]) -> list[float]:
    """Singular values of the m x (m+1) upper bidiagonal with diagonal ``d``
    and superdiagonal ``e`` (e[m-1] couples row m-1 to column m, 0 for a
    square one).

    The entries are scaled by a power of two, exactly, so that the largest
    lies in [1/2, 1): their squares neither overflow nor underflow with the
    scale of B, and a square below the least normal float is taken as 0.
    A zero row appended, q_{m+1} = 0, makes B square with one more singular
    value, 0; each zero q_i leaves ``_dqds`` through its deflation at the
    bottom, and that one 0 is dropped.
    """
    k = math.frexp(max(map(abs, d + e)))[1]
    scaled = [math.ldexp(x, -k) for x in d + e]
    squares = [s if s >= sys.float_info.min else 0.0 for s in map(operator.mul, scaled, scaled)]
    values = _dqds(squares[: len(d)] + [0.0], squares[len(d) :])
    values.remove(0.0)
    return [math.ldexp(math.sqrt(x), k) for x in values]


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


def _layers(supports: list[int], root: int) -> tuple[list[list[int]], int, bool]:
    """Breadth-first layers of the component of ``root`` in a symmetric
    matrix's support graph, the component as a bitmask, and whether it is
    bipartite.

    ``supports[i]`` is the support of row i as a bitmask. Each layer lists
    its indices in visiting order: the children of earlier indices first,
    each index's in ascending order (Cuthill and McKee, 1969). The component
    is bipartite when no nonzero entry joins two indices of one layer; a
    nonzero diagonal entry joins an index to itself, so a bipartite
    component has a zero diagonal.
    """
    seen = layer_bits = 1 << root
    layers = [[root]]
    bipartite = True
    while True:
        nxt: list[int] = []
        reach = 0
        before = seen
        for v in layers[-1]:
            s = supports[v]
            reach |= s
            new = s & ~seen
            seen |= new
            while new:
                low = new & -new
                nxt.append(low.bit_length() - 1)
                new ^= low
        if reach & layer_bits:
            bipartite = False
        if not nxt:
            return layers, seen, bipartite
        layers.append(nxt)
        layer_bits = seen ^ before


def _blocks(supports: list[int]):
    """Connected components of a symmetric matrix's support graph, in the
    order of their smallest indices, each as its breadth-first layers from a
    pseudo-peripheral index and whether it is bipartite.

    A component is layered from its smallest index (``_layers``), then
    re-rooted at an index of least degree in its last layer while that adds
    a layer (George and Liu, ACM TOMS 5, 1979). A path is then layered from
    an end, whatever its labels, and a cycle from any index.
    """
    unseen = (1 << len(supports)) - 1
    while unseen:
        layers, seen, bipartite = _layers(supports, (unseen & -unseen).bit_length() - 1)
        unseen &= ~seen
        while len(layers) > 1:
            root = min(layers[-1], key=lambda v: supports[v].bit_count())
            trial = _layers(supports, root)[0]
            if len(trial) <= len(layers):
                break
            layers = trial
        yield layers, bipartite


def _block_bidiagonal(rows, layers: list[list[int]]) -> tuple[list[float], list[float]]:
    """Upper bidiagonal form of the B of a bipartite block [[0, B], [B^T, 0]].

    ``layers`` are the block's breadth-first layers from a pseudo-peripheral
    index (``_blocks``), and its even and odd layers are its two halves, in
    visiting order; the smaller half gives the rows of B (on a tie, the half
    without the root), the other its columns, two or more of them. Then
    every nonzero of B is within a few places of the diagonal when the
    layers are narrow: a path's B is upper bidiagonal already and a cycle's
    has one diagonal below and one above.
    """
    even = [v for layer in layers[0::2] for v in layer]
    odd = [v for layer in layers[1::2] for v in layer]
    top, side = (odd, even) if len(odd) <= len(even) else (even, odd)
    pick = operator.itemgetter(*side)
    return _band_bidiagonalize([pick(rows[i]) for i in top])


def eigenvalues(mat: SymMatrix) -> Spectrum:
    """All eigenvalues of a symmetric matrix.

    Twin indices (rows equal outside the pair, equal diagonals, compared
    exactly; twin vertices of a graph) are split off first, a class of t
    twins at a time: t - 1 eigenvalues are known and the class becomes one
    index, repeatedly until no twins remain. The reduced matrix is then cut
    into the connected components of its support (the blocks of a
    disconnected graph), and each block is solved on its own:

    * a single index is its diagonal entry;
    * a bipartite block (zero diagonal, its support 2-colourable) is [[0,
      B], [B^T, 0]] up to order, with B p x q, p <= q. Its halves are taken
      in breadth-first order from a pseudo-peripheral index, which makes B
      banded (``_block_bidiagonal``); Givens rotations chase it to upper
      bidiagonal form (``_band_bidiagonalize``), and dqds gives its
      singular values (``_singular_values``). The block's eigenvalues are
      those values, their negatives and q - p exact zeros, so its spectrum
      is symmetric by construction;
    * any other block is ordered in the same way, and Givens rotations
      chase its band to tridiagonal form (``_band_tridiagonalize``).

    The other blocks' tridiagonals are joined into one T, with a zero
    subdiagonal entry at each seam. T is shifted below its Gershgorin bound
    by sigma, with LAPACK DLARRE's margin, so that T - sigma*I = LDL^T is
    positive definite; dqds finds the eigenvalues of LDL^T from q_i = D_i,
    e_i = L_i^2*D_i (zero at the seams, where it splits), and sigma is added
    back. ``ITERATION_CAP`` caps the dqds transforms of every call at that
    many per value; past it ConvergenceError carries the Frobenius norm of
    the superdiagonal still to be reduced.
    """
    rows = mat.entries
    # the support of each row, for the twin search and the blocks
    bits = [1 << j for j in range(len(rows))]
    supports = [sum(compress(bits, row)) for row in rows]
    found: list[float] = []
    while classes := _twin_classes(rows, supports):
        rows, supports, known = _split_twins(rows, classes)
        found += known
    d: list[float] = []
    e: list[float] = []
    for layers, bipartite in _blocks(supports):
        if len(layers) == 1:
            (i,) = layers[0]
            found.append(rows[i][i])
        elif bipartite:
            # two indices would be a twin pair, split off already, so B has
            # two or more columns
            a, b = _block_bidiagonal(rows, layers)
            values = _singular_values(a, b)
            found += values
            found += [-x for x in values]
            found += [0.0] * (sum(map(len, layers)) - 2 * len(values))
        else:
            index = [v for layer in layers for v in layer]
            pick = operator.itemgetter(*index)
            db, eb = _band_tridiagonalize([pick(rows[i]) for i in index])
            d += db
            e += eb
    if d:
        # below the Gershgorin bound every pivot D_i is positive; the margin
        # (LAPACK DLARRE's) keeps it so through the factorization's rounding
        radii = list(map(operator.add, map(abs, e), map(abs, [0.0] + e)))
        low = min(map(operator.sub, d, radii))
        high = max(map(operator.add, d, radii))
        eps = sys.float_info.epsilon
        sigma = low - max(len(d) * eps * (high - low), 2.0 * eps * abs(low))
        q = [d[0] - sigma]
        f = []
        for dj, ej in zip(d[1:], e):
            t = ej * (ej / q[-1])
            f.append(t)
            q.append(dj - sigma - t)
        found += [x + sigma for x in _dqds(q, f)]
    return Spectrum(tuple(sorted(found, reverse=True)))


def _energy_core(g: Graph) -> Graph:
    """``g`` less its isolated vertices, the others relabeled in order;
    DomainError when more than ``ENERGY_ORDER_CAP`` remain.

    An isolated vertex is a zero row and column of both the Randic and the
    adjacency matrix: a free zero eigenvalue that adds nothing to an energy.
    """
    degs = g.degrees
    core = g.n - degs.count(0)
    _check_energy_order(core)
    if core == g.n:
        return g
    index = {v: i for i, v in enumerate(v for v, d in enumerate(degs) if d)}
    return Graph(core, frozenset((index[u], index[v]) for u, v in g.edges))


def _energy(g: Graph, matrix) -> float:
    """Sum of absolute eigenvalues of ``matrix`` built on ``_energy_core(g)``."""
    return math.fsum(map(abs, eigenvalues(matrix(_energy_core(g))).values))


def randic_energy(g: Graph) -> float:
    """``math.fsum`` of the absolute eigenvalues of the Randic matrix (isolated vertices add 0)."""
    return _energy(g, randic_matrix)


def graph_energy(g: Graph) -> float:
    """``math.fsum`` of the absolute eigenvalues of the adjacency matrix (isolated vertices add 0)."""
    return _energy(g, adjacency_matrix)
