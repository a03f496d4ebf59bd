"""Degree-normalized (Randic) matrices, exact characteristic polynomials,
a Householder + implicit-shift QL eigensolver, and the two spectral energies.

The Randic matrix has entry 1/sqrt(d_i*d_j) on adjacent pairs. Its entries
are irrational, but it is similar (via D^{1/2}) to the random-walk matrix
W = D^{-1}A whose entries are rational, so the characteristic polynomial is
computed exactly on W: isolated vertices are split off first (each
contributes one factor of λ, and D is singular there), and the rest is one
Hessenberg characteristic polynomial modulo a Mersenne prime chosen above an
a-priori bound on the coefficients of det(λD - A), lifted back to rationals.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .graphs import Graph
from .ratpoly import RatPoly

DEFAULT_SOLVER_TOL = 1e-12
QL_ITERATION_CAP = 30
EXACT_ORDER_CAP = 128


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

    def is_symmetric(self) -> bool:
        a = self.entries
        n = len(a)
        return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


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


# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 on. Every one is
# a proven prime (Lucas-Lehmer), so no primality test runs here.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _modulus(bound: int) -> int:
    """Smallest listed Mersenne prime above ``bound``."""
    for e in MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p > bound:
            return p
    raise DomainError(
        f"exact characteristic polynomial needs a prime modulus above a {bound.bit_length()}-bit "
        f"bound; the largest listed is 2^{MERSENNE_EXPONENTS[-1]} - 1"
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
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        hm = h[m][m]
        acc = [-hm * c for c in prev] + [0]
        acc[1:] = [a + c for a, c in zip(acc[1:], prev)]
        t = 1
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % p
            if not t:
                break
            s = t * h[m - i][m] % p
            if s:
                q = polys[m - i]
                acc[: len(q)] = [a - s * c for a, c in zip(acc, q)]
        polys.append([a % p for a in acc])
    return polys[n]


def charpoly_exact(g: Graph, order_cap: int = EXACT_ORDER_CAP) -> RatPoly:
    """Monic degree-n characteristic polynomial of the Randic matrix, exact.

    Computed on the similar rational matrix W = D^{-1}A after splitting off
    isolated vertices (factor λ each). With k vertices left and P the
    product of their degrees, N(λ) = det(λD - A) = P·det(λI - W) has integer
    coefficients, and since W's eigenvalues lie in [-1, 1], |N_j| <= P·C(k, j).
    So one Hessenberg charpoly of W modulo a prime p > 2·P·C(k, k/2) (the
    smallest Mersenne prime that large) determines N exactly: each
    coefficient is lifted into (-p/2, p/2) and divided by P. Raises
    DomainError beyond ``order_cap``, or when no listed prime is large enough.
    """
    degs = g.degrees
    isolated = degs.count(0)
    k = g.n - isolated
    if k > order_cap:
        raise DomainError(f"exact characteristic polynomial capped at order {order_cap} (got {k})")
    if k == 0:
        return RatPoly.one().shift(isolated)
    # the non-isolated vertices in reversed breadth-first order: the labeling
    # does not change the polynomial, and this one keeps the Hessenberg
    # fill-in of a sparse graph small
    core: list[int] = []
    seen = [d == 0 for d in degs]
    for start in range(g.n):
        if not seen[start]:
            seen[start] = True
            queue = [start]
            for v in queue:
                for w in g.adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            core += queue
    core.reverse()
    scale = math.prod(degs[v] for v in core)
    p = _modulus(2 * scale * math.comb(k, k // 2))
    index = {v: i for i, v in enumerate(core)}
    inverse = {d: pow(d, -1, p) for d in set(degs[v] for v in core)}
    # row i of W mod p: 1/d_i at each neighbor column
    w = [[0] * k for _ in range(k)]
    for u, v in g.edges:
        w[index[u]][index[v]] = inverse[degs[u]]
        w[index[v]][index[u]] = inverse[degs[v]]
    half = p // 2
    coeffs = []
    for c in _hessenberg_charpoly(w, p):
        c = c * scale % p
        coeffs.append(Fraction(c - p if c > half else c, scale))
    return RatPoly(coeffs).shift(isolated)


def _tridiagonalize(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder reduction of a symmetric matrix to tridiagonal form.

    ``a`` is a full symmetric matrix as row lists and is overwritten. Returns
    the diagonal d and the subdiagonal e (e[i] couples d[i] and d[i+1];
    e[-1] = 0). Eigenvalues only: the reflections are not accumulated. A
    column already zero below its subdiagonal is skipped, so a tridiagonal
    input (a path) costs O(n^2).
    """
    n = len(a)
    d = [row[i] for i, row in enumerate(a)]
    e = [0.0] * n
    for k in range(n - 2):
        lo = k + 1
        # column k below the diagonal, read from row k by symmetry
        v = a[k][lo:]
        if not any(v[1:]):
            e[k] = v[0]
            continue
        # reflect the unit column onto alpha*e1; normalizing first keeps beta
        # in [1/2, 1] even when the column is rounding residue near underflow
        norm = math.hypot(*v)
        v = [x / norm for x in v]
        x0 = v[0]
        alpha = -math.copysign(1.0, x0)
        v[0] = x0 - alpha
        beta = 1.0 / (1.0 + abs(x0))  # 2 / (v.v)
        # trailing block B -= v w^T + w v^T with p = beta*B*v, w = p - (beta*p.v/2)*v
        p = [beta * sum(map(operator.mul, a[i][lo:], v)) for i in range(lo, n)]
        half = 0.5 * beta * sum(map(operator.mul, p, v))
        w = [pi - half * vi for pi, vi in zip(p, v)]
        for i in range(lo, n):
            row = a[i]
            vi = v[i - lo]
            wi = w[i - lo]
            # the sum is commutative, so the block stays exactly symmetric
            row[lo:] = [x - (vi * wj + wi * vj) for x, vj, wj in zip(row[lo:], v, w)]
            d[i] = row[i]
        e[k] = alpha * norm
    if n >= 2:
        e[n - 2] = a[n - 2][n - 1]
    return d, e


def eigenvalues(
    mat: SymMatrix,
    tol: float = DEFAULT_SOLVER_TOL,
    max_sweeps: int = QL_ITERATION_CAP,
) -> Spectrum:
    """All eigenvalues of a symmetric matrix.

    Householder tridiagonalization followed by implicit Wilkinson-shift QL
    (EISPACK tred2/tql1, eigenvalues only). A subdiagonal entry e_m is
    deflated once |e_m| <= max(eps*(|d_m|+|d_{m+1}|), tol/sqrt(2(n-1))), so
    the off-diagonal Frobenius norm dropped in total is at most ``tol`` beyond
    rounding. ``max_sweeps`` caps the QL iterations spent on each eigenvalue;
    exceeding it raises ConvergenceError carrying the off-diagonal Frobenius
    norm of the current tridiagonal matrix. A non-finite or non-positive
    ``tol``, a non-finite entry or an asymmetric matrix raises ValueError.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    # one scan: each row is finite and equals the matching column
    for row, col in zip(mat.entries, zip(*mat.entries)):
        if not all(map(math.isfinite, row)):
            raise ValueError("matrix has a non-finite entry")
        if row != col:
            raise ValueError("matrix is not symmetric")
    n = mat.order
    d, e = _tridiagonalize([list(row) for row in mat.entries])
    floor = tol / math.sqrt(2.0 * max(n - 1, 1))
    eps = sys.float_info.epsilon
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > max(eps * (abs(d[m]) + abs(d[m + 1])), floor):
                m += 1
            if m == l:
                break
            if iterations >= max_sweeps:
                residual = math.sqrt(2.0 * sum(x * x for x in e))
                raise ConvergenceError(
                    f"QL did not converge in {max_sweeps} iterations "
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
    return Spectrum(tuple(sorted(d, reverse=True)))


def randic_energy(g: Graph, tol: float = DEFAULT_SOLVER_TOL) -> float:
    """Sum of absolute eigenvalues of the Randic matrix."""
    return sum(abs(v) for v in eigenvalues(randic_matrix(g), tol).values)


def graph_energy(g: Graph, tol: float = DEFAULT_SOLVER_TOL) -> float:
    """Sum of absolute eigenvalues of the adjacency matrix."""
    return sum(abs(v) for v in eigenvalues(adjacency_matrix(g), tol).values)
