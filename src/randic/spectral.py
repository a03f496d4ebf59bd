"""Degree-normalized (Randic) matrices, exact characteristic polynomials,
a Householder + implicit-shift QL eigensolver, and the two spectral energies.

The Randic matrix has entry 1/sqrt(d_i*d_j) on adjacent pairs. Its entries
are irrational, but it is similar (via D^{1/2}) to the random-walk matrix
W = D^{-1}A whose entries are rational, so the characteristic polynomial is
computed exactly on W with arbitrary-precision arithmetic. Isolated
vertices are split off first (each contributes one factor of λ, and D is
singular there).
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
EXACT_ORDER_CAP = 64


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


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


def _int_charpoly(n: int, sparse_rows: list[list[tuple[int, int]]]) -> list[int]:
    """Characteristic polynomial det(λI - M) of an integer matrix.

    Faddeev-LeVerrier trace recursion; every division is exact because the
    coefficients of an integer matrix are integers. Returns ascending
    coefficients c[0..n] with c[n] = 1. ``sparse_rows[i]`` lists the nonzero
    (column, value) pairs of row i.
    """
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = []
        for i in range(n):
            acc = [0] * n
            for j, a in sparse_rows[i]:
                row = aux[j]
                if a == 1:
                    acc = [x + y for x, y in zip(acc, row)]
                else:
                    acc = [x + a * y for x, y in zip(acc, row)]
            prod.append(acc)
        tr = sum(prod[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("trace recursion produced a non-exact division")
        c = -(tr // k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                prod[i][i] += c
            aux = prod
    return coeffs


def charpoly_exact(g: Graph, order_cap: int = EXACT_ORDER_CAP) -> RatPoly:
    """Monic degree-n characteristic polynomial of the Randic matrix, exact.

    Computed on the similar rational matrix W = D^{-1}A after splitting off
    isolated vertices (factor λ each). W is scaled by the lcm of the degrees
    so the trace recursion runs on integers; the coefficients are rescaled
    back exactly.
    """
    isolated = sum(1 for d in g.degrees if d == 0)
    core = [v for v in range(g.n) if g.degrees[v] > 0]
    k = len(core)
    if k > order_cap:
        raise DomainError(f"exact characteristic polynomial capped at order {order_cap} (got {k})")
    if k == 0:
        return RatPoly.one().shift(isolated)
    index = {v: i for i, v in enumerate(core)}
    degs = g.degrees
    scale = _lcm_all(degs[v] for v in core)
    # row i of the scaled walk matrix: scale/d_i at each neighbor column
    sparse_rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for u, v in g.edges:
        sparse_rows[index[u]].append((index[v], scale // degs[u]))
        sparse_rows[index[v]].append((index[u], scale // degs[v]))
    ints = _int_charpoly(k, sparse_rows)
    coeffs = [Fraction(ints[j], scale ** (k - j)) for j in range(k + 1)]
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
    norm of the current tridiagonal matrix.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if not mat.is_symmetric():
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
