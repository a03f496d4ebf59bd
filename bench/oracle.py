"""The benchmark's own oracle. It shares no code with ``randic``.

* Exact characteristic polynomials of the walk matrix W = D^-1 A and of the
  adjacency matrix A: det(xI - M) is evaluated at n+1 integer points by
  Fraction Gaussian elimination and interpolated. Rows of W are scaled by
  their degree first, det(xI - W) = det(xD - A) / prod(d), which keeps the
  entries integral; an isolated vertex keeps the row x·e_i.
* Numeric spectra from those polynomials: Yun's square-free decomposition
  gives exact multiplicities, and the roots of each real-rooted square-free
  factor are bracketed by the roots of its derivative and bisected.
* Analytic Randic and adjacency energies of the named families.
* Graph facts the spectral properties depend on: degrees, components,
  bipartiteness.
"""

from __future__ import annotations

import math
from fractions import Fraction

Poly = list  # ascending Fraction coefficients, no trailing zeros


def degrees(n: int, edges) -> list[int]:
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return degs


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        pivot_row = a[c]
        pivot = pivot_row[c]
        det *= pivot
        for r in range(c + 1, n):
            row = a[r]
            if row[c]:
                f = row[c] / pivot
                for j in range(c + 1, n):
                    if pivot_row[j]:
                        row[j] -= f * pivot_row[j]
    return det


def char_value(n: int, edges, x: int, walk: bool = True) -> Fraction:
    """det(xI - W) for the walk matrix, or det(xI - A) with ``walk=False``.

    Vertices are renumbered by ascending degree, which leaves the
    determinant unchanged and keeps hubs (star and windmill centres) from
    filling the matrix during elimination.
    """
    degs = degrees(n, edges)
    scale = [d or 1 for d in degs] if walk else [1] * n
    pos = {v: i for i, v in enumerate(sorted(range(n), key=degs.__getitem__))}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for v in range(n):
        rows[pos[v]][pos[v]] = Fraction(x * scale[v])
    for u, v in edges:
        rows[pos[u]][pos[v]] = rows[pos[v]][pos[u]] = Fraction(-1)
    return _det(rows) / math.prod(scale)


def _interpolate(xs: list[int], ys: list[Fraction]) -> Poly:
    """Newton divided differences, expanded to ascending coefficients."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [Fraction(0)]
    for i in range(len(xs) - 1, -1, -1):
        # out = out * (x - xs[i]) + coef[i]
        out = [Fraction(0)] + out
        for k in range(len(out) - 1):
            out[k] -= xs[i] * out[k + 1]
        out[0] += coef[i]
    return _trim(out)


def charpoly(n: int, edges, walk: bool = True) -> Poly:
    xs = list(range(n + 1))
    return _interpolate(xs, [char_value(n, edges, x, walk) for x in xs])


def evaluate(p: Poly, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# --- exact polynomial arithmetic for the square-free decomposition ---

def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: Poly) -> Poly:
    return _trim([k * c for k, c in enumerate(p)][1:])


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for k, c in enumerate(b):
            a[shift + k] -= f * c
        _trim(a)
    return _trim(q), a


def _monic_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _square_free(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lead · prod f_i^i with each f_i square-free."""
    out = []
    a = _monic_gcd(p, _deriv(p))
    b = _divmod(p, a)[0]
    d = _trim([x - y for x, y in _zip_pad(_divmod(_deriv(p), a)[0], _deriv(b))])
    i = 1
    while len(b) > 1:
        a = _monic_gcd(b, d)
        b = _divmod(b, a)[0]
        c = _divmod(d, a)[0]
        d = _trim([x - y for x, y in _zip_pad(c, _deriv(b))])
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _zip_pad(a: Poly, b: Poly):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _bisect(q: list[float], lo: float, hi: float) -> float:
    f_lo = evaluate(q, lo)
    if f_lo == 0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = evaluate(q, mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _simple_roots(q: list[float]) -> list[float]:
    """Roots of a real-rooted square-free polynomial: the roots of q'
    separate them (Rolle), and q' is real-rooted and square-free too."""
    if len(q) == 2:
        return [-q[0] / q[1]]
    bound = 1.0 + max(abs(c / q[-1]) for c in q[:-1])
    fences = [-bound] + _simple_roots([k * c for k, c in enumerate(q)][1:]) + [bound]
    return [_bisect(q, lo, hi) for lo, hi in zip(fences, fences[1:])]


def spectrum(p: Poly) -> list[float]:
    """All roots of a real-rooted polynomial, repeated by multiplicity."""
    roots: list[float] = []
    for factor, mult in _square_free(p):
        roots += _simple_roots([float(c) for c in factor]) * mult
    return sorted(roots, reverse=True)


def poly_energy(p: Poly) -> float:
    return math.fsum(abs(r) for r in spectrum(p))


# --- analytic energies ---

def randic_energy(family) -> float:
    """Sum of |eigenvalues| of the Randic matrix from the analytic spectra:
    path cos(πk/(n-1)), cycle cos(2πk/n), friendship n+1, dutch4
    2+(n-1)√2; star, complete and complete bipartite 2."""
    f, n = family.family, family.n
    if family.minus_edge:
        raise ValueError("no analytic Randic energy for minus-edge variants here")
    if f == "path":
        return math.fsum(abs(math.cos(math.pi * k / (n - 1))) for k in range(n)) if n > 1 else 0.0
    if f == "cycle":
        return math.fsum(abs(math.cos(2 * math.pi * k / n)) for k in range(n))
    if f == "friendship":
        return float(n + 1)
    if f == "dutch4":
        return 2.0 + (n - 1) * math.sqrt(2.0)
    if f in ("star", "complete", "complete_bipartite"):
        return 2.0 if (n > 1 or f == "complete_bipartite") else 0.0
    raise ValueError(f"unknown family {f!r}")


def adjacency_energy(family) -> float:
    """Sum of |eigenvalues| of the adjacency matrix: path 2cos(πj/(n+1)),
    cycle 2cos(2πj/n), star ±√(n-1), complete n-1 and -1, K(m,n) ±√(mn)."""
    f, n = family.family, family.n
    if family.minus_edge:
        raise ValueError("no analytic adjacency energy for minus-edge variants here")
    if f == "path":
        return math.fsum(abs(2 * math.cos(math.pi * j / (n + 1))) for j in range(1, n + 1))
    if f == "cycle":
        return math.fsum(abs(2 * math.cos(2 * math.pi * j / n)) for j in range(n))
    if f == "star":
        return 2 * math.sqrt(n - 1)
    if f == "complete":
        return 2.0 * (n - 1)
    if f == "complete_bipartite":
        return 2 * math.sqrt(family.m * n)
    raise ValueError(f"no analytic adjacency energy for {f!r}")


# --- graph facts ---

def _neighbours(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _two_colour(n: int, edges) -> tuple[int, bool]:
    """Number of components with an edge, and whether the graph is bipartite."""
    adj = _neighbours(n, edges)
    colour = [-1] * n
    nontrivial, bipartite = 0, True
    for s in range(n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        stack = [s]
        nontrivial += bool(adj[s])
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    bipartite = False
    return nontrivial, bipartite


def nontrivial_components(n: int, edges) -> int:
    return _two_colour(n, edges)[0]


def is_bipartite(n: int, edges) -> bool:
    return _two_colour(n, edges)[1]


def randic_square_sum(n: int, edges) -> Fraction:
    """Σ over edges of 1/(d_u d_v): half the trace of R², and minus the
    coefficient of λ^(n-2) in the characteristic polynomial."""
    degs = degrees(n, edges)
    return sum((Fraction(1, degs[u] * degs[v]) for u, v in edges), Fraction(0))
