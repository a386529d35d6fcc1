"""Exact linear algebra over the rationals, integers first.

Vectors are lists and matrices are lists of rows. Operators act on column
vectors: (A @ v)[i] = sum_j A[i][j] v[j]. An entry is an int wherever it is
integral and a Fraction only where it is not: rref, restriction and f(A)
clear denominators, run in int and divide once at the end; only the
Hessenberg reduction in charpoly runs in Fraction. No floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .intpoly import IntPoly


def _exact(x, d):
    """x / d as an int when d divides x, else as a Fraction."""
    return x // d if x % d == 0 else Fraction(x, d)


def _denominator(values):
    """The least common denominator of rational values."""
    return math.lcm(1, *(x.denominator for x in values))


def _times(row, d):
    """d * row as ints, for a common denominator d of its entries."""
    return [x.numerator * (d // x.denominator) for x in row]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def rref(rows):
    """Reduced row echelon form; returns (new rows, pivot column list).

    Fraction-free Gauss-Jordan on the rows scaled to integers, each combined
    row divided by its content; each row is divided by its pivot once at the
    end.
    """
    a = [_times(row, _denominator(row)) for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_r = a[r]
        p = row_r[j]
        for i in range(len(a)):
            f = a[i][j]
            if i != r and f:
                g = math.gcd(p, f)
                u, w = p // g, f // g
                new = [u * x - w * y for x, y in zip(a[i], row_r)]
                g = math.gcd(*new)
                a[i] = [x // g for x in new] if g > 1 else new
        pivots.append(j)
        r += 1
        if r == len(a):
            break
    return [[_exact(x, row[j]) for x in row] for row, j in zip(a, pivots)], pivots


def nullspace(rows, ncols=None):
    """Basis of {v : A v = 0} as a list of primitive integer vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, pj in zip(red, pivots):
            v[pj] = -row[f]
        basis.append(_times(v, _denominator(v)))
    return basis


@dataclass(frozen=True)
class EchelonBasis:
    """Reduced echelon basis of a span, held in integers: rows[i] / denom is
    the i-th reduced row and pivots[i] its pivot column, so a vector w of
    the span is sum_i w[pivots[i]] * rows[i] / denom."""

    rows: list
    denom: int
    pivots: list

    @classmethod
    def of(cls, vectors):
        """Echelon basis of the span of independent vectors."""
        red, pivots = rref(vectors)
        if len(pivots) != len(vectors):
            raise ValueError("basis vectors are not independent")
        d = _denominator(x for row in red for x in row)
        return cls([_times(row, d) for row in red], d, pivots)


def restrict_operator(op, span):
    """Matrix of op on an EchelonBasis span, in its echelon basis.

    Each image op * rows[j] is read at the pivot columns. Raises ValueError
    unless the span is stable under op, i.e. unless op * rows[j] is exactly
    sum_i (op * rows[j])[pivots[i]] * rows[i] / denom.
    """
    d = span.denom
    columns = list(zip(*span.rows))
    out = []
    for v in span.rows:
        w = mat_vec(op, v)
        k = [w[p] for p in span.pivots]
        if any(sum(map(mul, k, col)) != d * x for col, x in zip(columns, w)):
            raise ValueError("span is not stable under the operator")
        out.append([_exact(x, d) for x in k])
    return [list(row) for row in zip(*out)]


def _hessenberg(a):
    """Upper Hessenberg form by exact similarity transforms (in place copy)."""
    n = len(a)
    h = [row[:] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = h[i][m - 1] / t
                h[i] = [x - u * y if y else x for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
    return h


def charpoly(a):
    """Characteristic polynomial det(X*I - A) as an IntPoly.

    Hessenberg reduction then the standard recurrence on leading principal
    charpolys; the result is asserted integral.
    """
    n = len(a)
    if n == 0:
        return IntPoly([1])
    h = _hessenberg([[Fraction(x) for x in row] for row in a])
    # p[m] = charpoly of the top-left m x m block, as Fraction coeff lists
    p = [[Fraction(1)]]
    for m in range(1, n + 1):
        # (X - h[m-1][m-1]) * p[m-1]
        prev = p[m - 1]
        cur = [Fraction(0)] + prev
        for i, c in enumerate(prev):
            cur[i] -= h[m - 1][m - 1] * c
        t = Fraction(1)
        for i in range(m - 1, 0, -1):
            t *= h[i][i - 1]
            coef = h[i - 1][m - 1] * t
            if coef:
                for kk, c in enumerate(p[i - 1]):
                    cur[kk] -= coef * c
        p.append(cur)
    out = []
    for c in p[n]:
        if c.denominator != 1:
            raise AssertionError("non-integer characteristic polynomial")
        out.append(c.numerator)
    return IntPoly(out)


def apply_poly(f, a):
    """f(A) for an IntPoly f and square matrix A.

    Horner runs in int on B = d*A, d the common denominator of A, and gives
    d^deg(f) * f(A), which is divided by d^deg(f) once.
    """
    n = len(a)
    d = _denominator(x for row in a for x in row)
    b = [_times(row, d) for row in a]
    acc = [[0] * n for _ in range(n)]
    for k, c in enumerate(reversed(f.coeffs)):
        if k:
            acc = mat_mul(acc, b)
        for i in range(n):
            acc[i][i] += c * d**k
    den = d ** max(len(f.coeffs) - 1, 0)
    if den == 1:
        return acc
    return [[_exact(x, den) for x in row] for row in acc]
