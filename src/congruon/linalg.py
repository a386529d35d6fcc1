"""Exact linear algebra over the rationals (dense, Fraction-based).

Vectors are lists of Fractions. Matrices are lists of rows. Operators act on
column vectors: (A @ v)[i] = sum_j A[i][j] v[j]. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import IntPoly

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def zero_matrix(nrows, ncols):
    return [[ZERO] * ncols for _ in range(nrows)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [
        [sum((x * y for x, y in zip(row, col) if x), ZERO) for col in bt] for row in a
    ]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x), ZERO) for row in a]


def rref(rows):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    a = frac_rows(rows)
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
        inv = ONE / a[r][j]
        if inv != 1:
            a[r] = [x * inv if x else ZERO for x in a[r]]
        row_r = a[r]
        for i in range(len(a)):
            if i != r and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], row_r)]
        pivots.append(j)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def nullspace(rows, ncols=None):
    """Basis of {v : A v = 0} as a list of vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, pj in zip(red, pivots):
            v[pj] = -row[f]
        basis.append(v)
    return basis


def solve_in_span(basis_columns, targets):
    """Express each target vector in terms of the basis columns.

    basis_columns: list of s independent vectors of length n.
    targets: list of vectors of length n, each required to lie in the span.
    Returns the s x len(targets) coefficient matrix X with B X = T.
    """
    s = len(basis_columns)
    n = len(basis_columns[0]) if s else 0
    t = len(targets)
    aug = [
        [Fraction(basis_columns[j][i]) for j in range(s)]
        + [Fraction(tv[i]) for tv in targets]
        for i in range(n)
    ]
    red, pivots = rref(aug)
    if any(p >= s for p in pivots):
        raise ValueError("target vector outside the span of the basis")
    x = zero_matrix(s, t)
    for row, pj in zip(red, pivots):
        for k in range(t):
            x[pj][k] = row[s + k]
    return x


def restrict_operator(op, basis_columns):
    """Matrix of op on the span of basis_columns: solves B M = op B.

    Raises ValueError if the span is not stable under op.
    """
    images = [mat_vec(op, v) for v in basis_columns]
    return solve_in_span(basis_columns, images)


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
    h = _hessenberg(frac_rows(a))
    # p[m] = charpoly of the top-left m x m block, as Fraction coeff lists
    p = [[ONE]]
    for m in range(1, n + 1):
        # (X - h[m-1][m-1]) * p[m-1]
        prev = p[m - 1]
        cur = [ZERO] + prev
        for i, c in enumerate(prev):
            cur[i] -= h[m - 1][m - 1] * c
        t = ONE
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
    """f(A) for an IntPoly f and square matrix A (Horner)."""
    n = len(a)
    acc = zero_matrix(n, n)
    for c in reversed(f.coeffs):
        acc = mat_mul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return acc
