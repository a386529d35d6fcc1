"""Exact linear algebra over the rationals, integers first.

Vectors are lists and matrices are lists of rows. Operators act on column
vectors: (A @ v)[i] = sum_j A[i][j] v[j]. An entry is an int wherever it is
integral and a Fraction only where it is not: rref, restriction and f(A)
clear denominators, run in int and divide once at the end, and charpoly
works modulo primes and joins the results by CRT. No floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import is_prime
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


def nullspace(rows, ncols):
    """Basis of {v : A v = 0} for A with ncols columns, as a list of
    primitive integer vectors."""
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


_MODULI = []  # the primes below 2^61, descending, found on first use


def _modulus(i):
    """The i-th prime below 2^61, counting down from i = 0."""
    while len(_MODULI) <= i:
        p = (_MODULI[-1] if _MODULI else 2**61) - 1
        while not is_prime(p):
            p -= 1
        _MODULI.append(p)
    return _MODULI[i]


def _charpoly_mod(k, p):
    """Coefficients of det(X*I - K) mod p, ascending, for an int matrix K.

    Hessenberg reduction over F_p, each pivot chosen nonzero mod p, then the
    recurrence on the charpolys of the leading principal blocks.
    """
    n = len(k)
    h = [[x % p for x in row] for row in k]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        # rows i > m lose u_i * row m, then column m gains sum u_i * column i
        inv = pow(h[m][m - 1], -1, p)
        us = [h[i][m - 1] * inv % p for i in range(m + 1, n)]
        for i, u in enumerate(us, m + 1):
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
        for row in h:
            row[m] = (row[m] + sum(map(mul, us, row[m + 1 :]))) % p
    # c[m] = charpoly of the top-left m x m block
    c = [[1]]
    for m in range(1, n + 1):
        prev = c[m - 1]
        cur = [0] + prev
        for i, x in enumerate(prev):
            cur[i] -= h[m - 1][m - 1] * x
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * h[i][i - 1] % p
            coef = h[i - 1][m - 1] * t % p
            if coef:
                for j, x in enumerate(c[i - 1]):
                    cur[j] -= coef * x
        c.append([x % p for x in cur])
    return c[n]


def charpoly(a):
    """Characteristic polynomial det(X*I - A) as an IntPoly.

    With A = K/d, K integral, the coefficients c_j of det(X*I - K) are found
    modulo primes below 2^61 and joined by CRT until the modulus exceeds
    2 * prod(1 + B_i), B_i >= the Euclidean norm of row i of K. By Hadamard a
    principal minor is at most the product of its rows' norms, so
    sum |c_j| <= prod(1 + B_i) and the symmetric lift is exact. The
    coefficient of X^j in det(X*I - A) is c_j / d^(n-j), asserted integral.
    """
    n = len(a)
    d = _denominator(x for row in a for x in row)
    k = [_times(row, d) for row in a]
    bound = 2 * math.prod(2 + math.isqrt(sum(x * x for x in row)) for row in k)
    coeffs, modulus, i = [0] * (n + 1), 1, 0
    while modulus <= bound:
        p = _modulus(i)
        inv = pow(modulus, -1, p)
        coeffs = [
            c + modulus * ((x - c % p) * inv % p)
            for c, x in zip(coeffs, _charpoly_mod(k, p))
        ]
        modulus *= p
        i += 1
    out = []
    for j, c in enumerate(coeffs):
        c = c - modulus if 2 * c > modulus else c
        den = d ** (n - j)
        if c % den:
            raise AssertionError("non-integer characteristic polynomial")
        out.append(c // den)
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
