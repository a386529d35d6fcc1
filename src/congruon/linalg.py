"""Exact linear algebra over the rationals, in int alone.

Vectors are lists and matrices are lists of rows. Operators act on column
vectors: (A @ v)[i] = sum_j A[i][j] v[j]. A rational matrix is an int
matrix K over one denominator d > 0, meaning K / d: rref returns the reduced
rows in that form, restriction returns K for the span's d, charpoly and
f(A) take K and d, and charpoly works modulo primes and joins the results by
CRT. No floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .arith import is_prime
from .intpoly import IntPoly


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def rref(rows):
    """Reduced row echelon form of integer rows, as an EchelonBasis.

    Gauss-Jordan in int, each combined row divided by its content; at the
    end row i with pivot a_i and content g_i is scaled by d / a_i, d the
    least common multiple of the |a_i / g_i|, the denominators of the
    reduced rows.
    """
    a = list(rows)
    pivots = []
    r = 0
    for j in range(len(a[0]) if a else 0):
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
    d = math.lcm(1, *(row[j] // math.gcd(*row) for row, j in zip(a, pivots)))
    out = [[x * d // row[j] for x in row] for row, j in zip(a, pivots)]
    return EchelonBasis(out, d, pivots)


def nullspace(rows, ncols):
    """Basis of {v : A v = 0} for A with ncols columns, as a list of
    primitive integer vectors."""
    span = rref(rows)
    pivot_set = set(span.pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = span.denom
        for row, pj in zip(span.rows, span.pivots):
            v[pj] = -row[f]
        g = math.gcd(*v)
        basis.append([x // g for x in v])
    return basis


@dataclass(frozen=True)
class EchelonBasis:
    """Reduced echelon basis of a span, held in integers: rows[i] / denom is
    the i-th reduced row and pivots[i] its pivot column, so a vector w of
    the span is sum_i w[pivots[i]] * rows[i] / denom. denom > 0 is the least
    common denominator of the reduced rows, so every pivot entry is denom."""

    rows: list
    denom: int
    pivots: list

    @classmethod
    def of(cls, vectors):
        """Echelon basis of the span of independent integer vectors."""
        span = rref(vectors)
        if len(span.pivots) != len(vectors):
            raise ValueError("basis vectors are not independent")
        return span


def restrict_operator(op, span):
    """K with K / span.denom the matrix of op on an EchelonBasis span, in its
    echelon basis.

    Column j of K is op * rows[j] read at the pivot columns. Raises
    ValueError unless the span is stable under op, i.e. unless op * rows[j]
    is exactly sum_i (op * rows[j])[pivots[i]] * rows[i] / denom.
    """
    d = span.denom
    columns = list(zip(*span.rows))
    out = []
    for v in span.rows:
        w = mat_vec(op, v)
        k = [w[p] for p in span.pivots]
        if any(sum(map(mul, k, col)) != d * x for col, x in zip(columns, w)):
            raise ValueError("span is not stable under the operator")
        out.append(k)
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


def charpoly(k, d=1):
    """Characteristic polynomial det(X*I - K/d) of an int matrix K, as an
    IntPoly.

    The coefficients c_j of det(X*I - K) are found modulo primes below 2^61
    and joined by CRT until the modulus exceeds 2 * prod(1 + B_i), B_i >=
    the Euclidean norm of row i of K. By Hadamard a principal minor is at
    most the product of its rows' norms, so sum |c_j| <= prod(1 + B_i) and
    the symmetric lift is exact. The coefficient of X^j in det(X*I - K/d) is
    c_j / d^(n-j), asserted integral.
    """
    n = len(k)
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


def apply_poly(f, b, d=1):
    """d^deg(f) * f(B/d) for an IntPoly f and a square int matrix B, by
    Horner in int; its kernel is that of f(B/d)."""
    n = len(b)
    acc = [[0] * n for _ in range(n)]
    for k, c in enumerate(reversed(f.coeffs)):
        if k:
            acc = mat_mul(acc, b)
        for i in range(n):
            acc[i][i] += c * d**k
    return acc
