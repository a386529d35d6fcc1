"""Exact big-integer polynomials and integer matrices.

Polynomials are dense, coefficients ascending (coeffs[i] multiplies X^i).
Everything here is pure and exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
import os
import random
from itertools import combinations

from .arith import inverse_mod, is_prime

DEFAULT_FACTOR_CAP = 64


class FactorizationCapError(Exception):
    """Squarefree factor degree exceeds the configured factorization cap."""


def factor_cap():
    """Active factorization degree cap (CONGRUON_FACTOR_CAP overrides)."""
    env = os.environ.get("CONGRUON_FACTOR_CAP")
    return int(env) if env else DEFAULT_FACTOR_CAP


class IntPoly:
    """Dense polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def from_roots(cls, roots):
        p = cls([1])
        for r in roots:
            p = p * cls([-r, 1])
        return p

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] - other[i] for i in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_add(self, t):
        """P(X + t) for an integer t."""
        acc = IntPoly()
        lin = IntPoly([t, 1])
        for c in reversed(self.coeffs):
            acc = acc * lin + IntPoly([c])
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive_part(self):
        """self divided by its content, normalised to positive leading coeff."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    def divmod_exact(self, divisor):
        """Quotient and remainder over Q, both required to be integral.

        Long division in int; the quotient is integral iff lc(divisor)
        divides the leading coefficient at every step, so the first step
        where it does not raises ValueError.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        db, lead = divisor.degree, divisor.leading
        q = [0] * max(len(r) - db, 0)
        for i in range(len(r) - 1, db - 1, -1):
            if r[i]:
                f, rem = divmod(r[i], lead)
                if rem:
                    raise ValueError("division is not exact over the integers")
                q[i - db] = f
                for j, bc in enumerate(divisor.coeffs):
                    r[i - db + j] -= f * bc
        return IntPoly(q), IntPoly(r[:db])

    def __repr__(self):
        if self.is_zero:
            return "IntPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                mono = "X" if i == 1 else f"X^{i}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        return "IntPoly(" + " + ".join(terms).replace("+ -", "- ") + ")"


def divides(d, p):
    """True iff d divides p over the rationals with integral quotient."""
    try:
        _, r = p.divmod_exact(d)
    except ValueError:
        return False
    return r.is_zero


def gcd_over_q(p, q):
    """Primitive gcd over Q with positive leading coefficient.

    gcd(p, 0) is the primitive part of p.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p.primitive_part(), q.primitive_part()
    while not b.is_zero:
        # Pseudo-remainder keeps everything integral; primitive part tames growth.
        d = a.degree - b.degree
        if d < 0:
            a, b = b, a
            continue
        r = (a * b.leading ** (d + 1)).divmod_exact(b)[1]
        a, b = b, r.primitive_part()
    return a


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.rows)) if other.rows else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.rows]
        )

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"


def sylvester_matrix(p, q):
    """Sylvester matrix with rows X^(n-1)P..P, X^(m-1)Q..Q over X^(m+n-1)..X^0."""
    if p.is_zero or q.is_zero:
        raise ValueError("Sylvester matrix needs nonzero polynomials")
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    for k in range(n - 1, -1, -1):  # row of X^k * P
        row = [0] * size
        for i, c in enumerate(p.coeffs):
            row[size - 1 - (i + k)] = c
        rows.append(row)
    for k in range(m - 1, -1, -1):
        row = [0] * size
        for i, c in enumerate(q.coeffs):
            row[size - 1 - (i + k)] = c
        rows.append(row)
    return IntMatrix(rows)


def det_bareiss(matrix):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in matrix.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(p, q):
    """Res(P, Q): determinant of the Sylvester matrix of (P, Q)."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if p.degree == 0:
        return p.coeffs[0] ** q.degree
    if q.degree == 0:
        return q.coeffs[0] ** p.degree
    return det_bareiss(sylvester_matrix(p, q))


def discriminant(p):
    """disc(P) = (-1)^(d(d-1)/2) Res(P, P') / lc(P)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    r = resultant(p, p.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    assert r % p.leading == 0
    return sign * (r // p.leading)


def hnf_with_transform(matrix):
    """Row Hermite normal form H with a unimodular B such that B*M = H.

    Pivots are positive, entries below them zero, entries above reduced into
    [0, pivot). Row operations reduce against the current pivot at each step
    to keep intermediate entries small.
    """
    m, n = matrix.nrows, matrix.ncols
    a = [list(row) for row in matrix.rows]
    b = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        if r == m:
            break
        # Euclidean elimination in column j among rows r..m-1.
        while True:
            nz = [i for i in range(r, m) if a[i][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][j]))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                b[r], b[piv] = b[piv], b[r]
            done = True
            for i in range(r + 1, m):
                if a[i][j]:
                    q = a[i][j] // a[r][j]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                        b[i] = [x - q * y for x, y in zip(b[i], b[r])]
                    if a[i][j]:
                        done = False
            if done:
                break
        if a[r][j] == 0:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            b[r] = [-x for x in b[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                b[i] = [x - q * y for x, y in zip(b[i], b[r])]
        r += 1
    return IntMatrix(a), IntMatrix(b)


# ---------------------------------------------------------------------------
# Factorization over Z: squarefree decomposition, modular factorization,
# Hensel lifting, Zassenhaus recombination.
# ---------------------------------------------------------------------------


def _yun(f):
    """Yun's squarefree decomposition for a primitive f with positive lc."""
    out = []
    g = gcd_over_q(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    c = f.divmod_exact(g)[0].primitive_part()
    d = f.derivative().divmod_exact(g)[0] - c.derivative()
    i = 1
    while True:
        if c.degree == 0:
            break
        a = gcd_over_q(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c.divmod_exact(a)[0].primitive_part()
        d = d.divmod_exact(a)[0] - c.derivative()
        i += 1
    return out


# --- dense polynomial arithmetic over Z/m (coefficient lists) ---


def _pm_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _pm_trim(out)


def _pm_add(a, b, m):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)]
    return _pm_trim(out)


def _pm_sub(a, b, m):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)]
    return _pm_trim(out)


def _pm_divmod(a, b, m):
    """Division by b with invertible leading coefficient, mod m."""
    a = list(a)
    db = len(b) - 1
    inv = inverse_mod(b[-1], m)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] * inv % m
            q[i - db] = f
            for j, bc in enumerate(b):
                a[i - db + j] = (a[i - db + j] - f * bc) % m
    return _pm_trim(q), _pm_trim(a[:db])


def _pm_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        _, r = _pm_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = inverse_mod(a[-1], p)
        a = [c * inv % p for c in a]
    return a

def _pm_xgcd(a, b, p):
    """Extended gcd over F_p: (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
    if r0:
        inv = inverse_mod(r0[-1], p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def _pm_pow_mod(base, e, mod_poly, p):
    result = [1]
    base = _pm_divmod(base, mod_poly, p)[1]
    while e:
        if e & 1:
            result = _pm_divmod(_pm_mul(result, base, p), mod_poly, p)[1]
        base = _pm_divmod(_pm_mul(base, base, p), mod_poly, p)[1]
        e >>= 1
    return result


def _factor_mod_p(f, p, rng):
    """Factor a monic squarefree f (coeff list) over F_p into monic irreducibles."""
    # Distinct-degree stage.
    pieces = []
    v = list(f)
    h = [0, 1]
    d = 0
    while len(v) - 1 > 2 * d:
        d += 1
        h = _pm_pow_mod(h, p, v, p)
        g = _pm_gcd(_pm_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            pieces.append((g, d))
            v, _ = _pm_divmod(v, g, p)
            h = _pm_divmod(h, v, p)[1]
    if len(v) > 1:
        pieces.append((v, len(v) - 1))
    # Equal-degree (Cantor-Zassenhaus) stage.
    out = []
    for g, d in pieces:
        stack = [g]
        while stack:
            poly = stack.pop()
            if len(poly) - 1 == d:
                out.append(poly)
                continue
            while True:
                a = [rng.randrange(p) for _ in range(len(poly) - 1)]
                a = _pm_trim(a)
                if len(a) < 1:
                    continue
                b = _pm_pow_mod(a, (p**d - 1) // 2, poly, p)
                w = _pm_gcd(_pm_sub(b, [1], p), poly, p)
                if 1 < len(w) < len(poly):
                    stack.append(w)
                    stack.append(_pm_divmod(poly, w, p)[0])
                    break
    return out


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: lift f = g*h and s*g + t*h = 1 from m to m^2."""
    mm = m * m
    e = _pm_sub([c % mm for c in f], _pm_mul(g, h, mm), mm)
    q, r = _pm_divmod(_pm_mul(s, e, mm), h, mm)
    g1 = _pm_add(_pm_add(g, _pm_mul(t, e, mm), mm), _pm_mul(q, g, mm), mm)
    h1 = _pm_add(h, r, mm)
    b = _pm_sub(_pm_add(_pm_mul(s, g1, mm), _pm_mul(t, h1, mm), mm), [1], mm)
    c, d = _pm_divmod(_pm_mul(s, b, mm), h1, mm)
    s1 = _pm_sub(s, d, mm)
    t1 = _pm_sub(_pm_sub(t, _pm_mul(t, b, mm), mm), _pm_mul(c, g1, mm), mm)
    return g1, h1, s1, t1


def _hensel_lift_list(f, modular_factors, p, target):
    """Lift monic modular factors so f = lc(f) * prod(lifts) mod p^target.

    f is an IntPoly; modular_factors are monic coeff lists mod p.
    Returns monic coeff lists mod p^target.
    """
    q = p**target

    def rec(fc, facs):
        # fc: coeff list of the (partial) product, known mod q, lc invertible mod q
        if len(facs) == 1:
            inv = inverse_mod(fc[-1], q)
            return [[c * inv % q for c in fc]]
        k = len(facs) // 2
        h0 = [1]
        for fac in facs[k:]:
            h0 = _pm_mul(h0, fac, p)
        g0 = [fc[-1] % p]
        for fac in facs[:k]:
            g0 = _pm_mul(g0, fac, p)
        one, s, t = _pm_xgcd(g0, h0, p)
        assert one == [1], "modular factors are not coprime"
        g, h, ss, tt = g0, h0, s, t
        m = p
        while m < q:
            g, h, ss, tt = _hensel_step(m, fc, g, h, ss, tt)
            m = m * m
        g = [c % q for c in g]
        h = [c % q for c in h]
        return rec(g, facs[:k]) + rec(h, facs[k:])

    return rec([c % q for c in f.coeffs], modular_factors)


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _factor_bound(f):
    """Landau-Mignotte style bound on coefficients of integer factors of f."""
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return (norm * abs(f.leading)) << (f.degree + 1)


def _choose_prime(f, rng):
    """Odd primes with squarefree reduction, few modular factors preferred."""
    candidates = []
    p = 3
    tried = 0
    while tried < 5:
        while not is_prime(p) or f.leading % p == 0:
            p += 2
        fp = _pm_trim([c % p for c in f.coeffs])
        dfp = _pm_trim([c % p for c in f.derivative().coeffs])
        if len(_pm_gcd(fp, dfp, p)) == 1:
            inv = inverse_mod(fp[-1], p)
            fp_monic = [c * inv % p for c in fp]
            facs = _factor_mod_p(fp_monic, p, rng)
            candidates.append((len(facs), p, facs))
            if len(facs) == 1:
                break
            tried += 1
        p += 2
    return min(candidates)


def _factor_squarefree(f, cap):
    """Factor a primitive squarefree f with positive lc into irreducibles."""
    if f.degree <= 1:
        return [f]
    if f.degree > cap:
        raise FactorizationCapError(
            f"factorization cap exceeded: degree {f.degree} > cap {cap}"
        )
    rng = random.Random(0x5EED ^ hash(f.coeffs) & 0xFFFF)
    nfacs, p, modular = _choose_prime(f, rng)
    if nfacs == 1:
        return [f]
    bound = 2 * _factor_bound(f)
    target = 1
    while p**target <= bound:
        target += 1
    q = p**target
    lifted = _hensel_lift_list(f, modular, p, target)

    result = []
    remaining = f
    todo = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(todo):
        found = True
        while found:
            found = False
            for subset in combinations(todo, size):
                cand = [remaining.leading % q]
                for i in subset:
                    cand = _pm_mul(cand, lifted[i], q)
                gz = IntPoly([_symmetric(c, q) for c in cand]).primitive_part()
                if gz.degree >= 1 and divides(gz, remaining):
                    result.append(gz)
                    remaining = remaining.divmod_exact(gz)[0].primitive_part()
                    todo = [i for i in todo if i not in subset]
                    found = True
                    break
        size += 1
    if remaining.degree >= 1:
        result.append(remaining)
    return result


def factor_over_z(f, cap=None):
    """Factor a nonzero primitive polynomial into irreducibles over Q.

    Returns (factor, multiplicity) pairs; factors are primitive with positive
    leading coefficients, and the product of factor^multiplicity is +-f.
    Squarefree decomposition first, then modular factorization, Hensel
    lifting and subset recombination per squarefree part. The cap bounds the
    degree of any squarefree part handed to the recombination stage.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if cap is None:
        cap = factor_cap()
    f = f.primitive_part()
    if f.degree == 0:
        return []
    out = []
    for part, mult in _yun(f):
        for irr in _factor_squarefree(part, cap):
            out.append((irr, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out
