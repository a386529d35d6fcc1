"""Exact big-integer polynomials and their factorization over Z.

Polynomials are dense, coefficients ascending (coeffs[i] multiplies X^i).
Everything here is pure and exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
import os
import random
from itertools import combinations

from .arith import CongruonError, is_prime

DEFAULT_FACTOR_CAP = 64


class FactorizationCapError(CongruonError):
    """Squarefree factor degree exceeds the configured factorization cap."""

    exit_code = 4


def factor_cap():
    """Active factorization degree cap (CONGRUON_FACTOR_CAP overrides)."""
    env = os.environ.get("CONGRUON_FACTOR_CAP")
    if not env:
        return DEFAULT_FACTOR_CAP
    try:
        cap = int(env)
    except ValueError:
        raise CongruonError(
            f"CONGRUON_FACTOR_CAP must be an integer, got {env!r}"
        ) from None
    if cap < 1:
        raise CongruonError(f"CONGRUON_FACTOR_CAP must be at least 1, got {cap}")
    return cap


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
        if e < 0:
            raise ValueError(f"negative exponent {e}")
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
    inv = pow(b[-1], -1, m)
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
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pm_bezout(a, b, p):
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
        inv = pow(r0[-1], -1, p)
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


def _distinct_degree(f, p):
    """Split a monic squarefree f (coeff list) over F_p into (g, d) pieces,
    g the product of the irreducible factors of f of degree d."""
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
    return pieces


def _equal_degree(pieces, p, rng):
    """Split distinct-degree pieces into monic irreducibles (Cantor-Zassenhaus)."""
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
            inv = pow(fc[-1], -1, q)
            return [[c * inv % q for c in fc]]
        k = len(facs) // 2
        h0 = [1]
        for fac in facs[k:]:
            h0 = _pm_mul(h0, fac, p)
        g0 = [fc[-1] % p]
        for fac in facs[:k]:
            g0 = _pm_mul(g0, fac, p)
        one, s, t = _pm_bezout(g0, h0, p)
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


def coprime_mod(a, b, p):
    """True iff the reductions of a and b modulo the prime p are coprime in
    F_p[X]; a is squarefree modulo p iff coprime_mod(a, a.derivative(), p)."""
    ap = _pm_trim([c % p for c in a.coeffs])
    bp = _pm_trim([c % p for c in b.coeffs])
    return len(_pm_gcd(ap, bp, p)) == 1


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _factor_bound(f):
    """Landau-Mignotte style bound on coefficients of integer factors of f."""
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return (norm * abs(f.leading)) << (f.degree + 1)


def _choose_prime(f):
    """Odd primes with squarefree reduction, few modular factors preferred.

    Returns (number of factors, p, distinct-degree pieces of f mod p); the
    count needs only the distinct-degree stage."""
    candidates = []
    p = 3
    tried = 0
    while tried < 5:
        while not is_prime(p) or f.leading % p == 0:
            p += 2
        if coprime_mod(f, f.derivative(), p):
            inv = pow(f.leading, -1, p)
            fp_monic = [c * inv % p for c in f.coeffs]
            pieces = _distinct_degree(fp_monic, p)
            nfacs = sum((len(g) - 1) // d for g, d in pieces)
            candidates.append((nfacs, p, pieces))
            if nfacs == 1:
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
    nfacs, p, pieces = _choose_prime(f)
    if nfacs == 1:
        return [f]
    modular = _equal_degree(pieces, p, random.Random(0x5EED ^ hash(f.coeffs) & 0xFFFF))
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


def factor_over_z(f):
    """Factor a nonzero primitive polynomial into irreducibles over Q.

    Returns (factor, multiplicity) pairs; factors are primitive with positive
    leading coefficients, and the product of factor^multiplicity is +-f.
    Squarefree decomposition first, then modular factorization, Hensel
    lifting and subset recombination per squarefree part. The cap,
    factor_cap(), bounds the degree of any squarefree part handed to the
    recombination stage.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
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
