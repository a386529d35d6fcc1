"""Maximal prime-power congruences between roots of coprime integer polynomials.

Two routes: the congruence-number method (exact in the favourable cases of
the reduction criteria) and the Newton-polygon method on the root-difference
polynomial F(Y) (always exact). The congruence number and its cofactors come
from one m x m fraction-free solve in Z[X]/(M), M the input of smaller
degree m. F is a composed sum built from power sums in int, and the second
route reads only the first slope of F's polygon off its coefficients, so it
costs O((deg P * deg Q)^2) integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, mul

from .arith import CongruonError, is_prime, valuation
from .intpoly import IntPoly, coprime_mod, factor_over_z, gcd_over_q
from .linalg import rref

_SQUAREFREE_PRIME = 2**31 - 1  # the prime q of _has_repeated_factor


class PreconditionError(CongruonError, ValueError):
    """An input precondition (monic polynomials; comparison weights, levels,
    data) is not met."""

    exit_code = 5


class NotCoprimeError(PreconditionError):
    """Inputs share a factor over the rationals; factor first."""

    exit_code = 3


@dataclass(frozen=True)
class CongruenceNumberResult:
    """c = r*P + s*Q with c the smallest such positive constant.

    The record of the pair (P, Q) that every residue prime ell reads: the
    facts that do not depend on ell (repeated factors, irreducible factor
    pairs, F(Y)) are computed once, on first use.
    """

    c: int
    r: IntPoly
    s: IntPoly
    p: IntPoly
    q: IntPoly

    def __post_init__(self):
        if self.r * self.p + self.s * self.q != IntPoly([self.c]):
            raise ValueError("cofactor identity r*P + s*Q = c fails")
        if self.q.degree > 0 and self.r.degree >= self.q.degree:
            raise ValueError("deg(r) must be below deg(Q)")
        if self.p.degree > 0 and self.s.degree >= self.p.degree:
            raise ValueError("deg(s) must be below deg(P)")

    def bounds(self, ell):
        """Exponent bounds at ell from the congruence-number case analysis.

        Inputs with repeated factors over Q are split into irreducible factor
        pairs; the result takes the maximal lower and upper bound over them.
        """
        if ell in self._bounds:
            return self._bounds[ell]
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        if self._factor_pairs is None:
            bounds = _bounds_irreducible_pair(self, ell)
        else:
            pairs = [_bounds_irreducible_pair(res, ell) for res in self._factor_pairs]
            lower = max((b.lower for b in pairs), default=0)
            upper = max((b.upper for b in pairs), default=0)
            bounds = CongruenceBounds(ell, lower, upper, "factored")
        self._bounds[ell] = bounds
        return bounds

    def exponent(self, ell):
        """(n, method): the maximal n with roots congruent modulo ell^n, and
        whether the case analysis fixed it ("cn") or the Newton polygon of
        F(Y) had to ("np")."""
        bounds = self.bounds(ell)
        if bounds.exact:
            return bounds.lower, "cn"
        return self._newton_exponent(ell), "np"

    def _newton_exponent(self, ell):
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        return _first_slope_exponent(ell, self._difference_poly)

    @cached_property
    def _bounds(self):
        return {}

    @cached_property
    def _factor_pairs(self):
        """Records of the irreducible factor pairs, or None when neither
        input has a repeated factor over Q."""
        p, q = self.p, self.q
        if not (_has_repeated_factor(p) or _has_repeated_factor(q)):
            return None
        q_factors = [qf for qf, _ in factor_over_z(q)]
        return [
            congruence_number(pf, qf) for pf, _ in factor_over_z(p) for qf in q_factors
        ]

    @cached_property
    def _difference_poly(self):
        f = difference_root_poly(self.p, self.q)
        assert f[0] != 0, "coprime inputs must give F(0) != 0"
        return f


def _first_slope_exponent(ell, f):
    """ceil of the first slope of the Newton polygon at ell of monic f with
    f(0) != 0: the largest ceil(v_ell(y)) over the roots y of f. The polygon
    starts at (0, v_ell(a_0)), so the slope is the maximum over i >= 1 with
    a_i != 0 of (v_ell(a_0) - v_ell(a_i)) / i, and ceil commutes with max.
    The term at i = deg f, where a_i = 1, is >= 0, so no clamp is needed.
    """
    v0 = valuation(ell, f[0])
    return max(
        (v0 - valuation(ell, a) + i - 1) // i for i, a in enumerate(f.coeffs) if i and a
    )


@lru_cache(maxsize=1024)
def _has_repeated_factor(poly):
    """True iff poly has a repeated factor over Q. A square factor stays one
    modulo a prime q not dividing the leading coefficient, so gcd(poly, poly')
    over Q is taken only when poly is not squarefree modulo q. Cached, since
    the records of all pairs at one level share each class's P_{f,p}."""
    q, d = _SQUAREFREE_PRIME, poly.derivative()
    if poly.degree < 1 or poly.leading % q and coprime_mod(poly, d, q):
        return False
    return gcd_over_q(poly, d).degree > 0


@dataclass(frozen=True)
class CongruenceBounds:
    """Exponent bounds for a congruence of roots at a fixed prime."""

    ell: int
    lower: int
    upper: int
    case_tag: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")

    @property
    def exact(self):
        return self.lower == self.upper


def congruence_number(p, q):
    """Congruence number c(P, Q) of monic P, Q with cofactors: the additive
    order of 1 in Z[X]/(P, Q).

    Let M be the input of smaller degree m (P on a tie) and A the other.
    Column j of T is X^j * A reduced mod M, so T is multiplication by A on
    Z[X]/(M) and its columns span the ideal (A) there. One fraction-free
    solve T x = e_0 gives x = A^-1 mod M over Q: rref reduces [T | e_0] to
    [I | x] held as [c*I | u] over c, the least common denominator of x, so
    u = c*x satisfies u*A = c mod M, and w = (c - u*A)/M
    is exact since M is monic. The cofactor pair (r, s) of r*P + s*Q = c is
    (w, u) when M = P and (u, w) otherwise. A singular T means P and Q
    share a factor.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("zero polynomial input")
    if not (p.is_monic and q.is_monic):
        raise PreconditionError("inputs must be monic")
    if p.degree == 0:
        return CongruenceNumberResult(1, IntPoly([1]), IntPoly(), p, q)
    if q.degree == 0:
        return CongruenceNumberResult(1, IntPoly(), IntPoly([1]), p, q)
    mod, other = (p, q) if p.degree <= q.degree else (q, p)
    m = mod.degree
    reduced = other.divmod_exact(mod)[1]
    col = [reduced[i] for i in range(m)]
    cols = [col]
    for _ in range(m - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [x - top * c for x, c in zip(col, mod.coeffs)]
        cols.append(col)
    rows = [[*row, int(i == 0)] for i, row in enumerate(zip(*cols))]
    span = rref(rows)
    if span.pivots != list(range(m)):
        raise NotCoprimeError("not coprime: inputs share a factor; factor first")
    c = span.denom
    u = IntPoly([row[m] for row in span.rows])
    w = (c - u * other).divmod_exact(mod)[0]  # the identity check verifies it
    r, s = (w, u) if mod is p else (u, w)
    return CongruenceNumberResult(c, r, s, p, q)


def common_root_mod_ell(p, q, ell):
    """True iff the reductions of P and Q mod ell share a nontrivial factor."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    by_number = congruence_number(p, q).c % ell == 0
    by_gcd = not coprime_mod(p, q, ell)
    assert by_number == by_gcd, "congruence number disagrees with mod-ell gcd"
    return by_number


def _bounds_irreducible_pair(res, ell):
    """Case analysis for the record of P, Q whose reductions' multiple factors
    are tolerated but which are squarefree over Q themselves."""
    p, q = res.p, res.q
    n = valuation(ell, res.c)
    if n == 0:
        return CongruenceBounds(ell, 0, 0, "a")
    if n == 1:
        return CongruenceBounds(ell, 1, 1, "b")
    p_sqf = coprime_mod(p, p.derivative(), ell)
    q_sqf = coprime_mod(q, q.derivative(), ell)
    if p_sqf and q_sqf:
        return CongruenceBounds(ell, n, n, "c-i")
    if q_sqf and coprime_mod(res.s, q, ell):
        return CongruenceBounds(ell, n, n, "c-ii")
    if p_sqf and coprime_mod(res.r, p, ell):
        return CongruenceBounds(ell, n, n, "c-iii")
    if coprime_mod(res.s, q, ell):
        m = -(-n // q.degree)
        return CongruenceBounds(ell, m, n, "d-i")
    if coprime_mod(res.r, p, ell):
        m = -(-n // p.degree)
        return CongruenceBounds(ell, m, n, "d-ii")
    return CongruenceBounds(ell, 1, n, "d-iii")


def difference_root_poly(p, q):
    """F(Y) = Res_X(P(X), Q(X+Y)) for monic P, Q: the monic polynomial whose
    roots are the differences beta - alpha of the roots of P and of Q.

    F is a composed sum (Bostan, Flajolet, Salvy and Schost, "Fast computation
    of special resultants", J. Symbolic Comput. 41, 2006), computed in int:
    the power sums of beta - alpha are S_k = sum_j C(k, j) s_j(Q) s_(k-j)(-P),
    with s_j(-P) = (-1)^j s_j(P) and s_0 the degree, and Pascal's rule gives
    each C(k, .). Non-monic input raises PreconditionError (monic P, Q only).
    """
    if p.degree < 1 or q.degree < 1:
        raise ValueError("difference_root_poly needs degrees >= 1")
    if not (p.is_monic and q.is_monic):
        raise PreconditionError("inputs must be monic")
    deg = p.degree * q.degree
    neg_alpha = [(-1) ** k * s for k, s in enumerate(_power_sums(p, deg))]
    beta = _power_sums(q, deg)
    sums, row = [], [1]
    for k in range(deg + 1):
        sums.append(sum(map(mul, map(mul, row, beta), neg_alpha[k::-1])))
        row = [1, *map(add, row, row[1:]), 1]
    return _from_power_sums(sums)


def _power_sums(poly, n):
    """[s_0, ..., s_n] of the roots of monic poly by Newton's identities
    s_k = -(k c_k + sum_(0<i<k) c_i s_(k-i)), c_i the coefficient of X^(d-i)."""
    d = poly.degree
    c = poly.coeffs[::-1] + (0,) * n
    sums = [d]
    for k in range(1, n + 1):
        acc = sum(c[i] * sums[k - i] for i in range(1, min(k, d + 1)))
        sums.append(-k * c[k] - acc)
    return sums


def _from_power_sums(sums):
    """The monic polynomial whose roots have the power sums [s_0, ..., s_n],
    by the same identities solved for c_k; a non-integer c_k is rejected."""
    c = [1]
    for k in range(1, len(sums)):
        ck, rem = divmod(-sums[k] - sum(c[i] * sums[k - i] for i in range(1, k)), k)
        if rem:
            raise AssertionError("Newton's identities gave a non-integer coefficient")
        c.append(ck)
    return IntPoly(c[::-1])
