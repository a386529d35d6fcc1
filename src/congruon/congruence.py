"""Maximal prime-power congruences between roots of coprime integer polynomials.

Two routes: the congruence-number method (fast, exact in the favourable
cases of the reduction criteria) and the Newton-polygon method on the
root-difference polynomial (always exact, slower).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import is_prime, valuation
from .intpoly import (
    IntPoly,
    factor_over_z,
    gcd_over_q,
    hnf_with_transform,
    resultant,
    sylvester_matrix,
)
from .padic import exponent_from_slope, newton_polygon


class NotCoprimeError(ValueError):
    """Inputs share a factor over the rationals; factor first."""


class PreconditionError(ValueError):
    """An input precondition (monic polynomials; comparison weights, levels,
    data) is not met."""


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
            bounds = CongruenceBounds(ell, lower, upper, lower == upper, "factored")
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
        polygon = newton_polygon(ell, self._difference_poly)
        top = polygon.max_slope
        if top is None or top <= 0:
            return 0
        return exponent_from_slope(top)

    @cached_property
    def _bounds(self):
        return {}

    @cached_property
    def _factor_pairs(self):
        """Records of the irreducible factor pairs, or None when neither
        input has a repeated factor over Q."""
        p, q = self.p, self.q
        p_rep = p.degree > 0 and gcd_over_q(p, p.derivative()).degree > 0
        q_rep = q.degree > 0 and gcd_over_q(q, q.derivative()).degree > 0
        if not (p_rep or q_rep):
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


@dataclass(frozen=True)
class CongruenceBounds:
    """Exponent bounds for a congruence of roots at a fixed prime."""

    ell: int
    lower: int
    upper: int
    exact: bool
    case_tag: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound above upper bound")
        if self.exact != (self.lower == self.upper):
            raise ValueError("exact flag inconsistent with bounds")


def congruence_number(p, q):
    """Congruence number c(P, Q) of monic P, Q with cofactors, via the Hermite
    form of the Sylvester matrix: c is the bottom-right pivot, the cofactors
    come from the bottom row of the transformation matrix. A zero pivot means
    the Sylvester matrix is singular, that is, P and Q share a factor."""
    if p.is_zero or q.is_zero:
        raise ValueError("zero polynomial input")
    if not (p.is_monic and q.is_monic):
        raise PreconditionError("inputs must be monic")
    if p.degree == 0:
        return CongruenceNumberResult(1, IntPoly([1]), IntPoly(), p, q)
    if q.degree == 0:
        return CongruenceNumberResult(1, IntPoly(), IntPoly([1]), p, q)
    s_mat = sylvester_matrix(p, q)
    h, b = hnf_with_transform(s_mat)
    size = s_mat.nrows
    c = h[size - 1, size - 1]
    if c == 0:
        raise NotCoprimeError("not coprime: inputs share a factor; factor first")
    assert c > 0 and all(h[size - 1, j] == 0 for j in range(size - 1))
    bottom = b.rows[-1]
    n, m = q.degree, p.degree
    r = IntPoly(list(reversed(bottom[:n])))  # rows X^(n-1)P .. P
    s = IntPoly(list(reversed(bottom[n:])))  # rows X^(m-1)Q .. Q
    return CongruenceNumberResult(c, r, s, p, q)


def _reduce_mod(poly, ell):
    return [c % ell for c in poly.coeffs]


def _gcd_mod(a, b, ell):
    """Monic gcd of the reductions modulo ell (coefficient lists)."""
    from .intpoly import _pm_gcd, _pm_trim

    return _pm_gcd(_pm_trim(list(a)), _pm_trim(list(b)), ell)


def _squarefree_mod(poly, ell):
    red = _reduce_mod(poly, ell)
    dred = _reduce_mod(poly.derivative(), ell)
    return len(_gcd_mod(red, dred, ell)) == 1


def _coprime_mod(a, b, ell):
    return len(_gcd_mod(_reduce_mod(a, ell), _reduce_mod(b, ell), ell)) == 1


def common_root_mod_ell(p, q, ell):
    """True iff the reductions of P and Q mod ell share a nontrivial factor."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    by_number = congruence_number(p, q).c % ell == 0
    by_gcd = not _coprime_mod(p, q, ell)
    assert by_number == by_gcd, "congruence number disagrees with mod-ell gcd"
    return by_number


def _bounds_irreducible_pair(res, ell):
    """Case analysis for the record of P, Q whose reductions' multiple factors
    are tolerated but which are squarefree over Q themselves."""
    p, q = res.p, res.q
    n = valuation(ell, res.c)
    if n == 0:
        return CongruenceBounds(ell, 0, 0, True, "a")
    if n == 1:
        return CongruenceBounds(ell, 1, 1, True, "b")
    p_sqf = _squarefree_mod(p, ell)
    q_sqf = _squarefree_mod(q, ell)
    if p_sqf and q_sqf:
        return CongruenceBounds(ell, n, n, True, "c-i")
    if q_sqf and _coprime_mod(res.s, q, ell):
        return CongruenceBounds(ell, n, n, True, "c-ii")
    if p_sqf and _coprime_mod(res.r, p, ell):
        return CongruenceBounds(ell, n, n, True, "c-iii")
    if _coprime_mod(res.s, q, ell):
        m = -(-n // q.degree)
        return CongruenceBounds(ell, m, n, m == n, "d-i")
    if _coprime_mod(res.r, p, ell):
        m = -(-n // p.degree)
        return CongruenceBounds(ell, m, n, m == n, "d-ii")
    return CongruenceBounds(ell, 1, n, n == 1, "d-iii")


def bounds_via_congruence_number(p, q, ell):
    """Exponent bounds from the congruence-number case analysis."""
    return congruence_number(p, q).bounds(ell)


def difference_root_poly(p, q):
    """F(Y) = Res_X(P(X), Q(X+Y)): its roots are the root differences.

    Computed by evaluation at consecutive integers and exact interpolation;
    a non-integer interpolated coefficient would signal a bug and is rejected.
    """
    if p.degree < 1 or q.degree < 1:
        raise ValueError("difference_root_poly needs degrees >= 1")
    deg = p.degree * q.degree
    xs = []
    k = 0
    while len(xs) < deg + 1:
        xs.append(k)
        if k > 0 and len(xs) < deg + 1:
            xs.append(-k)
        k += 1
    ys = [resultant(p, q.compose_add(y)) for y in xs]
    coeffs = _interpolate(xs, ys)
    f = IntPoly(coeffs)
    assert f.degree == deg
    return f


def _interpolate(xs, ys):
    """Exact Newton interpolation; returns integer coefficients."""
    n = len(xs)
    divided = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * n
    acc = [Fraction(1)]  # product (x - xs[0]) ... as coefficients
    for j in range(n):
        for i, a in enumerate(acc):
            coeffs[i] += divided[j] * a
        if j < n - 1:
            acc = [Fraction(0)] + acc
            for i in range(len(acc) - 1):
                acc[i] -= xs[j] * acc[i + 1]
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("interpolation produced a non-integer coefficient")
        out.append(c.numerator)
    return out


def exact_exponent_newton(p, q, ell):
    """Exact maximal exponent via the Newton polygon of F(Y)."""
    return congruence_number(p, q)._newton_exponent(ell)


def solve_problem_2_4(p, q, ell):
    """Maximal n such that P and Q have roots congruent modulo ell^n, as
    (n, method); see CongruenceNumberResult.exponent."""
    return congruence_number(p, q).exponent(ell)
