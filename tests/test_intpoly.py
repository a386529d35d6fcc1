import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.abc import x as sx

from congruon.intpoly import (
    FactorizationCapError,
    IntPoly,
    _coprime,
    _divmod,
    _mul,
    _pm_gcd,
    _reduce,
    divides,
    factor_over_z,
    gcd_over_q,
)

small_coeffs = st.lists(st.integers(-30, 30), min_size=0, max_size=6)


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], sx)


def from_sympy(sp):
    return IntPoly(list(reversed([int(c) for c in sympy.Poly(sp, sx).all_coeffs()])))


def test_basic_shape():
    p = IntPoly([1, 2, 3, 0, 0])
    assert p.coeffs == (1, 2, 3)
    assert p.degree == 2
    assert IntPoly().degree == -1
    assert IntPoly([0, 0]).is_zero
    assert IntPoly([5, 0, 1]).is_monic
    assert IntPoly.from_roots([1, 2]) == IntPoly([2, -3, 1])


@given(small_coeffs, small_coeffs, small_coeffs)
def test_ring_axioms(a, b, c):
    p, q, r = IntPoly(a), IntPoly(b), IntPoly(c)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p - p == IntPoly()


@given(small_coeffs, st.integers(-20, 20))
def test_evaluation_and_compose(a, t):
    p = IntPoly(a)
    sp = to_sympy(p)
    assert p(t) == int(sp.eval(t)) if not p.is_zero else p(t) == 0


@given(small_coeffs, small_coeffs)
def test_divmod_exact(a, b):
    p, d = IntPoly(a), IntPoly(b)
    if d.is_zero:
        return
    prod = p * d
    q, r = prod.divmod_exact(d)
    assert r.is_zero and q == p or d.is_zero


@given(small_coeffs, small_coeffs)
@settings(max_examples=60)
def test_gcd_matches_sympy(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if p.is_zero and q.is_zero:
        return
    got = gcd_over_q(p, q)
    want = sympy.gcd(to_sympy(p), to_sympy(q))
    assert got == from_sympy(want).primitive_part()


@given(small_coeffs)
@settings(max_examples=40, deadline=None)
def test_factor_matches_sympy(a):
    f = IntPoly(a)
    if f.is_zero or f.degree < 1:
        return
    _assert_factors_match_sympy(f)


# (lower coefficients, leading coefficient, multiplicity) of each factor
factor_parts = st.lists(
    st.tuples(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


@given(factor_parts)
@settings(max_examples=60, deadline=None)
def test_factor_products_match_sympy(parts):
    """Products of random factors of degree 1 to 4, some repeated, so that
    the modular factorization meets several factors of one degree and the
    squarefree parts carry multiplicities."""
    f = IntPoly([1])
    for tail, lead, mult in parts:
        f = f * IntPoly([*tail, lead]) ** mult
    _assert_factors_match_sympy(f)


def _assert_factors_match_sympy(f):
    got = factor_over_z(f)
    _, want = sympy.factor_list(to_sympy(f).as_expr())
    want_set = sorted(
        ((from_sympy(fac).primitive_part(), int(mult)) for fac, mult in want),
        key=lambda fm: (fm[0].degree, fm[0].coeffs),
    )
    assert got == want_set
    prod = IntPoly([1])
    for fac, mult in got:
        assert fac.leading > 0 and fac.content() == abs(fac.content())
        prod = prod * fac**mult
    assert prod == f.primitive_part() or prod == -f.primitive_part()


def test_power_refuses_a_negative_exponent():
    """IntPoly has no inverses, and e >>= 1 never brings a negative e to 0."""
    assert IntPoly([1, 1]) ** 0 == IntPoly([1])
    assert IntPoly([1, 1]) ** 3 == IntPoly([1, 3, 3, 1])
    for e in (-1, -2):
        with pytest.raises(ValueError, match="negative exponent"):
            IntPoly([1, 1]) ** e


def test_factor_high_multiplicity():
    f = IntPoly([1, 1]) ** 80
    assert factor_over_z(f) == [(IntPoly([1, 1]), 80)]


def test_factor_cap(monkeypatch):
    f = IntPoly.from_roots(range(65)) + 1  # degree 65, squarefree-looking input
    with pytest.raises(FactorizationCapError):
        factor_over_z(f)
    monkeypatch.setenv("CONGRUON_FACTOR_CAP", "70")
    factors = factor_over_z(f)
    assert sum(fac.degree * m for fac, m in factors) == 65


def test_factor_known_products():
    f = IntPoly([-1, 0, 1]) * IntPoly([1, 1, 1]) * IntPoly([2, 1]) ** 3
    got = factor_over_z(f)
    assert (IntPoly([-1, 1]), 1) in got
    assert (IntPoly([1, 1]), 1) in got
    assert (IntPoly([1, 1, 1]), 1) in got
    assert (IntPoly([2, 1]), 3) in got
    assert len(got) == 4


def test_divides():
    assert divides(IntPoly([1, 1]), IntPoly([1, 2, 1]))
    assert not divides(IntPoly([1, 1]), IntPoly([1, 1, 1]))


@given(small_coeffs, small_coeffs)
@settings(max_examples=150)
def test_divmod_exact_matches_sympy(a, b):
    p, d = IntPoly(a), IntPoly(b)
    if d.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.divmod_exact(d)
        return
    sq, sr = sympy.div(to_sympy(p), to_sympy(d), domain=sympy.QQ)
    coeffs = [*sq.all_coeffs(), *sr.all_coeffs()]
    if all(c.q == 1 for c in coeffs):
        q, r = p.divmod_exact(d)
        assert to_sympy(q) == sq.set_domain(sympy.ZZ)
        assert to_sympy(r) == sr.set_domain(sympy.ZZ)
    else:
        with pytest.raises(ValueError):
            p.divmod_exact(d)


def test_divmod_exact_examples():
    def divmod_(a, b):
        q, r = IntPoly(a).divmod_exact(IntPoly(b))
        return q.coeffs, r.coeffs

    assert divmod_([-1, 0, 1], [1, 1]) == ((-1, 1), ())
    assert divmod_([1, 0, 4], [0, 2]) == ((0, 2), (1,))
    assert divmod_([3, 5], [0, 0, 1]) == ((), (3, 5))
    assert divmod_([6, 4], [2]) == ((3, 2), ())
    with pytest.raises(ValueError):
        IntPoly([0, 0, 3]).divmod_exact(IntPoly([0, 2]))


# --- the coefficient-list kernels ---------------------------------------------


def coprime_reference(x, y, p):
    """Coprimality as the monic gcd over F_p decides it: a gcd of length one."""
    return len(_pm_gcd(x, y, p)) == 1


@given(small_coeffs, small_coeffs, small_coeffs, st.sampled_from([2, 3, 5, 7, 32749]))
@example([], [], [], 2)
@example([], [5], [], 3)
@example([4], [], [1, 1], 32749)
@example([], [0, 1], [], 7)
@example([7], [0, 0, 7], [], 7)
@settings(max_examples=300)
def test_coprime_matches_the_monic_gcd(a, b, g, p):
    """The remainder-only test agrees with the monic gcd on the reductions of
    a and b, and of a*g and b*g, empty and constant lists included."""
    for x, y in ((a, b), (_mul(a, g), _mul(b, g))):
        x, y = _reduce(x, p), _reduce(y, p)
        assert _coprime(x, y, p) is coprime_reference(x, y, p), (x, y, p)


@given(small_coeffs, small_coeffs)
def test_mul_matches_sympy(a, b):
    got = _mul(a, b)
    assert IntPoly(got) == from_sympy(to_sympy(IntPoly(a)) * to_sympy(IntPoly(b)))
    assert len(got) == (len(a) + len(b) - 1 if a and b else 0)


@given(small_coeffs, small_coeffs.filter(any), st.booleans())
@settings(max_examples=150)
def test_divmod_matches_sympy(a, b, exact):
    """Quotient and remainder by a trimmed b equal sympy's over Q when both
    are integral, and ValueError is raised otherwise; with exact, a is the
    multiple a*b, which always divides."""
    b = list(IntPoly(b).coeffs)
    if exact:
        a = _mul(a, b)
    sq, sr = sympy.div(to_sympy(IntPoly(a)), to_sympy(IntPoly(b)), domain=sympy.QQ)
    if all(c.q == 1 for c in [*sq.all_coeffs(), *sr.all_coeffs()]):
        q, r = _divmod(a, b)
        assert IntPoly(q) == from_sympy(sq) and IntPoly(r) == from_sympy(sr)
        assert len(r) == min(len(a), len(b) - 1)
        assert not (exact and any(r))
    else:
        assert not exact
        with pytest.raises(ValueError, match="not exact"):
            _divmod(a, b)
