import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.abc import x as sx

from congruon.intpoly import (
    FactorizationCapError,
    IntMatrix,
    IntPoly,
    det_bareiss,
    discriminant,
    divides,
    factor_over_z,
    gcd_over_q,
    hnf_with_transform,
    resultant,
    sylvester_matrix,
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
    assert p.compose_add(t)(0) == p(t)
    assert p.compose_add(t)(5) == p(t + 5)


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
def test_resultant_matches_sympy(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if p.is_zero or q.is_zero:
        return
    # sympy's resultant can differ in sign from the Sylvester determinant
    assert abs(resultant(p, q)) == abs(int(sympy.resultant(to_sympy(p), to_sympy(q))))


def test_resultant_sign_product_formula():
    # Res(P, Q) = lc(P)^deg(Q) * prod Q(alpha) over the roots of P
    import random

    rng = random.Random(3)
    for _ in range(40):
        pr = [rng.randrange(-8, 8) for _ in range(rng.randrange(1, 4))]
        qr = [rng.randrange(-8, 8) for _ in range(rng.randrange(1, 4))]
        p, q = IntPoly.from_roots(pr), IntPoly.from_roots(qr)
        assert resultant(p, q) == math.prod(q(a) for a in pr)


def test_resultant_known():
    assert resultant(IntPoly([12, 1]), IntPoly([-60, 1])) == -72
    assert discriminant(IntPoly([-2, 0, 1])) == 8
    assert discriminant(IntPoly([1, 1, 1])) == -3


@given(small_coeffs, small_coeffs)
@settings(max_examples=60)
def test_gcd_matches_sympy(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if p.is_zero and q.is_zero:
        return
    got = gcd_over_q(p, q)
    want = sympy.gcd(to_sympy(p), to_sympy(q))
    assert got == from_sympy(want).primitive_part()


def test_sylvester_layout():
    # rows X^(n-1)P .. P then X^(m-1)Q .. Q against descending monomials
    p, q = IntPoly([2, 1]), IntPoly([3, 0, 1])  # X+2, X^2+3
    s = sylvester_matrix(p, q)
    assert s.rows == ((1, 2, 0), (0, 1, 2), (1, 0, 3))
    assert det_bareiss(s) == int(sympy.resultant(to_sympy(p), to_sympy(q)))


matrix_strategy = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=1, max_size=5
    )
)


@given(matrix_strategy)
@settings(max_examples=80)
def test_hnf_properties(rows):
    m = IntMatrix(rows)
    h, b = hnf_with_transform(m)
    assert b * m == h
    assert abs(det_bareiss(b)) == 1
    # row echelon with positive pivots and reduced entries above them
    last = -1
    for row in h.rows:
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            continue
        j = nz[0]
        assert j > last
        last = j
        assert row[j] > 0
    # zero rows at the bottom
    seen_zero = False
    for row in h.rows:
        if any(row):
            assert not seen_zero
        else:
            seen_zero = True


def test_hnf_column_reduction():
    h, b = hnf_with_transform(IntMatrix([[2, 1], [0, 3]]))
    for row in h.rows:
        piv_cols = []
        for r2 in h.rows:
            nz = [j for j, v in enumerate(r2) if v]
            if nz:
                piv_cols.append((nz[0], r2[nz[0]]))
        for j, piv in piv_cols:
            for i, r2 in enumerate(h.rows):
                nz = [jj for jj, v in enumerate(r2) if v]
                if nz and nz[0] < j:
                    assert 0 <= r2[j] < piv


@given(small_coeffs)
@settings(max_examples=40, deadline=None)
def test_factor_matches_sympy(a):
    f = IntPoly(a)
    if f.is_zero or f.degree < 1:
        return
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
