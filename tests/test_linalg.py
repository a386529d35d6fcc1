import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from congruon.intpoly import IntPoly, factor_over_z
from congruon.linalg import (
    EchelonBasis,
    apply_poly,
    charpoly,
    mat_mul,
    mat_vec,
    nullspace,
    restrict_operator,
    rref,
)

square = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)

rect = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda nm: st.lists(
        st.lists(st.integers(-9, 9), min_size=nm[1], max_size=nm[1]),
        min_size=nm[0],
        max_size=nm[0],
    )
)


@st.composite
def int_matrices(draw):
    """Integer matrices of up to 7 rows, the empty one included, with some
    rows integer combinations of others (a zero row when there are none)."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        n = len(rows)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
    return draw(st.permutations(rows))


@given(int_matrices())
@settings(max_examples=150)
def test_rref_matches_sympy(rows):
    span = rref(rows)
    d = span.denom
    assert d > 0
    assert all(row[j] == d for row, j in zip(span.rows, span.pivots))
    assert math.gcd(d, *(x for row in span.rows for x in row)) == 1
    if not rows:
        assert span == EchelonBasis([], 1, [])
        return
    sred, spiv = sympy.Matrix(rows).rref()
    assert span.pivots == list(spiv)
    got = [[sympy.Rational(x, d) for x in row] for row in span.rows]
    assert got == sred[: len(spiv), :].tolist()


@given(rect)
@settings(max_examples=60)
def test_nullspace_is_kernel(rows):
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    for v in basis:
        assert all(x == 0 for x in mat_vec(rows, v))
    assert len(basis) == ncols - len(rref(rows).pivots)


@given(square)
@settings(max_examples=60, deadline=None)
def test_charpoly_matches_sympy(rows):
    got = charpoly(rows)
    want = sympy.Matrix(rows).charpoly()
    coeffs = [int(c) for c in want.all_coeffs()]
    assert list(reversed(got.coeffs)) == coeffs


def test_charpoly_2x2():
    assert charpoly([[1, 2], [3, 4]]) == IntPoly([-2, -5, 1])
    assert charpoly([]) == IntPoly([1])


def test_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        chi = charpoly(a)
        z = apply_poly(chi, a)
        assert all(x == 0 for row in z for x in row)


def test_echelon_basis_and_restrict():
    span = EchelonBasis.of([[2, 4, 6], [2, 2, 3]])
    # reduced rows (1, 0, 0) and (0, 1, 3/2) over the common denominator 2
    assert (span.rows, span.denom, span.pivots) == ([[2, 0, 0], [0, 2, 3]], 2, [0, 1])
    # operator scaling by 2 restricted to any span is 2*I, here 4*I over 2
    op = [[2 if i == j else 0 for j in range(3)] for i in range(3)]
    assert restrict_operator(op, span) == [[4, 0], [0, 4]]
    # a swap of the last two coordinates on the span of e1 and e2 + e3
    swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    span = EchelonBasis.of([[1, 0, 0], [0, 3, 3]])
    assert restrict_operator(swap, span) == [[1, 0], [0, 1]]
    m = restrict_operator([[0, 1, 1], [0, 0, 0], [0, 0, 0]], span)
    assert m == [[0, 2], [0, 0]]
    assert type(m[0][1]) is int
    with pytest.raises(ValueError):
        EchelonBasis.of([[1, 2], [2, 4]])


def test_restrict_operator_rejects_unstable_span():
    span = EchelonBasis.of([[1, 0]])
    with pytest.raises(ValueError):
        restrict_operator([[0, 0], [1, 0]], span)
    # stable on the first coordinate, not on the span of e1 + e3 / 3
    op = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    with pytest.raises(ValueError):
        restrict_operator(op, EchelonBasis.of([[3, 0, 1]]))


def test_restriction_matches_solved_coordinates():
    """B M = A B for the echelon basis B of a stable span, against sympy.
    A = U D adj(U) for a block-diagonal D (blocks of size 1 and 2) and an
    invertible U, and the spans are the kernels of f(A) for the irreducible
    factors f of A's charpoly: none is empty, and many are spanned by
    columns of U whose reduced echelon rows have a denominator."""
    rng = random.Random(11)
    denoms = []
    for _ in range(20):
        n = rng.randrange(2, 6)
        d = sympy.zeros(n, n)
        i = 0
        while i < n:
            size = min(rng.randrange(1, 3), n - i)
            for r in range(i, i + size):
                for c in range(i, i + size):
                    d[r, c] = rng.randrange(-4, 5)
            i += size
        u = sympy.zeros(n, n)
        while not u.det():
            u = sympy.Matrix(n, n, lambda *_: rng.randrange(-3, 4))
        a = [[int(x) for x in row] for row in (u * d * u.adjugate()).tolist()]
        for f, _ in factor_over_z(charpoly(a)):
            span = EchelonBasis.of(nullspace(apply_poly(f, a), n))
            assert span.rows
            m = restrict_operator(a, span)
            b = sympy.Matrix(span.rows).T / span.denom
            assert sympy.Matrix(a) * b == b * sympy.Matrix(m) / span.denom
            denoms.append(span.denom)
    assert sum(d > 1 for d in denoms) >= 20, denoms


def test_cayley_hamilton_with_denominators():
    rng = random.Random(7)
    for den in (3, 4):
        for _ in range(10):
            n = rng.randrange(1, 6)
            b = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            a = sympy.Matrix(b) / den
            chi = IntPoly([int(c * den**n) for c in a.charpoly().all_coeffs()[::-1]])
            z = apply_poly(chi, b, den)
            assert all(x == 0 for row in z for x in row)
            # den^3 f(A) exactly, also where f(A) is not integral
            f = IntPoly([1, -2, 0, 1])
            want = den**3 * (a**3 - 2 * a + sympy.eye(n))
            got = apply_poly(f, b, den)
            assert sympy.Matrix(got) == want
            assert all(type(x) is int for row in got for x in row)


@given(square, square)
@settings(max_examples=30)
def test_mat_mul_matches_sympy(a, b):
    if len(a) != len(b):
        return
    got = mat_mul(a, b)
    want = sympy.Matrix(a) * sympy.Matrix(b)
    assert [[int(x) for x in row] for row in got] == want.tolist()


def _sympy_charpoly(a):
    return list(reversed(sympy.Matrix(a).charpoly().all_coeffs()))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(1, 12), min_size=n, max_size=n),
            st.integers(2, 12),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_charpoly_matches_sympy_with_denominators(data):
    m, scale, den = data
    # D M D^-1 = K / L has denominators up to 12 and the integral charpoly of M
    lcd = math.lcm(*scale)
    k = [
        [x * scale[i] * (lcd // scale[j]) for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]
    assert list(charpoly(k, lcd).coeffs) == _sympy_charpoly(m)
    # M / den: equal to sympy where integral, refused otherwise
    want = _sympy_charpoly(sympy.Matrix(m) / den)
    if all(c.q == 1 for c in want):
        assert list(charpoly(m, den).coeffs) == [int(c) for c in want]
    else:
        with pytest.raises(AssertionError):
            charpoly(m, den)


def test_charpoly_large_entries_need_several_primes():
    rng = random.Random(3)
    for n in (8, 10, 12):
        a = [[rng.randrange(-(10**6), 10**6 + 1) for _ in range(n)] for _ in range(n)]
        # the CRT bound 2 * prod(1 + B_i) exceeds the product of two 61-bit primes
        bound = 2 * math.prod(2 + math.isqrt(sum(x * x for x in row)) for row in a)
        assert bound > 2**122
        assert list(charpoly(a).coeffs) == _sympy_charpoly(a)


def test_charpoly_block_diagonal_and_small():
    rng = random.Random(4)
    for sizes in ((1, 1, 1), (2, 3), (3, 1, 2), (4, 4)):
        n = sum(sizes)
        a = [[0] * n for _ in range(n)]
        start = 0
        for s in sizes:
            for i in range(start, start + s):
                for j in range(start, start + s):
                    a[i][j] = rng.randrange(-50, 51)
            start += s
        assert list(charpoly(a).coeffs) == _sympy_charpoly(a)
    assert charpoly([[0] * 4 for _ in range(4)]) == IntPoly([0, 0, 0, 0, 1])
    assert charpoly([]) == IntPoly([1])
    assert charpoly([[7]]) == IntPoly([-7, 1])
    assert charpoly([[-6]], 2) == IntPoly([3, 1])
    with pytest.raises(AssertionError):
        charpoly([[1]], 2)
