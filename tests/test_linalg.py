import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from congruon.intpoly import IntPoly
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


@given(rect)
@settings(max_examples=80)
def test_rref_matches_sympy(rows):
    red, piv = rref(rows)
    sred, spiv = sympy.Matrix(rows).rref()
    assert list(piv) == list(spiv)
    want = [
        [Fraction(int(sred[i, j].p), int(sred[i, j].q)) for j in range(sred.cols)]
        for i in range(len(piv))
    ]
    assert red == want


@given(rect)
@settings(max_examples=60)
def test_nullspace_is_kernel(rows):
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    for v in basis:
        assert all(x == 0 for x in mat_vec(rows, v))
    assert len(basis) == ncols - len(rref(rows)[1])


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
        a = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
        chi = charpoly(a)
        z = apply_poly(chi, a)
        assert all(x == 0 for row in z for x in row)


def test_echelon_basis_and_restrict():
    span = EchelonBasis.of([[2, 4, 6], [1, 1, Fraction(3, 2)]])
    # reduced rows (1, 0, 0) and (0, 1, 3/2) over the common denominator 2
    assert (span.rows, span.denom, span.pivots) == ([[2, 0, 0], [0, 2, 3]], 2, [0, 1])
    # operator scaling by 2 restricted to any span is 2*I
    op = [[2 if i == j else 0 for j in range(3)] for i in range(3)]
    assert restrict_operator(op, span) == [[2, 0], [0, 2]]
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
    span = EchelonBasis.of([[Fraction(1), Fraction(0)]])
    with pytest.raises(ValueError):
        restrict_operator([[0, 0], [1, 0]], span)
    # stable on the first coordinate, not on the span of e1 + e3 / 3
    op = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    with pytest.raises(ValueError):
        restrict_operator(op, EchelonBasis.of([[1, 0, Fraction(1, 3)]]))


def test_restriction_matches_solved_coordinates():
    # B M = A B for the echelon basis B, against sympy's solve
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 6)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        # a stable span: the kernel of a polynomial in A
        f = IntPoly([rng.randrange(-3, 4), rng.randrange(-3, 4), 1])
        ker = nullspace(apply_poly(f, a), n)
        if not ker:
            continue
        span = EchelonBasis.of(ker)
        m = restrict_operator(a, span)
        b = sympy.Matrix(span.rows).T / span.denom
        assert sympy.Matrix(a) * b == b * sympy.Matrix(m)


def test_cayley_hamilton_with_denominators():
    rng = random.Random(7)
    for den in (3, 4):
        for _ in range(10):
            n = rng.randrange(1, 6)
            a = [[Fraction(rng.randrange(-9, 10), den) for _ in range(n)] for _ in range(n)]
            chi = IntPoly(
                [int(c * den**n) for c in reversed(sympy.Matrix(a).charpoly().all_coeffs())]
            )
            z = apply_poly(chi, a)
            assert all(x == 0 for row in z for x in row)
            # f(A) exactly, also where it is not integral
            f = IntPoly([1, -2, 0, 1])
            want = sympy.Matrix(a) ** 3 - 2 * sympy.Matrix(a) + sympy.eye(n)
            got = apply_poly(f, a)
            assert sympy.Matrix(got) == want
            assert all(type(x) is int for row in got for x in row if x.denominator == 1)


@given(square, square)
@settings(max_examples=30)
def test_mat_mul_matches_sympy(a, b):
    if len(a) != len(b):
        return
    got = mat_mul(a, b)
    want = sympy.Matrix(a) * sympy.Matrix(b)
    assert [[int(x) for x in row] for row in got] == want.tolist()
