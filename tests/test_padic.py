import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from congruon.arith import valuation
from congruon.congruence import _first_slope_exponent
from congruon.intpoly import IntPoly


def _hull_oracle(points):
    """Slow lower-hull oracle: v is on the hull iff some line through v has
    every point on or above it; collinear interior points are dropped."""
    hull = []
    for v in points:
        candidates = [Fraction(0)] + [
            Fraction(w[1] - v[1], w[0] - v[0]) for w in points if w[0] != v[0]
        ]
        for s in candidates:
            if all(Fraction(w[1]) - s * w[0] >= Fraction(v[1]) - s * v[0] for w in points):
                hull.append(v)
                break
    hull.sort()
    out = [hull[0]]
    for v in hull[1:]:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            if (x1 - x0) * (v[1] - y0) == (y1 - y0) * (v[0] - x0):
                out.pop()
            else:
                break
        out.append(v)
    return out


@given(
    st.integers(0, 6),
    st.lists(st.integers(-3, 6), max_size=7),
    st.sampled_from([2, 3, 5]),
)
def test_newton_polygon_matches_slow_hull(e0, middle, ell):
    """The np exponent read off the coefficients equals ceil of the first
    slope of the slow hull, for a_0 != 0 and a monic top coefficient; a
    negative exponent stands for a zero coefficient."""
    exps = [e0, *middle, 0]
    coeffs = [ell**e if e >= 0 else 0 for e in exps]
    points = [(i, e) for i, e in enumerate(exps) if e >= 0]
    (x0, y0), (x1, y1) = _hull_oracle(points)[:2]
    first_slope = Fraction(y0 - y1, x1 - x0)
    assert _first_slope_exponent(ell, IntPoly(coeffs)) == math.ceil(first_slope)


def full_maximum(ell, f):
    """The exponent as the maximum over every i >= 1 with a_i != 0 of
    ceil((v(a_0) - v(a_i)) / i), with no early stop."""
    v0 = valuation(ell, f[0])
    return max(
        (v0 - valuation(ell, a) + i - 1) // i for i, a in enumerate(f.coeffs) if i and a
    )


@given(
    st.integers(0, 9),
    st.lists(st.integers(-1, 9), max_size=8),
    st.lists(st.sampled_from([1, -1, 7, -11, 13]), min_size=9, max_size=9),
    st.sampled_from([2, 3, 5]),
)
@example(0, [0, 3], [1] * 9, 2)  # v0 = 0: the scan stops at i = 1
@example(6, [6, 6], [1] * 9, 2)  # the maximum, 2, sits at i = deg f = 3 only
@example(9, [-1, 9, -1, 8], [7] * 9, 5)
def test_first_slope_exponent_matches_full_maximum(e0, middle, units, ell):
    """The early stop returns the full maximum for monic f with f(0) != 0:
    a_i is a unit prime to 2, 3 and 5 times ell^e_i, or 0 where e_i is -1."""
    exps = [e0, *middle]
    f = IntPoly([u * ell**e if e >= 0 else 0 for u, e in zip(units, exps)] + [1])
    assert _first_slope_exponent(ell, f) == full_maximum(ell, f)


@pytest.mark.parametrize(
    "coeffs, ell, want, argmax",
    [
        ([5, 2, 1], 2, 0, 2),  # v0 = 0, so every term is at most 0
        ([64, 64, 64, 1], 2, 2, 3),  # only the top term reaches ceil(6/3)
        ([2**7, 2**7, 2**7, 2**7, 1], 2, 2, 4),  # ceil(7/4) at i = 4 alone
        ([3**4, 3, 1], 3, 3, 1),  # ceil(3/1) at i = 1
    ],
)
def test_first_slope_exponent_where_the_maximum_sits(coeffs, ell, want, argmax):
    f = IntPoly(coeffs)
    v0 = valuation(ell, coeffs[0])
    terms = {
        i: -(-(v0 - valuation(ell, a)) // i) for i, a in enumerate(coeffs) if i and a
    }
    assert max(terms.values()) == want and terms[argmax] == want
    assert _first_slope_exponent(ell, f) == full_maximum(ell, f) == want
