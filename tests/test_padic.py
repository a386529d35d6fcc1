from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from congruon.intpoly import IntPoly
from congruon.padic import exponent_from_slope, newton_polygon


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


def test_newton_polygon_examples():
    # Y^2 - 9 at 3: both roots have valuation 1
    np1 = newton_polygon(3, IntPoly([-9, 0, 1]))
    assert np1.segments == ((Fraction(1), 2),)
    assert np1.max_slope == 1
    # Y - 72 at 2: single root of valuation 3
    np2 = newton_polygon(2, IntPoly([-72, 1]))
    assert np2.slopes == [Fraction(3)]
    # unit constant term: all slopes <= 0 at any prime not dividing a_0
    np3 = newton_polygon(5, IntPoly([1, 1, 1]))
    assert np3.max_slope == 0
    # Y^2 * (Y - 8) at 2: two infinite roots, one of valuation 3
    np4 = newton_polygon(2, IntPoly([0, 0, -8, 1]))
    assert np4.infinite_roots == 2
    assert np4.slopes == [Fraction(3)]


def test_newton_polygon_mixed_slopes():
    # (Y - 2)(Y - 4) = Y^2 - 6Y + 8 at 2: valuations 1 and 2, decreasing order
    np1 = newton_polygon(2, IntPoly([8, -6, 1]))
    assert np1.slopes == [Fraction(2), Fraction(1)]
    assert np1.max_slope == 2


def test_newton_polygon_fractional_slope():
    # Y^2 - 2 at 2: two roots of valuation 1/2
    np1 = newton_polygon(2, IntPoly([-2, 0, 1]))
    assert np1.slopes == [Fraction(1, 2), Fraction(1, 2)]


@given(
    st.lists(st.integers(-3, 6), min_size=2, max_size=8),
    st.sampled_from([2, 3, 5]),
)
def test_newton_polygon_matches_slow_hull(exps, ell):
    coeffs = [ell**e if e >= 0 else 0 for e in exps]
    if not any(coeffs):
        return
    poly = IntPoly(coeffs)
    points = [(i, e) for i, e in enumerate(exps[: poly.degree + 1]) if e >= 0 and coeffs[i]]
    got = newton_polygon(ell, poly)
    assert list(got.vertices) == _hull_oracle(points)
    # slopes weakly decreasing, total finite length = degree - infinite part
    slopes = got.slopes
    assert slopes == sorted(slopes, reverse=True)
    assert len(slopes) + got.infinite_roots == poly.degree


def test_exponent_from_slope():
    assert exponent_from_slope(Fraction(3, 2)) == 2
    assert exponent_from_slope(Fraction(2)) == 2
    assert exponent_from_slope(Fraction(1, 3)) == 1
    assert exponent_from_slope(0) == 0
