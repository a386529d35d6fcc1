import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

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
