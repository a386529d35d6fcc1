"""Newton polygons at a prime, and the congruence exponent read from a slope.

Slopes are exact rationals and follow the root-valuation orientation: a hull
segment from (i1, v1) to (i2, v2) with i1 < i2 contributes i2 - i1 roots of
valuation (v1 - v2) / (i2 - i1). Slopes are weakly decreasing left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, valuation


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, v_ell(a_i)) for a polynomial sum a_i Y^i.

    ``segments`` holds (slope, length) pairs; ``infinite_roots`` counts the
    roots of valuation infinity coming from a factor Y^k.
    """

    vertices: tuple
    segments: tuple
    infinite_roots: int = 0

    @property
    def slopes(self):
        """Multiset of finite root valuations, one entry per root."""
        out = []
        for slope, length in self.segments:
            out.extend([slope] * length)
        return out

    @property
    def max_slope(self):
        if self.segments:
            return self.segments[0][0]
        return None


def newton_polygon(ell, poly):
    """Newton polygon of a nonzero integer polynomial at the prime ell.

    Zero coefficients never lie on the lower hull and are skipped.
    """
    if poly.is_zero:
        raise ValueError("Newton polygon of the zero polynomial")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    points = [(i, valuation(ell, c)) for i, c in enumerate(poly.coeffs) if c != 0]
    infinite = points[0][0]  # order of vanishing at 0
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only strict counterclockwise turns: lower hull
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        segments.append((Fraction(y0 - y1, x1 - x0), x1 - x0))
    return NewtonPolygon(tuple(hull), tuple(segments), infinite)


def exponent_from_slope(s):
    """ceil(s): the maximal n with v > n - 1 when v equals the slope s."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("slope must be >= 0")
    return -((-s.numerator) // s.denominator)
