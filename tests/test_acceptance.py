"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from congruon.arith import valuation
from congruon.congruence import congruence_number
from congruon.intpoly import IntPoly, factor_over_z, gcd_over_q
from congruon.linalg import mat_mul
from congruon.modsym import build_space, newform_classes
from congruon.pipeline import (
    ComparisonOptions,
    PreconditionError,
    compare_newforms,
    eisenstein_scan,
    index_gamma0,
    level_raising_check,
    oldspace_charpoly,
    sturm_bound,
)
from test_modsym import cuspidal_subspace


@contextmanager
def _report(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {desc}")


def _best_pair(level, opts=None):
    classes = newform_classes(level)
    best = None
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            rec = compare_newforms(classes[i], classes[j], opts or ComparisonOptions())
            if best is None or rec.l_plus > best.l_plus:
                best = rec
    return best


def test_criterion_1_congruence_numbers_with_cofactors():
    with _report(1, "congruence numbers 72 and 48 with verified cofactors"):
        for q0, want in ((-60, 72), (60, 48)):
            p, q = IntPoly([12, 1]), IntPoly([q0, 1])
            res = congruence_number(p, q)
            assert res.c == want
            assert res.r * p + res.s * q == IntPoly([want])
            assert res.r.degree < q.degree and res.s.degree < p.degree


def test_criterion_2_level_71_congruence_18():
    with _report(2, "level 71 pair congruent modulo 18 = 2*3^2, lower = upper"):
        rec = _best_pair(71)
        assert rec.l_minus == 18 and rec.l_plus == 18
        assert valuation(3, rec.l_plus) == 2
        a, b = newform_classes(71)
        exps = []
        for p in (2, 3, 5, 11):  # p=7 shares a charpoly, p=3 is excluded
            if p == 3:
                continue
            pa, pb = a.class_charpoly(p), b.class_charpoly(p)
            if gcd_over_q(pa, pb).degree > 0:
                continue
            exps.append(congruence_number(pa, pb).exponent(3)[0])
        assert min(exps) == 2


def test_criterion_3_further_table_levels():
    with _report(3, "levels 109, 233, 155 give maxima 4, 27, 16"):
        assert _best_pair(109).l_plus == 4
        assert _best_pair(233).l_plus == 27
        assert _best_pair(155).l_plus == 16


def test_criterion_4_level_71_hecke_field():
    with _report(4, "level 71 classes: irreducible cubics, disc 257, mod-3 type (1,2)"):
        import sympy

        for cls in newform_classes(71):
            poly = cls.class_charpoly(2)
            assert poly.degree == 3
            assert len(factor_over_z(poly)) == 1
            x = sympy.Symbol("x")
            assert sympy.discriminant(sympy.Poly(poly.coeffs[::-1], x)) == 257
            fac = sympy.factor_list(
                sympy.Poly(list(reversed(poly.coeffs)), x, modulus=3)
            )[1]
            assert sorted(f.degree() for f, _ in fac) == [1, 2]


def test_criterion_5_random_oracle_suite():
    with _report(5, "500 random split pairs match the direct valuation oracle"):
        start = time.monotonic()
        rng = random.Random(0xABCDE)
        checked = 0
        while checked < 500:
            dp, dq = rng.randrange(1, 5), rng.randrange(1, 5)
            p_roots = [rng.randrange(-200, 201) for _ in range(dp)]
            q_roots = [rng.randrange(-200, 201) for _ in range(dq)]
            if set(p_roots) & set(q_roots):
                continue
            rec = congruence_number(
                IntPoly.from_roots(p_roots), IntPoly.from_roots(q_roots)
            )
            for ell in (2, 3, 5):
                want = max(
                    valuation(ell, b - a) for a in p_roots for b in q_roots
                )
                assert rec.exponent(ell)[0] == want
                assert rec._newton_exponent(ell) == want
                bounds = rec.bounds(ell)
                assert bounds.lower <= want <= bounds.upper
            checked += 1
        assert time.monotonic() - start < 30


def test_criterion_6_oldspace_charpoly_identities():
    with _report(6, "old-space characteristic polynomial identities"):
        import sympy

        rng = random.Random(6)
        x = IntPoly.x()
        sx = sympy.Symbol("x")
        for _ in range(40):
            d = rng.randrange(1, 5)
            r = rng.randrange(1, 4)
            p = rng.choice([2, 3, 5])
            k = rng.choice([2, 4])
            delta = rng.randrange(2)
            poly = IntPoly([rng.randrange(-9, 9) for _ in range(d)] + [1])
            out = oldspace_charpoly(poly, r, delta, p, k)
            assert out.degree == d * (r + 1) and out.is_monic
            # independent recomputation through sympy symbolic algebra
            expr = sum(
                c * sx ** (d * r - i) * (sx**2 + delta * p ** (k - 1)) ** i
                for i, c in enumerate(poly.coeffs)
            )
            want = [int(c) for c in sympy.Poly(sympy.expand(expr), sx).all_coeffs()]
            assert list(reversed(out.coeffs)) == want
            if delta == 0:
                assert out == x ** (d * r) * poly
            if d == 1 and delta == 1:
                a = -poly[0]
                assert out == x ** (r - 1) * IntPoly([p ** (k - 1), -a, 1])


def test_criterion_7_sturm_bounds_and_indices():
    with _report(7, "Sturm bound 11 at level 71; level 11 has no primes below its bound"):
        sb = sturm_bound(71, 2)
        assert (sb.num, sb.den) == (11, 1) and sb.primes == [2, 3, 5, 7, 11]
        sb11 = sturm_bound(11, 2)
        assert sb11.primes == []
        a = newform_classes(11)[0]
        try:
            compare_newforms(a, a)
        except PreconditionError:
            pass
        else:
            raise AssertionError("expected a precondition failure")
        assert index_gamma0(71) == 72
        assert index_gamma0(12) == 24


def test_criterion_8_level_raising_17_59():
    with _report(8, "level 17: a_59 = -12 and level raising holds modulo 9"):
        (cls,) = newform_classes(17)
        assert cls.class_charpoly(59) == IntPoly([12, 1])  # a_59 = -12
        r = level_raising_check(cls, 59, 3)
        assert (r.e_minus, r.e_plus) == (2, 1)
        assert (r.c_minus, r.c_plus) == (72, 48)


def test_criterion_9_dimensions_commutativity_product_law():
    with _report(9, "cuspidal plus dims match genus for all levels up to 120; Hecke coherence"):
        def oracle_genus(n):
            fac = {}
            m, d = n, 2
            while d * d <= m:
                while m % d == 0:
                    fac[d] = fac.get(d, 0) + 1
                    m //= d
                d += 1
            if m > 1:
                fac[m] = fac.get(m, 0) + 1
            index = n
            for p in fac:
                index = index // p * (p + 1)
            nu2 = 0 if n % 4 == 0 else math.prod(
                1 + {1: 1, 3: -1}[p % 4] for p in fac if p != 2
            )
            nu3 = 0 if n % 9 == 0 else math.prod(
                1 + {1: 1, 2: -1}[p % 3] for p in fac if p != 3
            )

            def phi(m):
                r = m
                dd = 2
                mm = m
                seen = set()
                while dd * dd <= mm:
                    if mm % dd == 0:
                        seen.add(dd)
                        while mm % dd == 0:
                            mm //= dd
                    dd += 1
                if mm > 1:
                    seen.add(mm)
                for p in seen:
                    r = r // p * (p - 1)
                return r

            cusps = sum(
                phi(math.gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0
            )
            g = Fraction(12 + index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
            assert g.denominator == 1
            return int(g)

        for n in range(1, 121):
            space = build_space(n)
            assert cuspidal_subspace(space).dimension == oracle_genus(n), n
        # commutativity of Hecke operators on a sample of levels
        for n in (14, 33, 45, 71):
            cusp = cuspidal_subspace(build_space(n))
            if cusp.dimension == 0:
                continue
            primes = [p for p in (2, 3, 5, 7, 11, 13) if n % p != 0]
            mats = {p: cusp.hecke_matrix(p) for p in primes}
            for p in primes:
                for q in primes:
                    assert mat_mul(mats[p], mats[q]) == mat_mul(mats[q], mats[p])
        # class charpolys multiply back to the charpoly of the new subspace
        from congruon.modsym import cuspidal_new_subspace, decompose_into_classes

        for n in (30, 34, 71):
            new = cuspidal_new_subspace(build_space(n))
            if new.dimension == 0:
                continue
            classes = decompose_into_classes(new)
            for p in (2, 3):
                if n % p == 0:
                    continue
                prod = IntPoly([1])
                for c in classes:
                    prod = prod * c.class_charpoly(p)
                assert prod == new.hecke_charpoly(p)


def test_criterion_10_eisenstein_level_11():
    with _report(10, "level 11 Eisenstein congruence at 5 matches the numerator of (N-1)/12"):
        (cls,) = newform_classes(11)
        entries = eisenstein_scan(cls, prime_cutoff_override=13)
        assert [e.ell for e in entries] == [5]
        entry = entries[0]
        assert entry.exponent >= 1
        num = Fraction(11 - 1, 12).numerator
        assert valuation(5, num) == 1 == entry.mazur_valuation
