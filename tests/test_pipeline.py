import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruon.arith import factorize, primes_upto, valuation
from congruon.intpoly import IntPoly
from congruon.modsym import NewformClass, newform_classes
from congruon.pipeline import (
    ComparisonOptions,
    NotCoprimeError,
    PreconditionError,
    SturmBound,
    compare_newforms,
    eisenstein_scan,
    index_gamma0,
    level_raising_check,
    modified_gcd_combine,
    oldspace_charpoly,
    sturm_bound,
)


def test_index_gamma0():
    assert index_gamma0(1) == 1
    assert index_gamma0(71) == 72
    assert index_gamma0(12) == 24


def test_sturm_bound_values():
    sb = sturm_bound(71, 2)
    assert (sb.num, sb.den) == (11, 1)
    assert sb.primes == [2, 3, 5, 7, 11]  # p == B is included
    sb11 = sturm_bound(11, 2)
    assert (sb11.num, sb11.den) == (1, 1) and sb11.primes == []
    assert (sturm_bound(1, 12).num, sturm_bound(1, 12).den) == (1, 1)


def test_sturm_bound_is_exact_in_lowest_terms():
    """num/den is k*b/12 - (b-1)/N in lowest terms, and its primes are those
    up to it, at every level up to 400 and weights 2, 4 and 12."""
    for n in range(1, 401):
        b = index_gamma0(n)
        for k in (2, 4, 12):
            sb = sturm_bound(n, k)
            want = Fraction(k * b, 12) - Fraction(b - 1, n)
            assert (sb.num, sb.den) == (want.numerator, want.denominator), (n, k)
            assert sb.primes == primes_upto(math.floor(want)), (n, k)
    for num, den in ((22, 2), (11, 0), (11, -1), (-11, -1)):
        with pytest.raises(ValueError):
            SturmBound(num, den)


def test_modified_gcd_examples():
    assert modified_gcd_combine([(2, 12), (3, 9)]) == math.gcd(12, 27) == 3
    assert modified_gcd_combine([(2, 8), (3, 8), (5, 8)]) == 8
    assert modified_gcd_combine([(2, 40)]) == 40  # single entry kept whole
    with pytest.raises(ValueError):
        modified_gcd_combine([])
    with pytest.raises(ValueError):
        modified_gcd_combine([(2, 4), (2, 8)])


@pytest.mark.parametrize("p", [1, -1, 0, 4, -2])
def test_modified_gcd_refuses_a_non_prime(p):
    """A non-prime p is refused, before the valuation of the p-part, which
    p = 1 and -1 would never finish."""
    with pytest.raises(ValueError, match="not prime"):
        modified_gcd_combine([(p, 6), (3, 3)])
    with pytest.raises(ValueError, match="not prime"):
        modified_gcd_combine([(2, 3), (p, 6)])


def test_modified_gcd_valuation_semantics():
    rng = random.Random(9)
    for _ in range(50):
        primes = random.Random(rng.random()).sample([2, 3, 5, 7, 11], rng.randrange(2, 5))
        entries = [
            (p, math.prod(q ** rng.randrange(0, 4) for q in (2, 3, 5, 7)))
            for p in primes
        ]
        got = modified_gcd_combine(entries)
        for ell in (2, 3, 5, 7, 11):
            want = min(
                (valuation(ell, c) for p, c in entries if p != ell), default=0
            )
            assert valuation(ell, got) == want, (entries, ell)


@given(st.permutations([(2, 12), (3, 90), (5, 72), (11, 144)]))
def test_modified_gcd_order_independent(perm):
    assert modified_gcd_combine(perm) == modified_gcd_combine(
        [(2, 12), (3, 90), (5, 72), (11, 144)]
    )


def test_oldspace_charpoly_identities():
    rng = random.Random(1)
    x = IntPoly.x()
    for d in range(1, 5):
        for r in range(1, 4):
            for k in (2, 4):
                for p in (2, 3, 5):
                    poly = IntPoly([rng.randrange(-9, 9) for _ in range(d)] + [1])
                    for delta in (0, 1):
                        out = oldspace_charpoly(poly, r, delta, p, k)
                        assert out.degree == d * (r + 1) and out.is_monic
                        if delta == 0:
                            assert out == x ** (d * r) * poly
                    if d == 1:
                        a = -poly[0]
                        want = x ** (r - 1) * IntPoly([p ** (k - 1), -a, 1])
                        assert oldspace_charpoly(poly, r, 1, p, k) == want


def test_oldspace_charpoly_example():
    # d=1, r=2, delta=1, k=2, p=2, P=X-1 -> X^3 - X^2 + 2X
    assert oldspace_charpoly(IntPoly([-1, 1]), 2, 1, 2, 2) == IntPoly([0, 2, -1, 1])


def _table1_pair(level):
    classes = newform_classes(level)
    best = None
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            rec = compare_newforms(classes[i], classes[j])
            if best is None or rec.l_plus > best.l_plus:
                best = rec
    return best


def test_table_rows():
    rec71 = _table1_pair(71)
    assert (rec71.l_minus, rec71.l_plus) == (18, 18)
    assert rec71.sturm == SturmBound(11, 1)
    rec109 = _table1_pair(109)
    assert (rec109.l_minus, rec109.l_plus) == (4, 4)


def test_l_minus_divides_l_plus_and_determinism():
    classes = newform_classes(155)
    recs = [
        compare_newforms(a, b)
        for i, a in enumerate(classes)
        for b in classes[i + 1 :]
    ]
    for rec in recs:
        assert rec.l_plus % rec.l_minus == 0
    again = [
        compare_newforms(a, b)
        for i, a in enumerate(classes)
        for b in classes[i + 1 :]
    ]
    assert recs == again


def test_self_comparison_rejected():
    (cls,) = newform_classes(11)
    with pytest.raises(PreconditionError, match="not coprime"):
        compare_newforms(cls, cls, ComparisonOptions(prime_cutoff_override=13))
    # same charpolys under a different id fail at the gcd stage
    clone = NewformClass(
        11, 2, 1, charpolys=dict(cls.charpolys), class_id="clone", subspace=cls._subspace
    )
    with pytest.raises(PreconditionError, match="not coprime"):
        compare_newforms(cls, clone, ComparisonOptions(prime_cutoff_override=13))


def test_weight_mismatch():
    a = NewformClass(11, 2, 1, charpolys={2: IntPoly([2, 1])}, class_id="a")
    b = NewformClass(11, 4, 1, charpolys={2: IntPoly([3, 1])}, class_id="b")
    with pytest.raises(PreconditionError, match="weight"):
        compare_newforms(a, b)


def test_insufficient_primes():
    a = NewformClass(11, 2, 1, charpolys={2: IntPoly([2, 1])}, class_id="a")
    b = NewformClass(11, 2, 1, charpolys={2: IntPoly([1, 1])}, class_id="b")
    with pytest.raises(PreconditionError, match="insufficient"):
        compare_newforms(a, b)
    rec = compare_newforms(a, b, ComparisonOptions(prime_cutoff_override=2))
    assert rec.insufficient_primes is True


def test_missing_charpoly_named():
    a = NewformClass(71, 2, 1, charpolys={2: IntPoly([2, 1])}, class_id="has2")
    b = NewformClass(71, 2, 1, charpolys={2: IntPoly([1, 1])}, class_id="also2")
    with pytest.raises(KeyError, match="p=3"):
        compare_newforms(a, b)


def test_comparison_refusals_are_typed():
    """Both "not coprime" refusals are NotCoprimeError (exit 3); a missing
    charpoly is a PreconditionError (exit 5) that is also a KeyError."""
    (cls,) = newform_classes(11)
    clone = NewformClass(
        11, 2, 1, charpolys=dict(cls.charpolys), class_id="clone", subspace=cls._subspace
    )
    for g in (cls, clone):
        with pytest.raises(NotCoprimeError) as exc:
            compare_newforms(cls, g, ComparisonOptions(prime_cutoff_override=13))
        assert exc.value.exit_code == 3
    a = NewformClass(71, 2, 1, charpolys={2: IntPoly([2, 1])}, class_id="has2")
    b = NewformClass(71, 2, 1, charpolys={2: IntPoly([1, 1])}, class_id="also2")
    with pytest.raises(PreconditionError) as exc:
        compare_newforms(a, b)
    assert isinstance(exc.value, KeyError) and exc.value.exit_code == 5


def test_eisenstein_scan_level_11():
    (cls,) = newform_classes(11)
    with pytest.raises(PreconditionError, match="insufficient"):
        eisenstein_scan(cls)
    entries = eisenstein_scan(cls, prime_cutoff_override=13)
    assert len(entries) == 1
    e = entries[0]
    assert e.ell == 5 and e.exponent >= 1 and e.mazur_valuation == 1
    assert Fraction(11 - 1, 12) == Fraction(5, 6)


def test_eisenstein_scan_meets_mazur_at_odd_ell():
    """Mazur (the Eisenstein ideal at prime N): for ell >= 3, some class at N
    is congruent to E modulo ell iff ell divides the numerator of (N-1)/12.
    Checked at every prime N <= 160 with a usable Sturm prime; 11 has none.
    ell = 2 is left unpinned: the scan skips p = ell, and at 17, 31, 43 and
    67 its entries at 2 disagree with the numerator."""
    pairs = 0
    for n in primes_upto(160):
        classes = newform_classes(n)
        if n == 11:
            with pytest.raises(PreconditionError, match="insufficient"):
                eisenstein_scan(classes[0])
            continue
        found = {
            e.ell
            for cls in classes
            for e in eisenstein_scan(cls)
            if e.ell >= 3 and e.exponent >= 1
        }
        numerator = Fraction(n - 1, 12).numerator
        assert found == {ell for ell in factorize(numerator) if ell >= 3}, n
        pairs += len(found)
    assert pairs == 32


def test_eisenstein_scan_refusals():
    """A class whose charpoly is X - (1+p) at every good prime is congruent
    to E everywhere (exit 3); level 2 with cutoff 2 has no usable prime
    (exit 5)."""
    e_like = NewformClass(
        11, 2, 1, charpolys={2: IntPoly([-3, 1]), 3: IntPoly([-4, 1])}, class_id="e"
    )
    with pytest.raises(NotCoprimeError) as exc:
        eisenstein_scan(e_like, prime_cutoff_override=3)
    assert exc.value.exit_code == 3
    with pytest.raises(PreconditionError) as exc:
        eisenstein_scan(NewformClass(2, 2, 1, class_id="two"), prime_cutoff_override=2)
    assert exc.value.exit_code == 5


def test_eisenstein_requires_prime_level():
    classes = newform_classes(26)
    with pytest.raises(PreconditionError, match="prime level"):
        eisenstein_scan(classes[0], prime_cutoff_override=13)


def test_level_raising_17_59():
    (cls,) = newform_classes(17)
    r = level_raising_check(cls, 59, 3)
    assert (r.c_minus, r.c_plus) == (72, 48)
    assert (r.e_minus, r.e_plus) == (2, 1)
    # consistency with the combined quadratic comparison
    from congruon.congruence import congruence_number

    combined, _ = congruence_number(
        cls.class_charpoly(59), IntPoly([-(60 * 60), 0, 1])
    ).exponent(3)
    assert combined == max(r.e_minus, r.e_plus)


def test_level_raising_p_divides_level():
    (cls,) = newform_classes(17)
    with pytest.raises(PreconditionError):
        level_raising_check(cls, 17, 3)


def test_step3_oldspace_path():
    # f at level 11, g at level 55 = 5*11: exercise the old-space branch
    f = newform_classes(11)[0]
    g_classes = newform_classes(55)
    opts = ComparisonOptions(assert_irreducible=True, prime_cutoff_override=7)
    for g in g_classes:
        rec = compare_newforms(f, g, opts)
        assert rec.l_plus % rec.l_minus == 0
        assert any(det.p == 5 for det in rec.per_prime)
