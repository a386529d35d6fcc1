import math
from fractions import Fraction
from pathlib import Path

import pytest

from congruon.intpoly import IntPoly, discriminant, factor_over_z
from congruon.linalg import EchelonBasis, charpoly, mat_mul, mat_vec, restrict_operator
from congruon.modsym import (
    P1,
    LevelCapError,
    ModSymSpace,
    Subspace,
    build_space,
    cuspidal_new_subspace,
    cuspidal_subspace,
    decompose_into_classes,
    eisenstein_charpoly,
    lift_to_sl2z,
    merel_matrices,
    newform_classes,
)


# --- independent genus / dimension oracle (arithmetic formulas only) --------


def _prime_factors(m):
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _oracle_invariants(n):
    fac = _prime_factors(n)
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
        for p in _prime_factors(m):
            r = r // p * (p - 1)
        return r

    cusps = 0
    for d in range(1, n + 1):
        if n % d == 0:
            cusps += phi(math.gcd(d, n // d))
    genus = Fraction(12 + index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1
    return index, int(genus), cusps


def test_p1_size():
    # |P^1(Z/NZ)| equals the index of Gamma0(N)
    for n in [1, 2, 6, 11, 12, 25, 36, 71]:
        index, _, _ = _oracle_invariants(n)
        assert len(P1(n)) == (index if n > 1 else 1)


def test_p1_reduce_consistency():
    p1 = P1(12)
    for c in range(12):
        for d in range(12):
            r = p1.reduce((c, d))
            if r is None:
                assert math.gcd(math.gcd(c, d), 12) > 1
            else:
                # representative is projectively equivalent to the input
                assert any(
                    (u * c - r[0]) % 12 == 0 and (u * d - r[1]) % 12 == 0
                    for u in range(1, 12)
                    if math.gcd(u, 12) == 1
                )


@pytest.mark.parametrize("n", [1, 12, 36, 90])
def test_p1_index_agrees_with_reduce(n):
    p1 = P1(n)
    for c in range(-n, 2 * n):
        for d in range(-n, 2 * n):
            r = p1.reduce((c, d))
            if r is None:
                with pytest.raises(ValueError):
                    p1.index((c, d))
            else:
                assert p1[p1.index((c, d))] == r


def test_merel_set_determinant_and_p2():
    mats = list(merel_matrices(2))
    assert len(mats) == 4
    for a, b, c, d in mats:
        assert a * d - b * c == 2
    for p in (3, 5, 7):
        for a, b, c, d in merel_matrices(p):
            assert a * d - b * c == p


def test_lift_to_sl2z():
    for n in (1, 11, 12, 71):
        p1 = P1(n)
        for c, d in p1:
            a, b, cc, dd = lift_to_sl2z(c, d, n)
            assert a * dd - b * cc == 1
            assert (cc - c) % n == 0 and (dd - d) % n == 0


@pytest.mark.parametrize("n", [1, 2, 10, 11, 22, 37, 48, 71])
def test_dimensions_match_oracle(n):
    index, genus, cusps = _oracle_invariants(n)
    space = build_space(n)
    assert space.dimension == 2 * genus + cusps - 1
    assert cuspidal_subspace(space).dimension == 2 * genus


def test_cusp_count_matches_oracle():
    for n in (11, 12, 22, 36, 71):
        space = build_space(n)
        cusps, _ = space.boundary_data()
        assert len(cusps) == _oracle_invariants(n)[2]


def test_level_11_hecke_eigenvalues():
    # independent oracle: point counts on y^2 + y = x^3 - x^2 - 10x - 20
    def a_p(p):
        count = 0
        for x in range(p):
            for y in range(p):
                if (y * y + y - (x**3 - x**2 - 10 * x - 20)) % p == 0:
                    count += 1
        return p + 1 - (count + 1)

    cusp = cuspidal_subspace(build_space(11))
    assert cusp.hecke_charpoly(2) == IntPoly([-a_p(2), 1]) ** 2
    assert cusp.hecke_charpoly(3) == IntPoly([-a_p(3), 1]) ** 2
    assert a_p(2) == -2 and a_p(3) == -1


def test_hecke_commutativity_sample():
    for n in (11, 22, 30, 49):
        space = build_space(n)
        cusp = cuspidal_subspace(space)
        if cusp.dimension == 0:
            continue
        mats = {p: cusp.hecke_matrix(p) for p in (2, 3, 5)}
        for p in (2, 3):
            for q in (3, 5):
                assert mat_mul(mats[p], mats[q]) == mat_mul(mats[q], mats[p])


def test_full_space_hecke_matrices_are_int():
    for n in (11, 36, 90, 130):
        space = build_space(n)
        for p in (2, 3, 5, 7):
            assert all(type(x) is int for row in space.hecke_matrix(p) for x in row)


@pytest.mark.parametrize("n", [90, 114, 130, 135])
def test_hecke_commutativity_on_new_subspace(n):
    new = cuspidal_new_subspace(build_space(n))
    if n != 90:
        # echelon denominators 2, 5 and 4, so restriction divides by them
        assert new.echelon.denom > 1
    primes = [p for p in (2, 3, 5, 7, 11) if n % p]
    mats = {p: new.hecke_matrix(p) for p in primes}
    for p in primes:
        for q in primes:
            assert mat_mul(mats[p], mats[q]) == mat_mul(mats[q], mats[p])


def test_restriction_to_unstable_span_rejected():
    space = build_space(37)
    cusp = cuspidal_subspace(space)
    # one vector of the cuspidal space spans no T_2-stable line here
    line = EchelonBasis.of(cusp.echelon.rows[:1])
    with pytest.raises(ValueError):
        restrict_operator(space.hecke_matrix(2), line)
    with pytest.raises(ValueError):
        Subspace(space, cusp.echelon.rows[:1], "line")


def test_path_vector_boundary_consistency():
    # boundary of {alpha, beta} must be [beta] - [alpha] as cusp classes
    for n in (11, 14, 24):
        space = build_space(n)
        cusps, boundary = space.boundary_data()
        for alpha, beta in [((0, 1), (1, 0)), ((1, 2), (1, 3)), ((2, 5), (0, 1))]:
            vec = space.symbol_between_cusps(alpha, beta)
            img = mat_vec(boundary, vec)
            ib, ia = cusps.index(beta), cusps.index(alpha)
            want = [Fraction(0)] * len(cusps)
            want[ib] += 1
            want[ia] -= 1
            img = img + [Fraction(0)] * (len(cusps) - len(img))
            assert img == want


def test_infinity_zero_symbol():
    space = build_space(11)
    v = space.symbol_between_cusps((1, 0), (0, 1))
    assert v == space.symbol_vector((1, 0))
    neg = [-x for x in space.symbol_vector((0, 1))]
    assert v == neg


def test_new_subspace():
    assert cuspidal_new_subspace(build_space(22)).dimension == 0
    # prime level: new = cuspidal
    for n in (11, 37):
        space = build_space(n)
        assert (
            cuspidal_new_subspace(space).dimension
            == cuspidal_subspace(space).dimension
        )
    # level 55 = 5*11: old space from 11 has dimension 2*2 (two maps)
    space55 = build_space(55)
    _, genus55, _ = _oracle_invariants(55)
    assert cuspidal_subspace(space55).dimension == 2 * genus55
    assert cuspidal_new_subspace(space55).dimension == 2 * genus55 - 4


def _new_dimension(n):
    """2 * sum over M | N of beta(N/M) g0(M), beta = mu * mu: the dimension of
    the new modular symbols, two per newform."""

    def beta(m):
        return math.prod({1: -2, 2: 1}.get(e, 0) for e in _prime_factors(m).values())

    return 2 * sum(
        beta(n // m) * _oracle_invariants(m)[1] for m in range(1, n + 1) if n % m == 0
    )


def _golden_degrees():
    """Class degrees per level, read from the FORM lines of the golden files
    (which the engine reproduces byte for byte, see test_golden)."""
    out = {}
    for name in ("charpolys.txt", "charpolys_high.txt"):
        for line in (Path(__file__).parent / "golden" / name).read_text().splitlines():
            if line.startswith("FORM "):
                fields = dict(f.split("=") for f in line.split()[1:])
                out.setdefault(int(fields["level"]), []).append(int(fields["degree"]))
    return out


def test_new_subspace_dimension_matches_oracle():
    degrees = _golden_degrees()
    for n in [*range(11, 121), 155, 233, 301]:
        dim = _new_dimension(n)
        assert cuspidal_new_subspace(build_space(n, cap=301)).dimension == dim, n
        assert 2 * sum(degrees.get(n, [])) == dim, n


def test_level_cap():
    with pytest.raises(LevelCapError):
        build_space(301)
    with pytest.raises(LevelCapError):
        newform_classes(500)


def test_classes_level_11_and_17():
    (c11,) = newform_classes(11)
    assert (c11.id, c11.degree) == ("11.2.a", 1)
    assert c11.class_charpoly(2) == IntPoly([2, 1])
    assert c11.class_charpoly(3) == IntPoly([1, 1])
    (c17,) = newform_classes(17)
    assert c17.class_charpoly(59) == IntPoly([12, 1])


def test_classes_level_71_structure():
    classes = newform_classes(71)
    assert [c.degree for c in classes] == [3, 3]
    assert [c.id for c in classes] == ["71.2.a", "71.2.b"]
    for c in classes:
        poly = c.class_charpoly(2)
        assert len(factor_over_z(poly)) == 1  # irreducible cubic
        assert discriminant(poly) == 257
        # factorization type of the charpoly mod 3: linear times quadratic
        import sympy

        x = sympy.Symbol("x")
        fac = sympy.factor_list(
            sympy.Poly(list(reversed(poly.coeffs)), x, modulus=3)
        )[1]
        degrees = sorted(f.degree() for f, _ in fac)
        assert degrees == [1, 2]


def test_class_charpoly_product_law():
    for n in (11, 23, 71):
        space = build_space(n)
        new = cuspidal_new_subspace(space)
        classes = decompose_into_classes(new)
        for p in (2, 3, 5):
            if n % p == 0:
                continue
            chi = new.hecke_charpoly(p)
            prod = IntPoly([1])
            for c in classes:
                prod = prod * c.class_charpoly(p) ** 2
            assert prod == chi


def test_basis_independence():
    # same charpolys through an independently rebuilt space
    a = ModSymSpace(23)
    b = ModSymSpace(23)
    ca = decompose_into_classes(cuspidal_new_subspace(a))
    cb = decompose_into_classes(cuspidal_new_subspace(b))
    assert [c.class_charpoly(2) for c in ca] == [c.class_charpoly(2) for c in cb]
    assert [c.class_charpoly(7) for c in ca] == [c.class_charpoly(7) for c in cb]


def test_even_trace_prime_level():
    for n in (11, 23, 31):
        cusp = cuspidal_subspace(build_space(n))
        for p in (2, 3, 5, 7, 13):
            m = cusp.hecke_matrix(p)
            tr = sum(m[i][i] for i in range(len(m)))
            assert tr.denominator == 1 and tr.numerator % 2 == 0


def test_eisenstein_charpoly():
    assert eisenstein_charpoly(11, 2) == IntPoly([-3, 1])
    with pytest.raises(ValueError):
        eisenstein_charpoly(12, 5)
    with pytest.raises(ValueError):
        eisenstein_charpoly(11, 11)
