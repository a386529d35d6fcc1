import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from congruon.arith import prime_divisors, primes_upto
from congruon.intpoly import IntPoly, factor_over_z
import congruon.modsym
from congruon.linalg import (
    EchelonBasis,
    charpoly,
    mat_mul,
    mat_vec,
    restrict_operator,
)
from congruon.modsym import (
    P1,
    LevelCapError,
    ModSymSpace,
    Subspace,
    build_space,
    cuspidal_new_subspace,
    cuspidal_subspace,
    decompose_into_classes,
    heilbronn_matrices,
    newform_classes,
)
from congruon.pipeline import sturm_bound


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


def _phi(m):
    r = m
    for p in _prime_factors(m):
        r = r // p * (p - 1)
    return r


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
    cusps = 0
    for d in range(1, n + 1):
        if n % d == 0:
            cusps += _phi(math.gcd(d, n // d))
    genus = Fraction(12 + index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1
    return index, int(genus), cusps


# --- reference number theory: the extended gcd and the lift of (c:d) to
# SL2(Z), which the package does without -----------------------------------


def _xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _lift_to_sl2z(c, d, n):
    """Lift (c:d) in P^1(Z/NZ) to a matrix [[a,b],[c,d]] in SL2(Z)."""
    if n == 1:
        return 1, 0, 0, 1
    c %= n
    d %= n
    g, _, _ = _xgcd(c, d)
    if g == 0:
        raise ValueError("cannot lift (0:0)")
    # adjust d by multiples of n until gcd(c, d) == 1
    if c == 0:
        c = n
    dd = d
    while math.gcd(c, dd) != 1:
        dd += n
    g, a, b = _xgcd(dd, -c)
    assert g == 1
    return a, b, c, dd


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_identity(a, b):
    g, x, y = _xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_lift_to_sl2z():
    for n in (1, 11, 12, 71):
        p1 = P1(n)
        for c, d in p1:
            a, b, cc, dd = _lift_to_sl2z(c, d, n)
            assert a * dd - b * cc == 1
            assert (cc - c) % n == 0 and (dd - d) % n == 0


# --- reference reduction of P^1(Z/NZ), computed without the table ----------


def _lift_unit(n, d, a):
    """Lift a unit a modulo the divisor d of n to a unit modulo n."""
    u, v = 1, n
    g = math.gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = math.gcd(v, g)
    _, x, y = _xgcd(u, v)
    return (u * x + a * y * v) % n


def _reduce(n, pair):
    """Canonical representative of (c:d) in P^1(Z/nZ); None if not a
    projective point."""
    c, d = pair
    c %= n
    d %= n
    if n == 1:
        return (0, 0)
    if c == 0:
        if math.gcd(n, d) == 1:
            return (0, 1)
        return None
    g, _, s = _xgcd(n, c)
    if math.gcd(g, d) > 1:
        return None
    s = _lift_unit(n, n // g, s % (n // g))
    c, d = g, (s * d) % n
    if g == 1:
        return (1, d)
    d = min((d * t) % n for t in range(1, n, n // g) if math.gcd(n, t) == 1)
    return (g, d)


def test_p1_size():
    # |P^1(Z/NZ)| equals the index of Gamma0(N)
    for n in [1, 2, 6, 11, 12, 25, 36, 71]:
        index, _, _ = _oracle_invariants(n)
        assert len(P1(n)) == (index if n > 1 else 1)


def test_p1_reduce_consistency():
    for c in range(12):
        for d in range(12):
            r = _reduce(12, (c, d))
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
            r = _reduce(n, (c, d))
            if r is None:
                with pytest.raises(ValueError):
                    p1.index((c, d))
            else:
                assert p1[p1.index((c, d))] == r


def test_p1_table_agrees_with_reduce():
    """The table, built row by row from the divisor rows, holds the
    index of reduce(c, d) at every pair, and -1 off the projective line."""
    for n in [*range(1, 81), 128, 210, 240, 243, 300, 330]:
        p1 = P1(n)
        assert list(p1) == sorted(p1)
        position = {pair: i for i, pair in enumerate(p1)}
        for c in range(n):
            for d in range(n):
                r = _reduce(n, (c, d))
                expected = -1 if r is None else position[r]
                assert p1.table[c * n + d] == expected, (n, c, d)


def test_presentation_satisfies_relations():
    """Each Manin symbol's column satisfies x_i + x_iS = 0,
    x_i + x_iU + x_iU^2 = 0 and the plus relation x_(-c:d) = x_(c:d)
    exactly, and each free generator's column is its unit vector. The plus
    quotient halves the space: 33 at level 389, where the full space has 65."""
    for n in range(1, 121):
        space = ModSymSpace(n)
        p1 = space.p1
        col = {pair: space.symbol_vector(pair) for pair in p1}
        zero = [0] * space.dimension

        def s_(pair):  # (c:d) -> (d:-c)
            return p1[p1.index((pair[1], -pair[0]))]

        def u_(pair):  # (c:d) -> (d:-c-d)
            return p1[p1.index((pair[1], -pair[0] - pair[1]))]

        for pair, x in col.items():
            xs, xu, xuu = col[s_(pair)], col[u_(pair)], col[u_(u_(pair))]
            assert all(type(v) is int for v in x), n
            assert [a + b for a, b in zip(x, xs)] == zero, (n, pair)
            assert [a + b + c for a, b, c in zip(x, xu, xuu)] == zero, (n, pair)
            assert col[p1[p1.index((-pair[0], pair[1]))]] == x, (n, pair)
        for k, pair in enumerate(space.generator_symbols()):
            assert col[pair] == [int(j == k) for j in range(space.dimension)]
    assert ModSymSpace(389).dimension == 33


# --- reference Hecke and degeneracy constructions: Merel's set of any
# determinant, and the degeneracy maps from paths between cusps ------------


def _merel_matrices(n):
    """Merel's set of integer matrices of determinant n defining T_n."""
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    yield a, b, 0, d
                for c in range(1, d):
                    yield a, 0, c, d
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        yield a, b, bc // b, d


def _path_vector(space, cusp):
    """Vector of the modular symbol {oo, cusp} in the free basis, summed
    along the continued-fraction convergents of cusp = (num, den); den == 0
    means the cusp oo (zero path)."""
    num, den = cusp
    total = [0] * space.dimension
    if den == 0:
        return total
    if den < 0:
        num, den = -num, -den
    prev_p, prev_q = 1, 0
    pm2, qm2 = 0, 1
    while den:
        q, r = divmod(num, den)
        num, den = den, r
        p_k, q_k = q * prev_p + pm2, q * prev_q + qm2
        det = p_k * prev_q - prev_p * q_k
        assert det in (1, -1)
        # Manin symbol of [[p_k, det*prev_p], [q_k, det*prev_q]] (det 1)
        x = space.symbol_vector((q_k, det * prev_q))
        total = [a + b for a, b in zip(total, x)]
        pm2, qm2 = prev_p, prev_q
        prev_p, prev_q = p_k, q_k
    return total


def _symbol_between_cusps(space, alpha, beta):
    """Vector of {alpha, beta}; cusps are (num, den) pairs, den 0 = oo."""
    a = _path_vector(space, alpha)
    b = _path_vector(space, beta)
    return [y - x for x, y in zip(a, b)]


def _scale_cusp(num, den, t):
    num *= t
    g = math.gcd(num, den)
    if g:
        num //= g
        den //= g
    return num, den


def _degeneracy_matrix(space, small, t):
    """Matrix of {a, b} -> {t a, t b} from level N to the divisor level of
    small: generator (c:d) lifts to g in SL2(Z), whose symbol is
    {b/d, a/c}."""
    cols = []
    for c, d in space.generator_symbols():
        a, b, cc, dd = _lift_to_sl2z(c, d, space.n)
        alpha = _scale_cusp(b, dd, t)
        beta = _scale_cusp(a, cc, t)
        cols.append(_symbol_between_cusps(small, alpha, beta))
    return [list(row) for row in zip(*cols)]


def test_cremona_set_determinant_and_size():
    for p in primes_upto(200)[1:]:
        for a, b, c, d in heilbronn_matrices(p):
            assert a * d - b * c == p
    # about half of Merel's set
    assert [len(heilbronn_matrices(31)), len(list(_merel_matrices(31)))] == [106, 219]
    assert [len(heilbronn_matrices(43)), len(list(_merel_matrices(43)))] == [154, 345]


def test_cremona_hecke_matrix_equals_merel():
    """Full-space T_p (U_p where p | N), summed over Cremona's matrices,
    equals the sum over Merel's entry by entry."""
    for n in range(1, 101):
        space = ModSymSpace(n)
        for p in primes_upto(47)[1:]:
            merel = space._action_sum(_merel_matrices(p))
            assert space.hecke_matrix(p) == merel, (n, p)


def test_merel_set_determinant_and_p2():
    assert heilbronn_matrices(1) == [(1, 0, 0, 1)]
    mats = heilbronn_matrices(2)
    assert mats == list(_merel_matrices(2)) and len(mats) == 4
    for p in (2, 3, 5, 7):
        for a, b, c, d in _merel_matrices(p):
            assert a * d - b * c == p


@pytest.mark.parametrize("t", [0, -3, 4, 9, 15, 49])
def test_heilbronn_matrices_refuse_composites(t):
    """Cremona's construction holds only for primes, so T_t for t neither
    1 nor prime is refused rather than summed over the wrong set."""
    with pytest.raises(ValueError, match="neither 1 nor a prime"):
        heilbronn_matrices(t)
    space = ModSymSpace(11)
    with pytest.raises(ValueError, match="neither 1 nor a prime"):
        space.hecke_matrix(t)
    assert t not in space._hecke_cache


def test_degeneracy_matrices_equal_cusp_path_reference():
    """The degeneracy maps alpha_1 and alpha_q to level N/q, summed over
    heilbronn_matrices(t) with the images t divides, equal the maps built
    from paths between cusps, entry by entry, for every N <= 160, q | N."""
    checked = 0
    for n in range(2, 161):
        space = build_space(n)
        for q in prime_divisors(n):
            small = build_space(n // q)
            if small.dimension == 0:
                continue
            for t in (1, q):
                got = space._action_sum(heilbronn_matrices(t), small, t)
                assert got == _degeneracy_matrix(space, small, t), (n, q, t)
                checked += 1
    assert checked == 504


@pytest.mark.parametrize("n", [1, 2, 10, 11, 22, 25, 37, 48, 49, 64, 71])
def test_dimensions_match_oracle(n):
    """The plus quotient has dimension g - 1 + (cusps up to sign): the cusps
    of denominator d are (Z/gcd(d, N/d))^*, on which the star acts as -1.
    Its cuspidal part has dimension g."""
    index, genus, cusps = _oracle_invariants(n)
    orbits = sum(
        (_phi(math.gcd(d, n // d)) + 1) // 2 for d in range(1, n + 1) if n % d == 0
    )
    space = build_space(n)
    assert space.dimension == genus + orbits - 1
    assert cuspidal_subspace(space).dimension == genus


def test_cusp_count_matches_oracle():
    """The generators meet every cusp class, so the boundary has one row per
    class, sum over d | N of phi(gcd(d, N/d)); at level 1 it has no column."""
    assert build_space(1).boundary_matrix() == []
    for n in range(2, 201):
        assert len(build_space(n).boundary_matrix()) == _oracle_invariants(n)[2], n


def _cremona_equivalent(n, p, q):
    """Cremona's pairwise test (Algorithms for Modular Elliptic Curves, 2.2):
    the cusps u1/v1 and u2/v2 are Gamma0(N)-equivalent iff
    s1 v2 = s2 v1 mod gcd(v1 v2, N), with s_i u_i = 1 mod v_i."""
    u1, v1 = p
    u2, v2 = q
    s1 = _xgcd(u1, v1)[1]
    s2 = _xgcd(u2, v2)[1]
    return (s1 * v2 - s2 * v1) % math.gcd(n, (v1 * v2) % n) == 0


def _class_index(n, met, cusp):
    """Position of the class of cusp among the classes met so far, by the
    pairwise test; a class not met yet is appended."""
    for i, x in enumerate(met):
        if _cremona_equivalent(n, cusp, x):
            return i
    met.append(cusp)
    return len(met) - 1


def _reference_boundary(space):
    """(cusps met, boundary matrix) from the SL2(Z) lift [[a, b], [c, d]] of
    each generator (c:d) and of (-c:d): the column of (c:d) is
    [a/c] - [b/d] summed over both lifts, its cusp classes numbered in the
    order first met by the pairwise test."""
    n, met, ends = space.n, [], []
    for col, (c, d) in enumerate(space.generator_symbols()):
        for sc in (c, -c):
            a, b, cc, dd = _lift_to_sl2z(sc, d, n)
            plus = _class_index(n, met, (a, cc))
            ends.append((plus, _class_index(n, met, (b, dd)), col))
    mat = [[0] * space.dimension for _ in met]
    for plus, minus, col in ends:
        mat[plus][col] += 1
        mat[minus][col] -= 1
    return met, mat


def test_cusp_numbering_matches_pairwise_reference():
    """The boundary map reads each cusp class key off (c:d). The matrix built
    from the lifts to SL2(Z), its cusps numbered by the pairwise test, is the
    same, row for row, also at the paper's level 1003."""
    for n in [*range(1, 151), 600, 1003, 1008]:
        space = build_space(n, cap=n)
        assert space.boundary_matrix() == _reference_boundary(space)[1], n


def _a_p(ainvs, p):
    """p + 1 - #E(F_p) for E: y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6,
    by counting points (an independent oracle for T_p at good primes)."""
    a1, a2, a3, a4, a6 = ainvs
    affine = sum(
        (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0
        for x in range(p)
        for y in range(p)
    )
    return p - affine


def test_level_11_hecke_eigenvalues():
    # independent oracle: point counts on y^2 + y = x^3 - x^2 - 10x - 20
    def a_p(p):
        return _a_p([0, -1, 1, -10, -20], p)

    cusp = cuspidal_subspace(build_space(11))
    assert cusp.hecke_charpoly(2) == IntPoly([-a_p(2), 1])
    assert cusp.hecke_charpoly(3) == IntPoly([-a_p(3), 1])
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


@pytest.mark.parametrize("n", [90, 110, 114, 130, 135, 145, 155])
def test_hecke_commutativity_on_new_subspace(n):
    new = cuspidal_new_subspace(build_space(n))
    if n in (110, 135, 145, 155):
        # echelon denominators 2, 2, 2 and 6; each matrix is denom * T_p
        assert new.echelon.denom > 1
    primes = [p for p in (2, 3, 5, 7, 11) if n % p]
    mats = {p: new.hecke_matrix(p) for p in primes}
    for p in primes:
        for q in primes:
            assert mat_mul(mats[p], mats[q]) == mat_mul(mats[q], mats[p])


@pytest.mark.parametrize("n", [38, 62, 71])
def test_restricted_hecke_matrices_are_int_over_denom(n):
    """On the new subspace and on each class, T_p restricts to K / denom
    with K an int matrix, also where the restriction is not integral
    (levels 38, 62 and 71 have echelon denominators 2 and 4), and
    charpoly(K, denom) is sympy's charpoly of K / denom."""
    import sympy

    new = cuspidal_new_subspace(build_space(n))
    pieces = [new] + [cls._subspace for cls in decompose_into_classes(new)]
    assert any(piece.echelon.denom > 1 for piece in pieces)
    for piece in pieces:
        d = piece.echelon.denom
        for p in (q for q in (2, 3, 5, 7, 11, 13) if n % q):
            k = piece.hecke_matrix(p)
            assert all(type(x) is int for row in k for x in row)
            want = (sympy.Matrix(k) / d).charpoly().all_coeffs()
            assert list(charpoly(k, d).coeffs) == [int(c) for c in reversed(want)]


def test_importing_modsym_loads_no_fractions():
    src = str(Path(congruon.modsym.__file__).parents[1])
    code = "import sys, congruon.modsym; print('fractions' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


@pytest.mark.parametrize("n", [11, 37, 90, 135])
def test_star_involution(n):
    """The star (c:d) -> (-c:d) is the identity on the plus quotient, and
    T_2 and T_3 (U_p where p | N), summed over Merel's matrices at every
    Manin symbol, respect it, so they are well defined there; the generator
    images are the columns of hecke_matrix. The new subspace holds each
    newform once."""
    space = build_space(n)
    p1 = space.p1
    for p in (2, 3):
        mats = list(_merel_matrices(p))

        def image(pair):
            total = [0] * space.dimension
            for a, b, c, d in mats:
                u, v = pair[0] * a + pair[1] * c, pair[0] * b + pair[1] * d
                if math.gcd(math.gcd(u, v), n) == 1:
                    total = [x + y for x, y in zip(total, space.symbol_vector((u, v)))]
            return total

        for c, d in p1:
            assert space.symbol_vector((-c, d)) == space.symbol_vector((c, d))
            assert image((-c, d)) == image((c, d)), (n, p, (c, d))
        columns = [image(g) for g in space.generator_symbols()]
        assert [list(col) for col in zip(*columns)] == space.hecke_matrix(p)
    assert cuspidal_new_subspace(space).dimension == _new_dimension(n)


def test_restriction_to_unstable_span_rejected():
    space = build_space(37)
    cusp = cuspidal_subspace(space)
    # the sum of the two eigenvectors (a_2 = -2 and 0) spans no T_2-stable line
    v = [a + b for a, b in zip(*cusp.echelon.rows)]
    w = mat_vec(space.hecke_matrix(2), v)
    assert any(v[i] * w[j] != v[j] * w[i] for i in range(len(v)) for j in range(i))
    with pytest.raises(ValueError):
        restrict_operator(space.hecke_matrix(2), EchelonBasis.of([v]))
    with pytest.raises(ValueError):
        Subspace(space, [v])


def test_path_vector_boundary_consistency():
    # boundary of {alpha, beta} + {-alpha, -beta} must be
    # [beta] - [alpha] + [-beta] - [-alpha] as cusp classes
    for n in (11, 14, 24):
        space = build_space(n)
        cusps, _ = _reference_boundary(space)
        for alpha, beta in [((0, 1), (1, 0)), ((1, 2), (1, 3)), ((2, 5), (0, 1))]:
            vec = _symbol_between_cusps(space, alpha, beta)
            img = mat_vec(space.boundary_matrix(), vec)
            want = [0] * len(cusps)
            for (num, den), sign in [(beta, 1), (alpha, -1)]:
                want[_class_index(n, cusps, (num, den))] += sign
                want[_class_index(n, cusps, (-num, den))] += sign
            assert img == want


def test_infinity_zero_symbol():
    space = build_space(11)
    v = _symbol_between_cusps(space, (1, 0), (0, 1))
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
    # level 55 = 5*11: old space from 11 has dimension 2 (two maps)
    space55 = build_space(55)
    _, genus55, _ = _oracle_invariants(55)
    assert cuspidal_subspace(space55).dimension == genus55
    assert cuspidal_new_subspace(space55).dimension == genus55 - 2


def _new_dimension(n):
    """sum over M | N of beta(N/M) g0(M), beta = mu * mu: the dimension of
    the new plus modular symbols, one per newform."""

    def beta(m):
        return math.prod({1: -2, 2: 1}.get(e, 0) for e in _prime_factors(m).values())

    return sum(
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
        assert sum(degrees.get(n, [])) == dim, n


def test_level_cap():
    with pytest.raises(LevelCapError):
        build_space(301)
    with pytest.raises(LevelCapError):
        newform_classes(500)
    # the divisor level 301 is built under the cap of the level asked for
    assert sum(c.degree for c in newform_classes(602, cap=602)) == _new_dimension(602)


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
        import sympy

        x = sympy.Symbol("x")
        assert sympy.discriminant(sympy.Poly(poly.coeffs[::-1], x)) == 257
        # factorization type of the charpoly mod 3: linear times quadratic
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
                prod = prod * c.class_charpoly(p)
            assert prod == chi


@pytest.mark.parametrize(
    "level, expected",
    [
        pytest.param(
            71,
            {"factor_over_z": 1, "charpoly_dim_sum": 30, "restrict_operator": 12},
            id="71",
        ),
        pytest.param(
            57,
            {"factor_over_z": 2, "charpoly_dim_sum": 17, "restrict_operator": 17},
            id="57",
        ),
    ],
)
def test_level_71_export_work(monkeypatch, level, expected):
    """Exporting level 71 at its Sturm primes factors one charpoly, of the
    6-dim plus new subspace at p = 2, whose two cubic factors split it into the
    classes; the charpolys taken have dimensions 6 + 2 * 4 * 3 = 30. On the
    doubled space this took 9 factorizations and a dimension sum of 60. The
    stability check keeps its restrictions of T_2, T_3, T_5 and T_7, so the
    split reuses the new subspace's T_2: 12 restrictions in all. At level 57
    the T_2 charpoly (X - 1)(X + 2)^2 cuts off a line, a class at once, and
    the plane ker(T_2 + 2), whose T_5 charpoly (X + 3)(X - 1) splits it into
    two classes: one factorization per prime, none repeated."""
    work = {"factor_over_z": 0, "charpoly_dim_sum": 0, "restrict_operator": 0}
    factor_over_z, charpoly = congruon.modsym.factor_over_z, congruon.modsym.charpoly
    restrict_operator = congruon.modsym.restrict_operator

    def counted_factor(poly, *args):
        work["factor_over_z"] += 1
        return factor_over_z(poly, *args)

    def counted_charpoly(k, d=1):
        work["charpoly_dim_sum"] += len(k)
        return charpoly(k, d)

    def counted_restrict(op, span):
        work["restrict_operator"] += 1
        return restrict_operator(op, span)

    monkeypatch.setattr(congruon.modsym, "factor_over_z", counted_factor)
    monkeypatch.setattr(congruon.modsym, "charpoly", counted_charpoly)
    monkeypatch.setattr(congruon.modsym, "restrict_operator", counted_restrict)
    for cls in newform_classes(level):
        for p in sturm_bound(level, 2).primes:
            cls.class_charpoly(p)
    assert work == expected


def test_engine_class_charpoly_is_memoised(monkeypatch):
    """An engine class reads its subspace's memo and holds no table of its
    own: a second class_charpoly(p) returns the same object and takes no
    second charpoly."""
    classes = newform_classes(23)
    dims, charpoly = [], congruon.modsym.charpoly

    def counted_charpoly(k, d=1):
        dims.append(len(k))
        return charpoly(k, d)

    monkeypatch.setattr(congruon.modsym, "charpoly", counted_charpoly)
    for cls in classes:
        dims.clear()
        first = cls.class_charpoly(13)
        assert dims == [cls.degree]
        assert cls.class_charpoly(13) is first
        assert dims == [cls.degree]
        assert cls.charpolys == {}


def test_classes_split_at_a_prime_above_13(monkeypatch):
    """A piece is a class once its T_p charpoly is irreducible at any
    splitting prime: with 2..13 withheld, T_17 splits level 37 into 37b
    (a_17 = 6) and 37a (a_17 = 0)."""
    monkeypatch.setattr(
        congruon.modsym, "primes_upto", lambda b: [p for p in primes_upto(b) if p > 13]
    )
    classes = newform_classes(37)
    assert [c.class_charpoly(17) for c in classes] == [IntPoly([-6, 1]), IntPoly([0, 1])]


def test_basis_independence():
    # same charpolys through an independently rebuilt space
    a = ModSymSpace(23)
    b = ModSymSpace(23)
    ca = decompose_into_classes(cuspidal_new_subspace(a))
    cb = decompose_into_classes(cuspidal_new_subspace(b))
    assert [c.class_charpoly(2) for c in ca] == [c.class_charpoly(2) for c in cb]
    assert [c.class_charpoly(7) for c in ca] == [c.class_charpoly(7) for c in cb]


def test_level_37_hecke_charpolys():
    """On the cuspidal plus space at level 37 the T_p charpoly is
    (X - a_p(37a1))(X - a_p(37b1)), from point counts on both curves."""
    cusp = cuspidal_subspace(build_space(37))
    for p in primes_upto(13):
        a, b = (_a_p(e, p) for e in ([0, 0, 1, -1, 0], [0, 1, 1, -23, -50]))
        assert cusp.hecke_charpoly(p) == IntPoly([-a, 1]) * IntPoly([-b, 1]), p
