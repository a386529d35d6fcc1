import ast
import random
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.abc import x as sx, y as sy
from sympy.polys.subresultants_qq_zz import sylvester

import congruon.congruence
from congruon.arith import valuation
from congruon.congruence import (
    CongruenceBounds,
    CongruenceNumberResult,
    NotCoprimeError,
    PreconditionError,
    _from_power_sums,
    _has_repeated_factor,
    congruence_number,
    difference_root_poly,
)
from congruon.hecke_io import parse_dataset
from congruon.cli import main
from congruon.intpoly import IntPoly, _coprime, _reduce, coprime_mod, gcd_over_q
from congruon.linalg import mat_mul

SRC = Path(__file__).resolve().parents[1] / "src" / "congruon"
GOLDEN_HIGH = Path(__file__).parent / "golden" / "charpolys_high.txt"
SQF_PRIME = congruon.congruence._SQUAREFREE_PRIME


# --- reference congruence number: Hermite form of the Sylvester matrix -------


def sylvester_matrix(p, q):
    """Sylvester matrix with rows X^(n-1)P..P, X^(m-1)Q..Q over X^(m+n-1)..X^0,
    as a tuple of tuples."""
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    for k in range(n - 1, -1, -1):  # row of X^k * P
        row = [0] * size
        for i, c in enumerate(p.coeffs):
            row[size - 1 - (i + k)] = c
        rows.append(tuple(row))
    for k in range(m - 1, -1, -1):
        row = [0] * size
        for i, c in enumerate(q.coeffs):
            row[size - 1 - (i + k)] = c
        rows.append(tuple(row))
    return tuple(rows)


def hnf_with_transform(matrix):
    """Row Hermite normal form H with a unimodular B such that B*M = H, for
    a matrix M of rows; H and B are lists of rows.

    Pivots are positive, entries below them zero, entries above reduced into
    [0, pivot). Euclidean elimination, column by column.
    """
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    a = [list(row) for row in matrix]
    b = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][j] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][j]))
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                b[r], b[piv] = b[piv], b[r]
            done = True
            for i in range(r + 1, m):
                if a[i][j]:
                    q = a[i][j] // a[r][j]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                        b[i] = [x - q * y for x, y in zip(b[i], b[r])]
                    if a[i][j]:
                        done = False
            if done:
                break
        if a[r][j] == 0:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            b[r] = [-x for x in b[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                b[i] = [x - q * y for x, y in zip(b[i], b[r])]
        r += 1
    return a, b


def reference_record(p, q):
    """(c, r, s) of monic P, Q of degree >= 1 from the Hermite form of their
    Sylvester matrix: c is the bottom-right pivot and the cofactors come
    from the bottom row of the transform. A zero pivot means the inputs
    share a factor."""
    h, b = hnf_with_transform(sylvester_matrix(p, q))
    c = h[-1][-1]
    if c == 0:
        raise NotCoprimeError("inputs share a factor")
    assert c > 0 and not any(h[-1][:-1])
    n = q.degree
    r = IntPoly(list(reversed(b[-1][:n])))  # rows X^(n-1)P .. P
    s = IntPoly(list(reversed(b[-1][n:])))  # rows X^(m-1)Q .. Q
    return c, r, s


def test_sylvester_layout():
    # rows X^(n-1)P .. P then X^(m-1)Q .. Q against descending monomials
    p, q = IntPoly([2, 1]), IntPoly([3, 0, 1])  # X+2, X^2+3
    s = sylvester_matrix(p, q)
    assert s == ((1, 2, 0), (0, 1, 2), (1, 0, 3))
    assert sympy.Matrix(s) == sylvester(sx + 2, sx**2 + 3, sx)
    assert sympy.Matrix(s).det() == sympy.resultant(
        sympy.Poly(p.coeffs[::-1], sx), sympy.Poly(q.coeffs[::-1], sx)
    )


matrix_strategy = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=1, max_size=5
    )
)


@given(matrix_strategy)
@settings(max_examples=80)
def test_hnf_properties(rows):
    h, b = hnf_with_transform(rows)
    assert mat_mul(b, rows) == h
    assert abs(sympy.Matrix(b).det()) == 1
    # row echelon with positive pivots and reduced entries above them
    last = -1
    for row in h:
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            continue
        j = nz[0]
        assert j > last
        last = j
        assert row[j] > 0
    # zero rows at the bottom
    seen_zero = False
    for row in h:
        if any(row):
            assert not seen_zero
        else:
            seen_zero = True


def test_hnf_column_reduction():
    h, b = hnf_with_transform([[2, 1], [0, 3]])
    for row in h:
        piv_cols = []
        for r2 in h:
            nz = [j for j, v in enumerate(r2) if v]
            if nz:
                piv_cols.append((nz[0], r2[nz[0]]))
        for j, piv in piv_cols:
            for i, r2 in enumerate(h):
                nz = [jj for jj, v in enumerate(r2) if v]
                if nz and nz[0] < j:
                    assert 0 <= r2[j] < piv


def _monic(degree, bound):
    coeffs = st.lists(st.integers(-bound, bound), min_size=degree, max_size=degree)
    return coeffs.map(lambda cs: IntPoly([*cs, 1]))


monic_pairs = st.sampled_from([3, 50, 10**6]).flatmap(
    lambda bound: st.tuples(
        st.integers(1, 8).flatmap(lambda d: _monic(d, bound)),
        st.integers(1, 8).flatmap(lambda d: _monic(d, bound)),
        st.integers(0, 2).flatmap(lambda d: _monic(d, bound)),
    )
)


@given(monic_pairs)
@settings(max_examples=150, deadline=None)
def test_congruence_number_matches_sylvester_hnf(pair):
    """Monic pairs of degree 1-8 (coefficients up to 3, 50 or 10^6) give the
    record of the Sylvester HNF; multiplied by a common factor G of degree
    1-2, both refuse them as not coprime."""
    p, q, g = pair
    if g.degree > 0:
        p, q = g * p, g * q
    try:
        want = reference_record(p, q)
    except NotCoprimeError:
        with pytest.raises(NotCoprimeError):
            congruence_number(p, q)
        return
    res = congruence_number(p, q)
    assert (res.c, res.r, res.s) == want


def test_level_389_degree_20_against_degree_6_matches_sylvester_hnf():
    """389.2.e (degree 20) against 389.2.d (degree 6) at every prime of the
    golden file: the record equals the Sylvester HNF's."""
    data = parse_dataset(GOLDEN_HIGH.read_text())
    e, d = data.form("389.2.e"), data.form("389.2.d")
    assert e.degree == 20 and d.degree == 6
    for p in sorted(e.charpolys):
        pe, pd = e.charpolys[p], d.charpolys[p]
        res = congruence_number(pe, pd)
        assert (res.c, res.r, res.s) == reference_record(pe, pd), p


def test_congruence_number_linear_pair():
    res = congruence_number(IntPoly([12, 1]), IntPoly([-60, 1]))
    assert res.c == 72
    assert res.r * res.p + res.s * res.q == IntPoly([72])
    res2 = congruence_number(IntPoly([12, 1]), IntPoly([60, 1]))
    assert res2.c == 48


def test_congruence_number_divides_resultant():
    rng = random.Random(7)
    for _ in range(50):
        p = IntPoly([rng.randrange(-20, 20) for _ in range(rng.randrange(1, 4))] + [1])
        q = IntPoly([rng.randrange(-20, 20) for _ in range(rng.randrange(1, 4))] + [1])
        r = int(
            sympy.resultant(
                sympy.Poly(p.coeffs[::-1], sx), sympy.Poly(q.coeffs[::-1], sx)
            )
        )
        if r == 0:
            continue
        res = congruence_number(p, q)
        assert r % res.c == 0
        # same prime support
        assert set(sympy.primefactors(res.c)) == set(sympy.primefactors(abs(r)))


def test_congruence_number_minimality_small():
    # brute-force the lattice for a tiny pair: c is the smallest positive
    # constant value of r*P + s*Q over degree-bounded integer cofactors
    p, q = IntPoly([2, 0, 1]), IntPoly([4, 1])  # X^2+2, X+4
    c = congruence_number(p, q).c
    best = None
    rng = range(-6, 7)
    for s0 in rng:
        for s1 in rng:
            for r0 in rng:
                val_poly = IntPoly([r0]) * p + IntPoly([s0, s1]) * q
                if val_poly.degree == 0 and val_poly.coeffs[0] > 0:
                    v = val_poly.coeffs[0]
                    best = v if best is None else min(best, v)
    assert best == c


def test_record_checks_the_cofactor_identity():
    """A record whose c, r or s breaks r*P + s*Q = c is refused, also where
    P or Q is constant."""
    pairs = [([12, 1], [-60, 1]), ([2, 0, 1], [4, 1]), ([1], [0, 1]), ([3, 1], [1])]
    pairs = [(IntPoly(p), IntPoly(q)) for p, q in pairs]
    pairs.append(tuple(map(IntPoly.from_roots, RECORD_PAIR)))
    for p, q in pairs:
        res = congruence_number(p, q)
        CongruenceNumberResult(res.c, res.r, res.s, res.p, res.q)
        with pytest.raises(ValueError, match="cofactor identity"):
            CongruenceNumberResult(res.c + 1, res.r, res.s, res.p, res.q)
        with pytest.raises(ValueError, match="cofactor identity"):
            CongruenceNumberResult(res.c, res.r, res.s + 1, res.p, res.q)


def test_not_coprime_raises():
    shared = IntPoly([1, 1])
    with pytest.raises(NotCoprimeError):
        congruence_number(shared * IntPoly([2, 1]), shared * IntPoly([3, 1]))
    with pytest.raises(NotCoprimeError):
        congruence_number(shared, shared * IntPoly([5, 1])).exponent(3)


def test_non_monic_input_rejected():
    p, q = IntPoly([21, 6]), IntPoly([21, 3])
    with pytest.raises(PreconditionError, match="monic"):
        congruence_number(p, q)
    with pytest.raises(PreconditionError, match="monic"):
        congruence_number(q, IntPoly([1, 1])).exponent(3)


def common_root_mod_ell(p, q, ell):
    """True iff the reductions of P and Q mod ell share a nontrivial factor;
    asserts that the congruence number says the same (ell | c)."""
    by_number = congruence_number(p, q).c % ell == 0
    by_gcd = not coprime_mod(p, q, ell)
    assert by_number == by_gcd, "congruence number disagrees with mod-ell gcd"
    return by_number


def test_common_root_mod_ell():
    p, q = IntPoly([12, 1]), IntPoly([-60, 1])  # c = 72 = 2^3 * 3^2
    assert common_root_mod_ell(p, q, 2)
    assert common_root_mod_ell(p, q, 3)
    assert not common_root_mod_ell(p, q, 5)


# squarefree monic Q of degrees 0-4, and monic P of degrees 1-3
_CONSTANT_PARTNERS = [[1], [0, 1], [1, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 0, 1]]
_NONCONSTANT = [[3, 1], [-5, 0, 1], [1, 1, 0, 1]]


@pytest.mark.parametrize(
    "p, q, r, s",
    [([1], q, [1], []) for q in _CONSTANT_PARTNERS]
    + [(p, [1], [], [1]) for p in _NONCONSTANT],
)
def test_constant_input_record(p, q, r, s):
    """A constant input (P = 1, or Q = 1 against nonconstant P) gives c = 1
    with (r, s) = (1, 0), or (0, 1) when only Q is constant, and no
    congruence at any ell: case a, exponent 0 by the congruence number."""
    res = congruence_number(IntPoly(p), IntPoly(q))
    assert (res.c, res.r, res.s) == (1, IntPoly(r), IntPoly(s))
    for ell in (2, 3):
        assert res.bounds(ell) == CongruenceBounds(ell, 0, 0, "a")
        assert res.exponent(ell) == (0, "cn")


def _sympy_difference_poly(p, q):
    """Res_X(P(X), Q(X+Y)) by sympy, as ascending int coefficients.

    sympy's resultant(f, g) is (-1)^(deg f * deg g) times the standard one
    when deg f < deg g (resultant(x - 5, x**3 + 1) gives -126, not 126), so
    the larger degree goes first and Res(f, g) = (-1)^(mn) Res(g, f) fixes
    the sign."""
    sp = sympy.Poly(list(reversed(p.coeffs)), sx)
    sq_shift = sympy.Poly(
        sympy.Poly(list(reversed(q.coeffs)), sx).as_expr().subs(sx, sx + sy), sx
    )
    if p.degree >= q.degree:
        res = sympy.resultant(sp, sq_shift, sx)
    else:
        res = (-1) ** (p.degree * q.degree) * sympy.resultant(sq_shift, sp, sx)
    want = sympy.Poly(res, sy)
    return [int(c) for c in reversed(want.all_coeffs())]


def test_difference_root_poly_matches_sympy():
    rng = random.Random(11)
    for _ in range(10):
        p = IntPoly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 4))] + [1])
        q = IntPoly([rng.randrange(-9, 9) for _ in range(rng.randrange(1, 4))] + [1])
        assert list(difference_root_poly(p, q).coeffs) == _sympy_difference_poly(p, q)


def test_difference_root_poly_roots():
    p = IntPoly.from_roots([1, 4])
    q = IntPoly.from_roots([3, 10])
    f = difference_root_poly(p, q)
    for d in [2, 9, -1, 6]:  # all differences b - a
        assert f(d) == 0
    assert f.degree == 4


def test_difference_root_poly_matches_sympy_up_to_6x6():
    """Random monic pairs of every degree pair up to 6 x 6, some with a
    repeated root, some sharing a root (then F(0) = 0 is returned) and, from
    degree 3, some with a quadratic factor X^2 + c of P."""
    rng = random.Random(2006)
    repeated = shared = 0
    for dp in range(1, 7):
        for dq in range(1, 7):
            p_roots = [rng.randrange(-9, 10) for _ in range(dp)]
            q_roots = [rng.randrange(-9, 10) for _ in range(dq)]
            if dp > 1 and rng.random() < 0.3:
                p_roots[1] = p_roots[0]
            if rng.random() < 0.2:
                q_roots[0] = p_roots[0]
            p = IntPoly.from_roots(p_roots)
            if dp > 2 and rng.random() < 0.5:
                quadratic = IntPoly([rng.randrange(-5, 6), 0, 1])
                p = IntPoly.from_roots(p_roots[:-2]) * quadratic
            q = IntPoly.from_roots(q_roots)
            f = difference_root_poly(p, q)
            assert list(f.coeffs) == _sympy_difference_poly(p, q), (p, q)
            assert f.degree == p.degree * q.degree and f.is_monic
            if p(q_roots[0]) == 0:
                assert f(0) == 0
                shared += 1
            repeated += gcd_over_q(p, p.derivative()).degree > 0
    assert repeated and shared


def test_difference_root_poly_shared_root_returns_zero_constant():
    p = IntPoly.from_roots([2, 2, -3])
    q = IntPoly.from_roots([5, -3])
    f = difference_root_poly(p, q)
    assert f(0) == 0 and list(f.coeffs) == _sympy_difference_poly(p, q)
    record = CongruenceNumberResult(0, IntPoly(), IntPoly(), p, q)
    with pytest.raises(AssertionError, match="F\\(0\\) != 0"):
        record._difference_poly


def test_difference_root_poly_matches_planted_differences_12x12():
    rng = random.Random(144)
    p_roots = [rng.randrange(-60, 61) for _ in range(12)]
    q_roots = [rng.randrange(-60, 61) for _ in range(12)]
    f = difference_root_poly(IntPoly.from_roots(p_roots), IntPoly.from_roots(q_roots))
    assert f == IntPoly.from_roots([b - a for a in p_roots for b in q_roots])


def test_difference_root_poly_preconditions():
    monic = IntPoly([3, 1])
    for bad in (IntPoly([21, 6]), IntPoly([1, 0, -1])):
        with pytest.raises(PreconditionError, match="monic"):
            difference_root_poly(bad, monic)
        with pytest.raises(PreconditionError, match="monic"):
            difference_root_poly(monic, bad)
    for const in (IntPoly([1]), IntPoly([5]), IntPoly()):
        with pytest.raises(ValueError, match="degrees >= 1"):
            difference_root_poly(const, monic)
        with pytest.raises(ValueError, match="degrees >= 1"):
            difference_root_poly(monic, const)


def test_from_power_sums_checks_each_division():
    # X^2 - X + 1/2 has power sums 2, 1, 0: c_2 = 1/2 is not an integer
    with pytest.raises(AssertionError, match="non-integer"):
        _from_power_sums([2, 1, 0])
    assert _from_power_sums([2, 1, 5]) == IntPoly([-2, -1, 1])  # roots 2, -1


@pytest.mark.parametrize("module", ["congruence.py", "intpoly.py"])
def test_solver_modules_do_not_import_fractions(module):
    """The solver stays in int: neither module imports `fractions`."""
    tree = ast.parse((SRC / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "fractions" not in imported


def _oracle_exponent(p_roots, q_roots, ell):
    best = 0
    for a in p_roots:
        for b in q_roots:
            d = b - a
            if d == 0:
                raise ValueError("shared root")
            best = max(best, valuation(ell, d))
    return best


def test_oracle_suite_split_polynomials():
    """500 random coprime split pairs: engine equals direct valuation oracle."""
    rng = random.Random(0xABCDE)
    checked = 0
    while checked < 500:
        dp = rng.randrange(1, 5)
        dq = rng.randrange(1, 5)
        p_roots = [rng.randrange(-200, 201) for _ in range(dp)]
        q_roots = [rng.randrange(-200, 201) for _ in range(dq)]
        if set(p_roots) & set(q_roots):
            continue
        rec = congruence_number(IntPoly.from_roots(p_roots), IntPoly.from_roots(q_roots))
        for ell in (2, 3, 5):
            want = _oracle_exponent(p_roots, q_roots, ell)
            got, method = rec.exponent(ell)
            assert got == want, (p_roots, q_roots, ell, got, want, method)
            b = rec.bounds(ell)
            assert b.lower <= want <= b.upper, (p_roots, q_roots, ell, b)
            assert rec._newton_exponent(ell) == want
        checked += 1


# (P, Q, ell, exponent, case-analysis bounds): irrational pairs whose top
# root-difference valuation is fractional, so the bounds leave a range and
# the np route rounds the slope up.
RAMIFIED_PAIRS = [
    # roots +-sqrt(2), +-3 sqrt(2): differences 2 sqrt(2), 4 sqrt(2) have
    # v_2 = 3/2, 5/2, so the exponent is ceil(5/2) = 3
    ([-2, 0, 1], [-18, 0, 1], 2, 3, (2, 4)),
    ([-2, 0, 1], [-50, 0, 1], 2, 3, (2, 4)),  # top slope 5/2
    ([-2, 0, 1], [-10, 0, 1], 2, 2, (2, 3)),  # top slope 3/2
    ([-3, 0, 1], [-12, 0, 1], 3, 2, (1, 2)),  # top slope 3/2
    ([-6, -6, 0, 1], [-6, 2, 0, 1], 2, 3, (1, 4)),  # top slope 8/3
    ([-6, -6, 0, 1], [-6, 3, 0, 1], 3, 2, (1, 3)),  # top slope 4/3
]


def test_newton_route_handles_ramified_differences():
    for p, q, ell, n, bounds in RAMIFIED_PAIRS:
        rec = congruence_number(IntPoly(p), IntPoly(q))
        got = rec.bounds(ell)
        assert (got.lower, got.upper) == bounds, (p, q, ell)
        assert rec._newton_exponent(ell) == n, (p, q, ell)
        assert rec.exponent(ell) == (n, "np"), (p, q, ell)


def test_solve_with_repeated_factors():
    # (X-1)^2 vs (X-9): difference 8 at ell=2 gives exponent 3
    p = IntPoly.from_roots([1, 1])
    q = IntPoly.from_roots([9])
    rec = congruence_number(p, q)
    n, method = rec.exponent(2)
    assert n == 3
    b = rec.bounds(2)
    assert b.case_tag == "factored"
    assert b.lower <= 3 <= b.upper


def test_repeated_factor_test_runs_once_per_polynomial(monkeypatch):
    """The records of all pairs at a level share each P; the repeated-factor
    test runs once per distinct polynomial, not per record: the squarefree
    test modulo one prime for every P, gcd(P, P') over Q only for the P that
    fail it. It still routes a square through the factored case."""
    mod_calls, calls = [], []

    def counted_coprime(a, b, p):
        if p == SQF_PRIME:
            mod_calls.append(a)
        return coprime_mod(a, b, p)

    def counted_gcd(a, b):
        calls.append(a)
        return gcd_over_q(a, b)

    monkeypatch.setattr(congruon.congruence, "coprime_mod", counted_coprime)
    monkeypatch.setattr(congruon.congruence, "gcd_over_q", counted_gcd)
    _has_repeated_factor.cache_clear()
    polys = [IntPoly.from_roots(r) for r in ([1, 1], [3], [5, -2], [7, 7, 2])]
    for ell in (2, 3):
        for p in polys:
            for q in polys:
                if p != q:
                    congruence_number(p, q).bounds(ell)
    assert sorted(map(str, mod_calls)) == sorted(map(str, polys))
    assert sorted(map(str, calls)) == sorted(map(str, [polys[0], polys[3]]))
    square = congruence_number(polys[0], polys[1]).bounds(2)
    assert square.case_tag == "factored"



# A planted 6 x 6 pair whose case analysis ends in d-iii at 2, 3, 5 and 7.
RECORD_PAIR = ([-14, -8, 14, 15, 16, 20], [-15, -4, 1, 7, 18, 19])


def test_case_analysis_reduces_once_per_ell(monkeypatch, capsys):
    """One `congpoly --all-ell` run: at each ell the record reduces P, Q, P',
    Q', r and s modulo ell at most once each and runs at most four
    coprimality tests, the d-* cases included."""
    reductions, tests = Counter(), Counter()

    def counted_reduce(coeffs, p):
        reductions[p] += 1
        return _reduce(coeffs, p)

    def counted_coprime(x, y, p):
        tests[p] += 1
        return _coprime(x, y, p)

    monkeypatch.setattr(congruon.congruence, "_reduce", counted_reduce)
    monkeypatch.setattr(congruon.congruence, "_coprime", counted_coprime)
    p, q = (",".join(map(str, IntPoly.from_roots(r).coeffs)) for r in RECORD_PAIR)
    main.main(args=["congpoly", p, q, "--all-ell"], standalone_mode=False)
    lines = capsys.readouterr().out.splitlines()
    d_ells = [int(l.split()[0][4:]) for l in lines if "case=d-" in l]
    assert d_ells == [2, 3, 5, 7]
    assert max(reductions.values()) <= 6 and max(tests.values()) <= 4
    assert all(reductions[ell] == 6 and tests[ell] == 4 for ell in d_ells)


@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=4),
    st.integers(0, 3),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=150, deadline=None)
def test_has_repeated_factor_matches_gcd_over_q(roots, repeats, lead):
    """The test modulo one prime, with gcd(P, P') over Q as the fallback,
    agrees with gcd(P, P') alone, also where the first roots repeat."""
    poly = IntPoly([lead]) * IntPoly.from_roots(roots + roots[:repeats])
    want = poly.degree > 0 and gcd_over_q(poly, poly.derivative()).degree > 0
    assert _has_repeated_factor.__wrapped__(poly) == want


@pytest.mark.parametrize(
    "poly, repeated",
    [
        # squarefree over Q, yet a square modulo the prime: the fallback decides
        (IntPoly.from_roots([0, SQF_PRIME]), False),
        # the prime divides the leading coefficient, so the mod test is skipped:
        # modulo it, (qX + 1)^2 is the squarefree constant 1
        (IntPoly([1, 0, SQF_PRIME]), False),
        (IntPoly([1, SQF_PRIME]) ** 2, True),
        (IntPoly([5]), False),
    ],
)
def test_has_repeated_factor_fallback(poly, repeated):
    assert _has_repeated_factor.__wrapped__(poly) is repeated


def test_bounds_are_exact_when_they_meet():
    assert CongruenceBounds(3, 2, 2, "c-i").exact
    assert not CongruenceBounds(2, 2, 4, "d-i").exact
    with pytest.raises(ValueError, match="lower bound above"):
        CongruenceBounds(2, 3, 2, "d-i")


def test_bounds_cases_reachable():
    # case a: no congruence at 7
    rec = congruence_number(IntPoly([12, 1]), IntPoly([-60, 1]))
    assert rec.bounds(7).case_tag == "a"
    # case b: exponent one
    b = rec.bounds(3)
    assert (b.lower, b.upper) == (2, 2)  # 72 = 2^3 * 3^2, linear: squarefree mod 3
    b2 = congruence_number(IntPoly([1, 1]), IntPoly([-2, 1])).bounds(3)
    assert (b2.lower, b2.upper, b2.case_tag) == (1, 1, "b")
