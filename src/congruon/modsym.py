"""Weight-2 modular symbols for Gamma0(N): Hecke operators, the cuspidal new
subspace, and its decomposition into Galois conjugacy classes.

Manin symbols are indexed by P^1(Z/NZ); the space is the quotient by the
two-term (x + xS = 0) and three-term (x + xU + xU^2 = 0) relations, with
S: (c:d) -> (d:-c) and U: (c:d) -> (d:-c-d). Everything is exact and
integers first (see `linalg`): presentation columns are sparse, Hecke
matrices are summed in int, and a subspace is held as its reduced echelon
basis over one common denominator. Characteristic polynomials come out
integral.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction

from .arith import divisors, euler_phi, factorize, index_gamma0, is_prime
from .arith import prime_divisors, primes_upto, xgcd
from .intpoly import FactorizationCapError, IntPoly, factor_over_z
from .linalg import (
    EchelonBasis,
    apply_poly,
    charpoly,
    mat_mul,
    nullspace,
    restrict_operator,
    rref,
)

DEFAULT_LEVEL_CAP = 300

# Splitting primes cap for conjugacy-class separation.
MAX_SPLIT_PRIME = 50

# A class is declared separated once its charpoly at some prime here is the
# square of an irreducible polynomial.
MAX_WITNESS_PRIME = 13


class LevelCapError(ValueError):
    """Requested level exceeds the engine cap."""


class ClassSeparationError(RuntimeError):
    """No splitting prime up to the cap separated the conjugacy classes."""


def _lift_unit(n, d, a):
    """Lift a unit a modulo the divisor d of n to a unit modulo n."""
    u, v = 1, n
    g = math.gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = math.gcd(v, g)
    _, x, y = xgcd(u, v)
    return (u * x + a * y * v) % n


class P1:
    """Representatives of the projective line P^1(Z/NZ).

    table[c * N + d] is the index of the representative of (c:d) for
    0 <= c, d < N, or -1 where (c:d) is not a projective point.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("level must be >= 1")
        self.n = n
        # First the code r_c * N + r_d of each pair's representative, set
        # for a whole unit orbit {(uc:ud)} at once; then its index among the
        # sorted representatives.
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        self.table = array("i", [-1]) * (n * n)
        for c in range(n):
            for d in range(n):
                if self.table[c * n + d] < 0 and (r := self.reduce((c, d))) is not None:
                    for u in units:
                        self.table[u * c % n * n + u * d % n] = r[0] * n + r[1]
        codes = sorted(set(self.table) - {-1})
        self._list = [divmod(code, n) for code in codes]
        position = {code: i for i, code in enumerate(codes)}
        for k, code in enumerate(self.table):
            if code >= 0:
                self.table[k] = position[code]

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def __iter__(self):
        return iter(self._list)

    def reduce(self, pair):
        """Canonical representative of (c:d); None if not a projective point."""
        n = self.n
        c, d = pair
        c %= n
        d %= n
        if n == 1:
            return (0, 0)
        if c == 0:
            if math.gcd(n, d) == 1:
                return (0, 1)
            return None
        g, _, s = xgcd(n, c)
        if math.gcd(g, d) > 1:
            return None
        s = _lift_unit(n, n // g, s % (n // g))
        c, d = g, (s * d) % n
        if g == 1:
            return (1, d)
        d = min((d * t) % n for t in range(1, n, n // g) if math.gcd(n, t) == 1)
        return (g, d)

    def index(self, pair):
        n = self.n
        i = self.table[pair[0] % n * n + pair[1] % n]
        if i < 0:
            raise ValueError(f"{pair} is not a point of P^1(Z/{n}Z)")
        return i


def merel_matrices(n):
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


def lift_to_sl2z(c, d, n):
    """Lift (c:d) in P^1(Z/NZ) to a matrix [[a,b],[c,d]] in SL2(Z)."""
    if n == 1:
        return 1, 0, 0, 1
    c %= n
    d %= n
    g, _, _ = xgcd(c, d)
    if g == 0:
        raise ValueError("cannot lift (0:0)")
    # adjust d by multiples of n until gcd(c, d) == 1
    if c == 0:
        c = n
    dd = d
    while math.gcd(c, dd) != 1:
        dd += n
    g, a, b = xgcd(dd, -c)
    assert g == 1
    return a, b, c, dd


class _CuspList:
    """Cusp classes for Gamma0(N), discovered lazily via the equivalence test."""

    def __init__(self, n):
        self.n = n
        self._list = []

    def __len__(self):
        return len(self._list)

    def is_equiv(self, p, q):
        u1, v1 = p
        u2, v2 = q
        s1 = xgcd(u1, v1)[1]
        s2 = xgcd(u2, v2)[1]
        return (s1 * v2 - s2 * v1) % math.gcd(self.n, (v1 * v2) % self.n) == 0

    def index(self, p):
        for i, c in enumerate(self._list):
            if self.is_equiv(p, c):
                return i
        self._list.append(p)
        return len(self._list) - 1


def _cusp_invariants(n):
    """(index b, nu2, nu3, nu_inf) for Gamma0(N)."""
    fac = factorize(n)
    b = index_gamma0(n)
    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in fac:
            if p == 2:
                continue
            nu2 *= 1 + (1 if p % 4 == 1 else -1)
    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in fac:
            if p == 3:
                continue
            nu3 *= 1 + (1 if p % 3 == 1 else -1)
    nu_inf = 0
    for d in divisors(n):
        g = math.gcd(d, n // d)
        nu_inf += euler_phi(g)
    return b, nu2, nu3, nu_inf


def genus_x0(n):
    """Genus of the modular curve X0(N) by the standard formula."""
    b, nu2, nu3, nu_inf = _cusp_invariants(n)
    g = Fraction(1) + Fraction(b, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    assert g.denominator == 1
    return int(g)


class ModSymSpace:
    """Weight-2 modular symbols for Gamma0(N) presented on free generators."""

    def __init__(self, n):
        self.n = n
        self.p1 = P1(n)
        npts = len(self.p1)

        # Two-term relations: x_{iS} = -x_i. Pair indices into signed orbits.
        s_img = [self.p1.index((d, -c)) for c, d in self.p1]
        var_of = [None] * npts  # index -> (reduced var, sign) or None if forced 0
        reps = []  # reps[k] = P^1 index carrying reduced variable k
        for i in range(npts):
            j = s_img[i]
            if j == i:
                var_of[i] = None  # 2x = 0
            elif j > i:
                var_of[i] = (len(reps), 1)
                reps.append(i)
            else:
                k, sgn = var_of[j]
                var_of[i] = (k, -sgn)
        nvars = len(reps)

        # Three-term relations x + xU + xU^2 = 0 in the reduced variables.
        u_img = [self.p1.index((d, (-c - d) % n)) for c, d in self.p1]
        rows = set()
        for i in range(npts):
            row = [0] * nvars
            for j in (i, u_img[i], u_img[u_img[i]]):
                if var_of[j] is not None:
                    k, sgn = var_of[j]
                    row[k] += sgn
            if any(row):
                rows.add(tuple(row))
        red, pivots = rref(sorted(rows))
        pivot_set = set(pivots)
        free = [k for k in range(nvars) if k not in pivot_set]
        self._free_vars = free
        self._generators = [self.p1[reps[k]] for k in free]
        self.dimension = len(free)

        # Sparse expression of each reduced variable in the free basis, as
        # (position, coefficient) pairs.
        expr = [None] * nvars
        for pos, k in enumerate(free):
            expr[k] = ((pos, 1),)
        for row, pj in zip(red, pivots):
            expr[pj] = tuple((pos, -row[k]) for pos, k in enumerate(free) if row[k])

        # Presentation columns: P^1 index -> sparse coordinates in the free
        # basis.
        self._columns = []
        for i in range(npts):
            if var_of[i] is None:
                self._columns.append(())
            else:
                k, sgn = var_of[i]
                self._columns.append(tuple((pos, sgn * x) for pos, x in expr[k]))

        # Consistency: relation rank + dimension accounts for all variables,
        # and the dimension matches the Eichler-Shimura count.
        assert len(red) + self.dimension == nvars
        b, nu2, nu3, nu_inf = _cusp_invariants(n)
        assert self.dimension == 2 * genus_x0(n) + nu_inf - 1

        self._hecke_cache = {}
        self._cusp_list = None
        self._boundary = None

    # -- generators ---------------------------------------------------------

    def generator_symbols(self):
        """The P^1 pairs whose Manin symbols form the free basis."""
        return self._generators

    def symbol_vector(self, pair):
        """Coordinates of the Manin symbol at (c:d) in the free basis."""
        v = [0] * self.dimension
        for pos, x in self._columns[self.p1.index(pair)]:
            v[pos] = x
        return v

    # -- Hecke action -------------------------------------------------------

    def hecke_matrix(self, p):
        """Matrix of T_p (U_p when p | N) on the full space.

        The image of each generator under each Merel matrix is added
        straight into the total; off-P^1 images contribute nothing.
        """
        if p in self._hecke_cache:
            return self._hecke_cache[p]
        n = self.n
        table, columns = self.p1.table, self._columns
        total = [[0] * self.dimension for _ in range(self.dimension)]
        for a, b, c2, d2 in merel_matrices(p):
            for col, (c, d) in enumerate(self._generators):
                i = table[(c * a + d * c2) % n * n + (c * b + d * d2) % n]
                if i >= 0:
                    for row, x in columns[i]:
                        total[row][col] += x
        self._hecke_cache[p] = total
        return total

    # -- cusps and boundary -------------------------------------------------

    def boundary_data(self):
        """(cusp list, boundary matrix of shape #cusps x dimension)."""
        if self._boundary is not None:
            return self._cusp_list, self._boundary
        cusps = _CuspList(self.n)
        entries = []
        for col, (c, d) in enumerate(self.generator_symbols()):
            a, b, cc, dd = lift_to_sl2z(c, d, self.n)
            entries.append((cusps.index((a, cc)), cusps.index((b, dd)), col))
        mat = [[0] * self.dimension for _ in range(len(cusps))]
        for i_plus, i_minus, col in entries:
            mat[i_plus][col] += 1
            mat[i_minus][col] -= 1
        self._cusp_list = cusps
        self._boundary = mat
        return cusps, mat

    # -- modular symbols from cusp paths ------------------------------------

    def path_vector(self, cusp):
        """Vector of the modular symbol {oo, cusp} in the free basis.

        cusp is a pair (num, den); den == 0 means the cusp oo (zero path).
        """
        num, den = cusp
        if den == 0:
            return [0] * self.dimension
        if den < 0:
            num, den = -num, -den
        # continued-fraction expansion of num/den (floor division)
        a_list = []
        x, y = num, den
        while y:
            q, r = divmod(x, y)
            a_list.append(q)
            x, y = y, r
        convergents = []
        pm1, qm1 = 1, 0
        pm2, qm2 = 0, 1
        for a in a_list:
            p_k = a * pm1 + pm2
            q_k = a * qm1 + qm2
            convergents.append((p_k, q_k))
            pm2, qm2 = pm1, qm1
            pm1, qm1 = p_k, q_k
        total = [0] * self.dimension
        prev_p, prev_q = 1, 0
        for p_k, q_k in convergents:
            det = p_k * prev_q - prev_p * q_k
            assert det in (1, -1)
            # Manin symbol of [[p_k, det*prev_p], [q_k, det*prev_q]] (det 1)
            for i, x in self._columns[self.p1.index((q_k, det * prev_q))]:
                total[i] += x
            prev_p, prev_q = p_k, q_k
        return total

    def symbol_between_cusps(self, alpha, beta):
        """Vector of {alpha, beta}; cusps are (num, den) pairs, den 0 = oo."""
        a = self.path_vector(alpha)
        b = self.path_vector(beta)
        return [y - x for x, y in zip(a, b)]


class Subspace:
    """Hecke-stable subspace spanned by independent vectors, held as its
    reduced echelon basis (computed once). The charpoly of T_p and its
    factorization are memoised per prime."""

    def __init__(self, space, basis, tag, check_stability=True):
        self.space = space
        self.echelon = EchelonBasis.of(basis)
        self.tag = tag
        self._charpolys = {}
        self._factors = {}
        if check_stability and self.dimension:
            for p in (2, 3, 5, 7):
                restrict_operator(space.hecke_matrix(p), self.echelon)

    @property
    def dimension(self):
        return len(self.echelon.rows)

    def hecke_matrix(self, p):
        """Matrix of T_p restricted to this subspace, in its echelon basis."""
        return restrict_operator(self.space.hecke_matrix(p), self.echelon)

    def hecke_charpoly(self, p):
        if p not in self._charpolys:
            self._charpolys[p] = charpoly(self.hecke_matrix(p))
        return self._charpolys[p]

    def charpoly_factors(self, p):
        """factor_over_z of the T_p charpoly; a FactorizationCapError is
        raised again on every call, since nothing is memoised for it."""
        if p not in self._factors:
            self._factors[p] = factor_over_z(self.hecke_charpoly(p))
        return self._factors[p]


def hecke_matrix(space_or_subspace, p):
    """Matrix of T_p on a full space or a Hecke-stable subspace."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return space_or_subspace.hecke_matrix(p)


def cuspidal_subspace(space):
    """Kernel of the boundary map."""
    _, boundary = space.boundary_data()
    basis = nullspace(boundary, space.dimension)
    return Subspace(space, basis, "cuspidal")


def _degeneracy_matrix(space, small_space, t):
    """Matrix of {a, b} -> {t a, t b} from level N to the divisor level."""
    rows = small_space.dimension
    cols = []
    for c, d in space.generator_symbols():
        a, b, cc, dd = lift_to_sl2z(c, d, space.n)
        # generator is {b/dd, a/cc}
        alpha = _scale_cusp(b, dd, t)
        beta = _scale_cusp(a, cc, t)
        cols.append(small_space.symbol_between_cusps(alpha, beta))
    mat = [[0] * space.dimension for _ in range(rows)]
    for j, col in enumerate(cols):
        for i in range(rows):
            if col[i]:
                mat[i][j] = col[i]
    return mat


def _scale_cusp(num, den, t):
    num *= t
    g = math.gcd(num, den)
    if g:
        num //= g
        den //= g
    return num, den


def cuspidal_new_subspace(space):
    """Cuspidal vectors killed by all degeneracy maps to lower levels."""
    _, boundary = space.boundary_data()
    stacked = [row[:] for row in boundary]
    for q in prime_divisors(space.n):
        small = build_space(space.n // q)
        if small.dimension == 0:
            continue
        for t in (1, q):
            deg = _degeneracy_matrix(space, small, t)
            stacked.extend(deg)
    basis = nullspace(stacked, space.dimension)
    return Subspace(space, basis, "new")


# ---------------------------------------------------------------------------
# Decomposition into Galois conjugacy classes
# ---------------------------------------------------------------------------


class NewformClass:
    """Galois conjugacy class of newforms, carried by its T_p charpolys."""

    def __init__(
        self,
        level,
        weight,
        degree,
        charpolys=None,
        class_id=None,
        subspace=None,
        unsplit=False,
    ):
        self.level = level
        self.weight = weight
        self.degree = degree
        self.charpolys = dict(charpolys or {})
        self.id = class_id
        self.unsplit = unsplit
        self._subspace = subspace
        for p, poly in self.charpolys.items():
            self._validate(p, poly)

    def _validate(self, p, poly):
        if not poly.is_monic or poly.degree != self.degree:
            raise ValueError(
                f"charpoly at p={p} must be monic of degree {self.degree}"
            )

    def class_charpoly(self, p):
        """P_{f,p}: monic degree-d charpoly of T_p on the class."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in self.charpolys:
            return self.charpolys[p]
        if self._subspace is None:
            raise KeyError(f"charpoly for p={p} not available on class {self.id}")
        poly = _charpoly_square_root(self._subspace.charpoly_factors(p))
        self._validate(p, poly)
        self.charpolys[p] = poly
        return poly


def _charpoly_square_root(factors):
    """Square root of a perfect-square monic polynomial, from its factors
    over Z, by halving their multiplicities."""
    out = IntPoly([1])
    for fac, mult in factors:
        if mult % 2:
            raise AssertionError("charpoly on the doubled space is not a square")
        out = out * fac ** (mult // 2)
    return out


def decompose_into_classes(sub):
    """Split the cuspidal new subspace into Galois conjugacy classes.

    Splitting factors the charpoly of T_p for successive primes p not
    dividing the level and cuts kernels of the factors; a piece is final
    once its charpoly at some prime <= 13 is the square of an irreducible
    polynomial. Classes get deterministic ids level.weight.a, .b, ...
    """
    space = sub.space
    n = space.n
    if sub.dimension == 0:
        return []
    pieces = [(sub, False, False)]  # (subspace, separated, capped)
    split_primes = [p for p in primes_upto(MAX_SPLIT_PRIME) if n % p != 0]
    for p in split_primes:
        if all(done or capped for _, done, capped in pieces):
            break
        new_pieces = []
        for piece, done, capped in pieces:
            if done or capped:
                new_pieces.append((piece, done, capped))
                continue
            try:
                factors = piece.charpoly_factors(p)
            except FactorizationCapError:
                new_pieces.append((piece, False, True))
                continue
            if len(factors) == 1:
                fac, mult = factors[0]
                sep = mult == 2 and p <= MAX_WITNESS_PRIME
                new_pieces.append((piece, sep, False))
                continue
            m = piece.hecke_matrix(p)
            for fac, mult in factors:
                # kernel coordinates are on the piece's echelon rows
                ker = nullspace(apply_poly(fac**mult, m), piece.dimension)
                rows = mat_mul(ker, piece.echelon.rows)
                part = Subspace(space, rows, "class", check_stability=False)
                # the kernel of fac^mult(T_p) is its primary component, on
                # which the charpoly of T_p is fac^mult
                assert part.dimension == fac.degree * mult
                part._factors[p] = [(fac, mult)]
                sep = mult == 2 and p <= MAX_WITNESS_PRIME
                new_pieces.append((part, sep, False))
        pieces = new_pieces
    classes = []
    unsplit = []
    for piece, done, capped in pieces:
        if capped:
            unsplit.append(
                NewformClass(
                    n, 2, piece.dimension // 2, subspace=piece, unsplit=True
                )
            )
            continue
        # verify a separation witness even if the loop marked the piece done
        witness = None
        for p in split_primes:
            if p > MAX_WITNESS_PRIME:
                break
            factors = piece.charpoly_factors(p)
            if len(factors) == 1 and factors[0][1] == 2:
                witness = p
                break
        if witness is None:
            raise ClassSeparationError(
                f"class separation failed for a dimension-{piece.dimension} "
                f"piece at level {n}"
            )
        degree = piece.dimension // 2
        cls = NewformClass(n, 2, degree, subspace=piece)
        cls.class_charpoly(witness)
        classes.append(cls)

    # deterministic ordering and ids; unsplit pieces sort after regular ones
    def sort_key(cls):
        key = [cls.degree]
        for p in split_primes[:3]:
            key.append(cls.class_charpoly(p).coeffs)
        return tuple(key)

    classes.sort(key=sort_key)
    unsplit.sort(key=lambda c: c.degree)
    classes.extend(unsplit)
    for i, cls in enumerate(classes):
        cls.id = f"{n}.2.{_letter(i)}"
    return classes


def _letter(i):
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


_SPACE_CACHE = {}


def build_space(n, cap=DEFAULT_LEVEL_CAP):
    """Weight-2 modular symbol space for Gamma0(N), cached per level."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > cap:
        raise LevelCapError(f"level {n} exceeds the engine cap {cap}")
    if n not in _SPACE_CACHE:
        _SPACE_CACHE[n] = ModSymSpace(n)
    return _SPACE_CACHE[n]


def newform_classes(n, cap=DEFAULT_LEVEL_CAP):
    """All weight-2 newform classes at level N (engine path)."""
    space = build_space(n, cap)
    new = cuspidal_new_subspace(space)
    return decompose_into_classes(new)


def eisenstein_charpoly(n, p):
    """Charpoly of T_p on the weight-2 Eisenstein space at prime level N."""
    if not is_prime(n):
        raise ValueError("engine Eisenstein data requires prime level")
    if n % p == 0:
        raise ValueError("p must not divide the level")
    return IntPoly([-(1 + p), 1])
