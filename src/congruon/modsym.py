"""Weight-2 modular symbols for Gamma0(N): Hecke operators, the cuspidal new
subspace, and its decomposition into Galois conjugacy classes.

Manin symbols are indexed by P^1(Z/NZ), whose lookup table is written one
unit orbit per representative. The space is the plus quotient
V+ = V / (1 - sigma) V of the full space V by the star involution
sigma: (c:d) -> (-c:d) (Cremona, Algorithms for Modular Elliptic Curves,
ch. 2; Stein, GSM 79, the sign quotient): the quotient by the two-term
(x + xS = 0), plus (x = x sigma) and three-term (x + xU + xU^2 = 0)
relations, with S: (c:d) -> (d:-c) and U: (c:d) -> (d:-c-d), the three-term
ones put in reduced echelon form by sparse elimination. V+ is Hecke
isomorphic to the sigma-fixed part of V, holds each newform once and has
dimension g - 1 + sum over d | N of ceil(phi(gcd(d, N/d)) / 2), g the genus
of X0(N); so a class of degree d has dimension d and its T_p charpoly is
its class charpoly. T_p for p not dividing N is semisimple on the new part,
so a Hecke-stable piece of it is one class once its T_p charpoly is
irreducible, at any such p. Everything is exact and integers first (see
`linalg`): presentation columns are sparse, T_p (U_p when p | N) and the
degeneracy maps are one int sum over Heilbronn matrices (Merel 1994;
Merel's four for 2, Cremona's for odd primes), and a subspace is held as its
reduced echelon basis over one common denominator. Characteristic
polynomials come out integral.
"""

from __future__ import annotations

import math

from .arith import CongruonError, divisors, euler_phi, factorize, index_gamma0
from .arith import is_prime, prime_divisors, primes_upto
from .congruence import PreconditionError
from .intpoly import factor_over_z
from .linalg import (
    EchelonBasis,
    apply_poly,
    charpoly,
    mat_mul,
    nullspace,
    restrict_operator,
)

DEFAULT_LEVEL_CAP = 300

# Splitting primes cap for conjugacy-class separation.
MAX_SPLIT_PRIME = 50


class LevelCapError(CongruonError, ValueError):
    """Requested level exceeds the engine cap."""

    exit_code = 4


class ClassSeparationError(CongruonError, RuntimeError):
    """No splitting prime up to the cap separated the conjugacy classes."""

    exit_code = 4


class CharpolyMissingError(PreconditionError, KeyError):
    """A class read from a dataset has no charpoly at the requested prime."""


class P1:
    """Representatives of the projective line P^1(Z/NZ).

    table[c * N + d] is the index of the representative of (c:d) for
    0 <= c, d < N, or -1 where (c:d) is not a projective point. Its
    reference, a direct reduction of each pair, is in tests/test_modsym.py.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("level must be >= 1")
        self.n = n
        # A point (c:d) has a representative (g:d') with g = gcd(c, N), read
        # as 0 when N | c, whose d' is the least among the pairs (g:ud) with
        # u a unit = 1 mod N/g, the units that fix row g. Scanning c = 0 and
        # then the proper divisors of N in ascending order, d ascending, meets
        # the representatives in sorted order, each as the first unmarked
        # point of its row, where its orbit is then marked. Every other row
        # is u*g for a unit u, and (ug:e) = u(g:e/u) reads row g permuted.
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        self._list = []
        self.table = table = [-1] * (n * n)
        divisor_rows = []
        for c in [0, *divisors(n)[:-1]]:
            g = c or n
            fixing = [u for u in units if (u - 1) % (n // g) == 0]
            row = [-1] * n
            for d in range(n):
                if row[d] < 0 and math.gcd(g, d) == 1:
                    i = len(self._list)
                    self._list.append((c, d))
                    for u in fixing:
                        row[u * d % n] = i
            table[c * n : c * n + n] = row
            divisor_rows.append((c, row))
        filled = {c for c, _ in divisor_rows}
        for u in units:
            inv = pow(u, -1, n)
            for c, row in divisor_rows:
                uc = u * c % n
                if uc not in filled:
                    filled.add(uc)
                    # entry e is row[inv * e % n]
                    table[uc * n : uc * n + n] = [
                        row[x % n] for x in range(0, inv * n, inv)
                    ]

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def __iter__(self):
        return iter(self._list)

    def index(self, pair):
        n = self.n
        i = self.table[pair[0] % n * n + pair[1] % n]
        if i < 0:
            raise ValueError(f"{pair} is not a point of P^1(Z/{n}Z)")
        return i


def _nearest(a, b):
    """a / b rounded to the nearest integer, halves away from zero."""
    q = (2 * abs(a) + abs(b)) // (2 * abs(b))
    return q if (a < 0) == (b < 0) else -q


def cremona_matrices(p):
    """Cremona's Heilbronn matrices of determinant p, an odd prime, defining
    T_p, or U_p where p | N (Cremona, Algorithms for Modular Elliptic Curves,
    2.4): (1, 0, 0, p) and, for each r with |r| <= p/2, the matrices met
    along the nearest-integer continued fraction of p/r."""
    yield 1, 0, 0, p
    for r in range(-(p // 2), p // 2 + 1):
        x1, x2, y1, y2 = p, -r, 0, 1
        a, b = -p, r
        yield x1, x2, y1, y2
        while b:
            q = _nearest(a, b)
            a, b = -b, a - b * q
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            yield x1, x2, y1, y2


def heilbronn_matrices(t):
    """Heilbronn matrices of determinant t, 1 or a prime: the identity, Merel's
    four for t = 2, Cremona's for an odd prime. ModSymSpace._action_sum sums
    them into T_t (U_t where t | N) and the degeneracy maps."""
    if t == 1:
        return [(1, 0, 0, 1)]
    if t == 2:
        return [(1, 0, 0, 2), (1, 0, 1, 2), (2, 0, 0, 1), (2, 1, 0, 1)]
    if not is_prime(t):
        raise ValueError(f"{t} is neither 1 nor a prime")
    return list(cremona_matrices(t))


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
    nu_inf = sum(euler_phi(math.gcd(d, n // d)) for d in divisors(n))
    return b, nu2, nu3, nu_inf


def genus_x0(n):
    """Genus g of X0(N), from 12g = 12 + b - 3 nu2 - 4 nu3 - 6 nu_inf."""
    b, nu2, nu3, nu_inf = _cusp_invariants(n)
    g, r = divmod(12 + b - 3 * nu2 - 4 * nu3 - 6 * nu_inf, 12)
    assert r == 0
    return g


def _subtract(row, f, other):
    """row -= f * other for sparse rows, dropping the entries that become 0."""
    for j, y in other.items():
        x = row.get(j, 0) - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def _sparse_rref(rows):
    """Reduced row echelon form of sparse rows {column: value}, as
    {pivot column: row}.

    Gauss-Jordan one row at a time: a row loses its entries at the pivots
    found so far, its least column becomes its pivot, scaled to 1, and that
    column is cleared from the earlier rows. Every row is then nonzero only
    at its pivot and at later non-pivot columns, so the result is the unique
    reduced echelon form. Each pivot must divide its row, so the entries stay
    int; the three-term relations meet this at every level up to 1000.
    """
    pivot_rows = {}
    for row in rows:
        row = {k: x for k, x in row.items() if x}
        for k in [k for k in row if k in pivot_rows]:
            _subtract(row, row[k], pivot_rows[k])
        if not row:
            continue
        pivot = min(row)
        c = row[pivot]
        if c != 1:
            assert all(x % c == 0 for x in row.values()), "pivot does not divide its row"
            row = {k: x // c for k, x in row.items()}
        for target in pivot_rows.values():
            if pivot in target:
                _subtract(target, target[pivot], row)
        pivot_rows[pivot] = row
    return pivot_rows


class ModSymSpace:
    """Weight-2 modular symbols for Gamma0(N) presented on free generators."""

    def __init__(self, n):
        self.n = n
        self.p1 = P1(n)
        npts = len(self.p1)

        # Two-term relations x_{iS} = -x_i and the plus relations
        # x_{i sigma} = x_i, sigma: (c:d) -> (-c:d): each orbit of the Klein
        # group {1, S, sigma, S sigma} becomes one signed variable, or is 0
        # when some point in it gets both signs.
        var_of = [None] * npts  # index -> (reduced var, sign) or None if 0
        reps = []  # reps[k] = P^1 index carrying reduced variable k
        seen = bytearray(npts)
        for i, (c, d) in enumerate(self.p1):
            if seen[i]:
                continue
            orbit = {}
            for pair, sgn in (((c, d), 1), ((d, -c), -1), ((-c, d), 1), ((d, c), -1)):
                j = self.p1.index(pair)
                seen[j] = 1
                if orbit.setdefault(j, sgn) != sgn:
                    break
            else:
                for j, sgn in orbit.items():
                    var_of[j] = (len(reps), sgn)
                reps.append(i)
        nvars = len(reps)

        # Three-term relations x + xU + xU^2 = 0 in the reduced variables,
        # one per U-orbit (U has order 3), in reduced echelon form: the
        # relation with pivot k expresses x_k in the free variables.
        u_img = [self.p1.index((d, (-c - d) % n)) for c, d in self.p1]
        relations = []
        seen = bytearray(npts)
        for i in range(npts):
            if not seen[i]:
                row = {}
                for j in (i, u_img[i], u_img[u_img[i]]):
                    seen[j] = 1
                    if var_of[j] is not None:
                        k, sgn = var_of[j]
                        row[k] = row.get(k, 0) + sgn
                relations.append(row)
        pivot_rows = _sparse_rref(relations)
        free = [k for k in range(nvars) if k not in pivot_rows]
        self._generators = [self.p1[reps[k]] for k in free]
        self.dimension = len(free)

        # Sparse expression of each reduced variable in the free basis, as
        # (position, coefficient) pairs.
        expr = [None] * nvars
        for pos, k in enumerate(free):
            expr[k] = ((pos, 1),)
        position = {k: pos for pos, k in enumerate(free)}
        for pj, row in pivot_rows.items():
            expr[pj] = tuple(
                (position[k], -x)
                for k, x in sorted(row.items())
                if k != pj
            )

        # Presentation columns: P^1 index -> sparse coordinates in the free
        # basis.
        self._columns = []
        for i in range(npts):
            if var_of[i] is None:
                self._columns.append(())
            else:
                k, sgn = var_of[i]
                self._columns.append(tuple((pos, sgn * x) for pos, x in expr[k]))

        # Consistency: the dimension is g + (cusp orbits of sigma) - 1, the
        # cusps of denominator d being (Z/gcd(d, N/d))^* up to sign.
        orbits = sum((euler_phi(math.gcd(d, n // d)) + 1) // 2 for d in divisors(n))
        assert self.dimension == genus_x0(n) + orbits - 1

        self._hecke_cache = {}

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

    def _action_sum(self, matrices, target=None, t=1):
        """Matrix, from this space to target (this space by default), of the
        sum of the right actions of integer 2x2 matrices (a, b, c, d) on the
        generators: (u:v) -> (ua + vc : ub + vd), looked up in the P^1 table
        of target (off-P^1 images add nothing). For t > 1 an image counts
        only when t divides both entries, which are then divided by t: over
        heilbronn_matrices(t) this is the degeneracy map {a, b} -> {ta, tb}
        to a level M with tM | N (Merel 1994).
        """
        target = self if target is None else target
        m = target.n
        table, columns = target.p1.table, target._columns
        matrices = list(matrices)
        # the P^1 index of each image, generator by generator (-1: none)
        if t == 1:
            points = [
                table[(u * a + v * c) % m * m + (u * b + v * d) % m]
                for u, v in self._generators
                for a, b, c, d in matrices
            ]
        else:
            points = [
                table[x // t % m * m + y // t % m] if x % t == 0 == y % t else -1
                for u, v in self._generators
                for a, b, c, d in matrices
                for x, y in [(u * a + v * c, u * b + v * d)]
            ]
        h = len(matrices)
        images = []
        for k in range(0, len(points), h):
            image = [0] * target.dimension
            for i in points[k : k + h]:
                if i >= 0:
                    for row, x in columns[i]:
                        image[row] += x
            images.append(image)
        return [list(row) for row in zip(*images)]

    def hecke_matrix(self, p):
        """Matrix of T_p (U_p when p | N) on the plus space, summed over
        heilbronn_matrices(p), which refuse a p that is neither 1 nor prime."""
        if p not in self._hecke_cache:
            self._hecke_cache[p] = self._action_sum(heilbronn_matrices(p))
        return self._hecke_cache[p]

    # -- cusps and boundary -------------------------------------------------

    def boundary_matrix(self):
        """Boundary map, #cusps x dimension, its rows the cusp classes in the
        order first met. The column of generator (c:d) is delta(c:d) +
        delta(-c:d), so its kernel is the cuspidal part; delta(c:d) is
        [a/c] - [b/d] for any lift [[a, b], [c, d]] in SL2(Z). The class of
        u/x, gcd(u, x) = 1, is keyed by (D, u * x/D mod g), D = gcd(x, N),
        g = gcd(D, N/D) (Cremona, 2.2). As g divides N, c and d, a = 1/d and
        b = -1/c modulo g, so the keys are read off (c:d) with no lift.
        """
        n, rows = self.n, {}

        def row(x, y):  # the row of the class of u/x, u = 1/y mod g
            div = math.gcd(x, n)
            g = math.gcd(div, n // div)
            key = div, pow(y, -1, g) * (x // div) % g
            if key not in rows:
                rows[key] = [0] * self.dimension
            return rows[key]

        for col, (c, d) in enumerate(self._generators):
            for sc in (c, -c):
                row(sc % n, d)[col] += 1
                row(d, -sc % n)[col] -= 1
        return list(rows.values())


class Subspace:
    """Hecke-stable subspace spanned by independent vectors, held as its
    reduced echelon basis (computed once). The matrix of T_p and its
    charpoly are memoised per prime; callers must not modify a returned
    matrix."""

    def __init__(self, space, basis, check_stability=True):
        self.space = space
        self.echelon = EchelonBasis.of(basis)
        self._matrices = {}
        self._charpolys = {}
        if check_stability and self.dimension:
            for p in (2, 3, 5, 7):  # raises unless T_p preserves the span
                self.hecke_matrix(p)

    @property
    def dimension(self):
        return len(self.echelon.rows)

    def hecke_matrix(self, p):
        """K with K / echelon.denom the matrix of T_p restricted to this
        subspace, in its echelon basis."""
        if p not in self._matrices:
            full = self.space.hecke_matrix(p)
            self._matrices[p] = restrict_operator(full, self.echelon)
        return self._matrices[p]

    def hecke_charpoly(self, p):
        if p not in self._charpolys:
            self._charpolys[p] = charpoly(self.hecke_matrix(p), self.echelon.denom)
        return self._charpolys[p]


def cuspidal_subspace(space):
    """Kernel of the boundary map."""
    basis = nullspace(space.boundary_matrix(), space.dimension)
    return Subspace(space, basis)


def cuspidal_new_subspace(space):
    """Cuspidal vectors killed by all degeneracy maps to lower levels."""
    stacked = space.boundary_matrix()
    for q in prime_divisors(space.n):
        # a divisor level is below a level that already passed its cap
        small = build_space(space.n // q, cap=space.n)
        if small.dimension == 0:
            continue
        for t in (1, q):
            stacked.extend(space._action_sum(heilbronn_matrices(t), small, t))
    basis = nullspace(stacked, space.dimension)
    return Subspace(space, basis)


# ---------------------------------------------------------------------------
# Decomposition into Galois conjugacy classes
# ---------------------------------------------------------------------------


class NewformClass:
    """Galois conjugacy class of newforms, carried by its T_p charpolys: a
    dataset class by its table `charpolys`, an engine class by the memo of
    its subspace (the charpoly of a d x d matrix is monic of degree d)."""

    def __init__(
        self,
        level,
        weight,
        degree,
        charpolys=None,
        class_id=None,
        subspace=None,
    ):
        self.level = level
        self.weight = weight
        self.degree = degree
        self.charpolys = dict(charpolys or {})
        self.id = class_id
        self._subspace = subspace
        for p, poly in self.charpolys.items():
            if not poly.is_monic or poly.degree != degree:
                raise ValueError(f"charpoly at p={p} must be monic of degree {degree}")

    def class_charpoly(self, p):
        """P_{f,p}: monic degree-d charpoly of T_p on the class."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in self.charpolys:
            return self.charpolys[p]
        if self._subspace is None:
            raise CharpolyMissingError(
                f"charpoly for p={p} not available on class {self.id}"
            )
        return self._subspace.hecke_charpoly(p)


def _kernel_subspace(piece, op):
    """The subspace of piece killed by op, a matrix in piece's echelon basis."""
    ker = nullspace(op, piece.dimension)
    rows = mat_mul(ker, piece.echelon.rows)
    return Subspace(piece.space, rows, check_stability=False)


def decompose_into_classes(sub):
    """Split a Hecke-stable subspace (the cuspidal new subspace) of the plus
    quotient, which holds each class once, into Galois conjugacy classes.

    T_p for p not dividing the level is semisimple there, so a piece whose
    T_p charpoly is irreducible is one class. For successive such primes p,
    a piece whose charpoly is one factor to a power above 1 waits for the
    next prime, and any other is cut into the kernels of its factors f(T_p),
    each the whole primary part. A split that needs a factorization above
    the cap raises FactorizationCapError; a piece still waiting after
    MAX_SPLIT_PRIME raises ClassSeparationError. Classes get deterministic
    ids level.weight.a, .b, ...
    """
    n = sub.space.n
    found, left = [], [sub] if sub.dimension else []
    split_primes = [p for p in primes_upto(MAX_SPLIT_PRIME) if n % p != 0]
    for p in split_primes:
        waiting = []
        for piece in left:
            factors = factor_over_z(piece.hecke_charpoly(p))
            if len(factors) == 1:
                (found if factors[0][1] == 1 else waiting).append(piece)
                continue
            m = piece.hecke_matrix(p)
            for fac, mult in factors:
                part = _kernel_subspace(piece, apply_poly(fac, m, piece.echelon.denom))
                # exact check that ker f(T_p) is the whole primary part
                assert part.dimension == fac.degree * mult
                part._charpolys[p] = fac**mult
                (found if mult == 1 else waiting).append(part)
        left = waiting
    if left:
        raise ClassSeparationError(
            f"class separation failed for a dimension-{left[0].dimension} "
            f"piece at level {n}"
        )
    classes = [NewformClass(n, 2, piece.dimension, subspace=piece) for piece in found]

    def sort_key(cls):
        key = [cls.degree]
        for p in split_primes[:3]:
            key.append(cls.class_charpoly(p).coeffs)
        return tuple(key)

    classes.sort(key=sort_key)
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
