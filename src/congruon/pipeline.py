"""End-to-end comparison of newform classes: Sturm bounds, per-prime root
congruences of Hecke charpolys, the modified-gcd upper bound L+, lower
bounds with old-space handling, plus the Eisenstein scan and the
level-raising check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize, index_gamma0, is_prime, primes_upto, valuation
from .congruence import NotCoprimeError, PreconditionError, congruence_number
from .hecke_io import ComparisonRecord, PerPrimeDetail, options_text
from .intpoly import IntPoly


@dataclass(frozen=True)
class SturmBound:
    """B = k*b/12 - (b-1)/N with b the index of Gamma0(N), as num/den in
    lowest terms with den > 0."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1 or math.gcd(self.num, self.den) != 1:
            raise ValueError("a Sturm bound is num/den in lowest terms, den > 0")

    @property
    def primes(self):
        """Primes p <= B, p == B included: for an integer p >= 2, p <= B
        exactly when p <= floor(B), and a B below 2 gives none."""
        return primes_upto(self.num // self.den)


@dataclass
class ComparisonOptions:
    skip_t_ell: bool = False
    include_p_dividing_levels: bool = False
    assert_irreducible: bool = False
    prime_cutoff_override: int | None = None


def sturm_bound(n, k):
    b = index_gamma0(n)
    num, den = k * b * n - 12 * (b - 1), 12 * n
    g = math.gcd(num, den)
    return SturmBound(num // g, den // g)


def modified_gcd_combine(entries):
    """Combine congruence numbers across primes, ignoring each c_p's p-part.

    The result has, at every prime ell, the valuation
    min over entries with p != ell of v_ell(c_p). Implemented
    order-independently as gcd over i of c_i * p_i^(max_j v_{p_i}(c_j)).
    A single entry is returned unchanged (the p-part is kept).
    """
    entries = list(entries)
    if not entries:
        raise ValueError("modified gcd of an empty sequence")
    primes = [p for p, _ in entries]
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in modified gcd input")
    for p, c in entries:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if c < 1:
            raise ValueError("congruence numbers must be >= 1")
    if len(entries) == 1:
        return entries[0][1]
    out = 0
    for p, c in entries:
        pad = max(valuation(p, c2) for _, c2 in entries)
        out = math.gcd(out, c * p**pad)
    return out


def oldspace_charpoly(p_poly, r, delta, p, k):
    """Charpoly of T_p on the old space spanned by r+1 degeneracy images.

    For P = sum c_i X^i monic of degree d, returns
    sum_i c_i X^(dr - i) (X^2 + delta p^(k-1))^i, monic of degree d(r+1).
    """
    if not p_poly.is_monic or p_poly.degree < 1:
        raise ValueError("P must be monic of degree >= 1")
    if r < 1 or delta not in (0, 1):
        raise ValueError("need r >= 1 and delta in {0, 1}")
    d = p_poly.degree
    quad = IntPoly([delta * p ** (k - 1), 0, 1])
    out = IntPoly()
    for i in range(d + 1):
        c = p_poly[i]
        if c:
            out = out + c * (IntPoly.x() ** (d * r - i)) * quad**i
    assert out.is_monic and out.degree == d * (r + 1)
    return out


def _record(pf, pg):
    """The congruence record of (pf, pg), or None where they share a root
    (then every congruence holds, so the prime gives no constraint)."""
    try:
        return congruence_number(pf, pg)
    except NotCoprimeError:
        return None


def compare_newforms(f, g, opts=None):
    """The full comparison algorithm; returns a ComparisonRecord.

    Step 1: L+ = modified gcd of congruence numbers c_p over p <= B not
    dividing either level. Step 2: per residue prime ell | L+, the plain
    lower-bound exponent is the min of d_p over the used p != ell. Step 3
    (only when level(g) = m*level(f), m > 1, and the caller asserts residual
    irreducibility): at p | m the old-space charpoly replaces P_{f,p}.
    L- multiplies the per-ell maxima of the two lower bounds.
    """
    opts = opts or ComparisonOptions()
    if f.weight != g.weight:
        raise PreconditionError("weights differ")
    if f.id is not None and f.id == g.id:
        raise NotCoprimeError("not coprime: comparing a class with itself")
    k = f.weight
    level = math.lcm(f.level, g.level)
    sb = sturm_bound(level, k)
    cutoff = opts.prime_cutoff_override
    top = sb.num // sb.den if cutoff is None else cutoff
    if top < 2:
        raise PreconditionError(
            "insufficient primes below the Sturm bound; pass a cutoff override"
        )
    # The Sturm primes are walked lazily: at a large level B is huge, and a
    # class that lacks a charpoly refuses at the first prime it lacks.
    primes = (
        filter(is_prime, range(2, top + 1)) if cutoff is None else primes_upto(cutoff)
    )

    if g.level % f.level == 0:
        m = g.level // f.level
    else:
        m = 1  # step 3 unavailable when levels are incomparable
    nf_ng = f.level * g.level

    # Step 1: congruence numbers at the good primes, each read as it is
    # reached; the primes dividing a level come last, when included.
    records, p_of_m, excluded = {}, [], []
    for p in primes:
        if nf_ng % p:
            records[p] = _record(f.class_charpoly(p), g.class_charpoly(p))
        else:
            (p_of_m if m % p == 0 else excluded).append(p)
    if opts.include_p_dividing_levels:
        for p in excluded:
            records[p] = _record(f.class_charpoly(p), g.class_charpoly(p))
        excluded = []
    if not records:
        raise PreconditionError(
            "no usable primes: every prime up to the Sturm bound or cutoff "
            "divides a level"
        )
    shared = [p for p, rec in records.items() if rec is None]
    used = [p for p, rec in records.items() if rec is not None]
    if not used:
        raise NotCoprimeError("not coprime: the charpolys agree at every usable prime")
    l_plus = modified_gcd_combine([(p, records[p].c) for p in used])
    for p in p_of_m:
        records[p] = _record(f.class_charpoly(p), g.class_charpoly(p))
    ell_set = sorted(factorize(l_plus))

    # One row per prime: its c_p, its plain exponents d_p(ell) (None where
    # the charpolys share a root), the exponents step 3 reads (old-space at
    # p | m when asserted) and the route that fixed the latter.
    rows = {}
    for p, rec in sorted(records.items()):
        plain, methods = None, set()
        if rec is not None:
            plain = {}
            for ell in ell_set:
                plain[ell], method = rec.exponent(ell)
                methods.add(method)
        step3, route = plain, "np" if "np" in methods else "cn"
        if opts.assert_irreducible and p in p_of_m:
            delta = 0 if f.level % p == 0 else 1
            tilde = oldspace_charpoly(f.class_charpoly(p), valuation(p, m), delta, p, k)
            old = _record(tilde, g.class_charpoly(p))
            if old is not None:
                step3 = {ell: old.exponent(ell)[0] for ell in ell_set}
                route = "oldspace"
        rows[p] = (0 if rec is None else rec.c, plain, step3, route)

    has_old = any(route == "oldspace" for *_, route in rows.values())
    l_minus = 1
    for ell in ell_set:
        others = [row for p, row in rows.items() if p != ell]
        e1 = min((d[ell] for _, d, _, _ in others if d is not None), default=0)
        e2 = 0
        if has_old and valuation(ell, l_plus) != e1:
            e2 = min((d[ell] for _, _, d, _ in others if d is not None), default=0)
        l_minus *= ell ** max(e1, e2)

    details = []
    for p, (c, _, d, route) in rows.items():
        d_val = 0 if d is None else math.prod(ell**e for ell, e in d.items())
        details.append(PerPrimeDetail(p, c, d_val, route))

    return ComparisonRecord(
        f_id=f.id or "f",
        g_id=g.id or "g",
        l_minus=l_minus,
        l_plus=l_plus,
        sturm=sb,
        per_prime=tuple(details),
        skipped_t_ell=opts.skip_t_ell,
        excluded_primes=tuple(excluded),
        shared_charpoly_primes=tuple(shared),
        options_text=options_text(opts),
    )


@dataclass(frozen=True)
class EisensteinEntry:
    ell: int
    exponent: int
    mazur_valuation: int


def check_eisenstein_level(n):
    """Refuse a level the Eisenstein scan does not cover: it must be prime."""
    if not is_prime(n):
        raise PreconditionError("Eisenstein scan needs a prime level")


class _Eisenstein:
    """The weight-2 Eisenstein series at level N as `compare_newforms` reads
    it: T_p = 1 + p, so its T_p charpoly is X - (1+p)."""

    weight = 2
    id = None

    def __init__(self, level):
        self.level = level

    def class_charpoly(self, p):
        return IntPoly([-(1 + p), 1])


def eisenstein_scan(f, prime_cutoff_override=None):
    """Congruences with the weight-2 Eisenstein series E at prime level N.

    Compares f with E. Returns an EisensteinEntry per residue prime ell
    dividing L+: the exponent is v_ell(L-), the min over good p != ell of the
    exact congruence exponent of (P_{f,p}, X - (1+p)), together with
    v_ell((N-1)/gcd(N-1, 12)), the numerator of (N-1)/12, for context.
    """
    check_eisenstein_level(f.level)
    opts = ComparisonOptions(prime_cutoff_override=prime_cutoff_override)
    record = compare_newforms(f, _Eisenstein(f.level), opts)
    mazur = (f.level - 1) // math.gcd(f.level - 1, 12)
    return [
        EisensteinEntry(ell, valuation(ell, record.l_minus), valuation(ell, mazur))
        for ell in sorted(factorize(record.l_plus))
    ]


@dataclass(frozen=True)
class LevelRaisingResult:
    p: int
    ell: int
    c_minus: int
    c_plus: int
    e_minus: int
    e_plus: int


def level_raising_check(f, p, ell):
    """Exponents of congruence of P_{f,p} with X - (p+1) and X + (p+1)."""
    if f.level % p == 0:
        raise PreconditionError("p must not divide the level")
    pf = f.class_charpoly(p)
    minus = congruence_number(pf, IntPoly([-(p + 1), 1]))
    plus = congruence_number(pf, IntPoly([p + 1, 1]))
    return LevelRaisingResult(
        p, ell, minus.c, plus.c, minus.exponent(ell)[0], plus.exponent(ell)[0]
    )
