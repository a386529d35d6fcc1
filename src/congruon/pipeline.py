"""End-to-end comparison of newform classes: Sturm bounds, per-prime root
congruences of Hecke charpolys, the modified-gcd upper bound L+, lower
bounds with old-space handling, plus the Eisenstein scan and the
level-raising check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime, primes_upto, valuation
from .congruence import NotCoprimeError, PreconditionError, congruence_number
from .hecke_io import ComparisonRecord, PerPrimeDetail, options_hash
from .intpoly import IntPoly
from .modsym import eisenstein_charpoly
from .padic import val


@dataclass(frozen=True)
class SturmBound:
    """B = k*b/12 - (b-1)/N with b the index of Gamma0(N)."""

    n: int
    k: int
    b: int
    bound: Fraction

    def __post_init__(self):
        assert self.bound == Fraction(self.k * self.b, 12) - Fraction(self.b - 1, self.n)

    @property
    def primes(self):
        """Primes p <= B by exact rational comparison (p == B included)."""
        if self.bound < 2:
            return []
        return [p for p in primes_upto(int(self.bound)) if p <= self.bound]


@dataclass
class ComparisonOptions:
    skip_t_ell: bool = False
    include_p_dividing_levels: bool = False
    assert_irreducible: bool = False
    prime_cutoff_override: int | None = None


def index_gamma0(n):
    """Index of Gamma0(N) in SL2(Z): N * prod_{p|N} (1 + 1/p)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    b = n
    for p in factorize(n):
        b = b // p * (p + 1)
    return b


def sturm_bound(n, k):
    b = index_gamma0(n)
    return SturmBound(n, k, b, Fraction(k * b, 12) - Fraction(b - 1, n))


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
    sum_i c_i * X^(d*r - i*r) * (X^2 + delta*p^(k-1))^i ... with the
    convention that the i-th coefficient multiplies X^(dr-i)(X^2+delta p^(k-1))^i.
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


def _exponent_entries(f, g, records, p_of_m, ell_set, opts, m, k):
    """d_p(ell) tables for step 2 (plain) and step 3 (old-space at p | m)."""
    plain = {}
    methods = {}
    for p, rec in records.items():
        if rec is None:
            continue
        plain[p] = {}
        methods[p] = set()
        for ell in ell_set:
            d, method = rec.exponent(ell)
            plain[p][ell] = d
            methods[p].add(method)
    old = {}
    if opts.assert_irreducible and m > 1:
        for p in p_of_m:
            r = valuation(p, m)
            delta = 0 if f.level % p == 0 else 1
            tilde = oldspace_charpoly(f.class_charpoly(p), r, delta, p, k)
            rec = _record(tilde, g.class_charpoly(p))
            if rec is None:
                continue
            old[p] = {ell: rec.exponent(ell)[0] for ell in ell_set}
            methods.setdefault(p, set()).add("oldspace")
    return plain, old, methods


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
        raise PreconditionError("not coprime: comparing a class with itself")
    k = f.weight
    level = math.lcm(f.level, g.level)
    sb = sturm_bound(level, k)
    insufficient = not sb.primes
    if opts.prime_cutoff_override is not None:
        primes = primes_upto(opts.prime_cutoff_override)
    else:
        primes = sb.primes
    if not primes:
        raise PreconditionError(
            "insufficient primes below the Sturm bound; pass a cutoff override"
        )

    if g.level % f.level == 0:
        m = g.level // f.level
    else:
        m = 1  # step 3 unavailable when levels are incomparable
    nf_ng = f.level * g.level
    good = [p for p in primes if nf_ng % p != 0]
    p_of_m = [p for p in primes if m % p == 0]
    excluded = [p for p in primes if nf_ng % p == 0 and m % p != 0]
    if opts.include_p_dividing_levels:
        good = good + excluded
        excluded = []

    # Step 1: congruence numbers at the good primes.
    records = {p: _record(f.class_charpoly(p), g.class_charpoly(p)) for p in good}
    shared = [p for p in good if records[p] is None]
    good = [p for p in good if records[p] is not None]
    if not good:
        raise PreconditionError(
            "not coprime: the charpolys agree at every usable prime"
        )
    l_plus = modified_gcd_combine([(p, records[p].c) for p in good])
    for p in p_of_m:
        records[p] = _record(f.class_charpoly(p), g.class_charpoly(p))

    ell_set = sorted(factorize(l_plus)) if l_plus > 1 else []
    plain, old, methods = _exponent_entries(f, g, records, p_of_m, ell_set, opts, m, k)

    l_minus = 1
    for ell in ell_set:
        pool1 = [plain[p][ell] for p in plain if p != ell]
        e1 = min(pool1) if pool1 else 0
        e2 = 0
        if old and valuation(ell, l_plus) != e1:
            pool2 = [
                (old[p][ell] if p in old else plain[p][ell])
                for p in set(plain) | set(old)
                if p != ell
            ]
            e2 = min(pool2) if pool2 else 0
        l_minus *= ell ** max(e1, e2)

    details = []
    for p in good + p_of_m:
        if p not in plain and p not in old:
            details.append(PerPrimeDetail(p, 0, 0, "cn"))
            continue
        d_val = 1
        for ell in ell_set:
            e = old[p][ell] if p in old else plain[p][ell]
            d_val *= ell**e
        if p in old:
            method = "oldspace"
        elif "np" in methods.get(p, set()):
            method = "np"
        else:
            method = "cn"
        c_val = records[p].c if records[p] is not None else 0
        details.append(PerPrimeDetail(p, c_val, d_val, method))
    for p in shared:
        details.append(PerPrimeDetail(p, 0, 0, "cn"))
    details.sort(key=lambda det: det.p)

    return ComparisonRecord(
        f_id=f.id or "f",
        g_id=g.id or "g",
        l_minus=l_minus,
        l_plus=l_plus,
        sturm=sb.bound,
        per_prime=tuple(details),
        hypothesis_3_14_conditional=True,
        skipped_t_ell=opts.skip_t_ell,
        insufficient_primes=insufficient,
        excluded_primes=tuple(excluded),
        shared_charpoly_primes=tuple(shared),
        options_hash=options_hash(opts),
    )


@dataclass(frozen=True)
class EisensteinEntry:
    ell: int
    exponent: int
    mazur_valuation: int


def eisenstein_scan(f, prime_cutoff_override=None):
    """Congruences with the weight-2 Eisenstein series at prime level.

    Returns EisensteinEntry rows: for each residue prime ell dividing the
    modified gcd of the congruence numbers, the min over good p (p != ell)
    of the exact congruence exponent of (P_{f,p}, X - (1+p)), together with
    v_ell(numerator((N-1)/12)) for context.
    """
    n = f.level
    if not is_prime(n):
        raise PreconditionError("Eisenstein scan needs a prime level")
    if f.weight != 2:
        raise PreconditionError("Eisenstein scan is weight-2 only")
    sb = sturm_bound(n, 2)
    primes = (
        primes_upto(prime_cutoff_override)
        if prime_cutoff_override is not None
        else sb.primes
    )
    good = [p for p in primes if p != n]
    if not good:
        raise PreconditionError(
            "insufficient primes below the Sturm bound; pass a cutoff override"
        )
    records = {}
    for p in good:
        rec = _record(f.class_charpoly(p), eisenstein_charpoly(n, p))
        if rec is not None:
            records[p] = rec
    combined = modified_gcd_combine(sorted((p, rec.c) for p, rec in records.items()))
    mazur = Fraction(n - 1, 12)
    out = []
    for ell in sorted(factorize(combined)) if combined > 1 else []:
        pool = [rec.exponent(ell)[0] for p, rec in records.items() if p != ell]
        exponent = min(pool) if pool else 0
        out.append(EisensteinEntry(ell, exponent, valuation(ell, mazur.numerator)))
    return out


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


def oldspace_evaluation_valuation(p_poly, r, delta, p, k, t, ell):
    """Diagnostic v_ell of the old-space charpoly evaluated at an integer t.

    Not folded into any bound; exposes the direct-evaluation refinement.
    """
    value = oldspace_charpoly(p_poly, r, delta, p, k)(t)
    return val(ell, value)
