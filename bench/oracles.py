"""Independent checks of congruon's outputs.

Nothing here imports congruon: the formulas are written out from the
definitions so that a defect in the package cannot hide itself.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Largest L+ over the pairs of newform classes at a level, as tabulated in
# the source paper.
PAPER_MAXIMA = {71: 18, 109: 4, 155: 16}


def factor_small(n):
    """{prime: exponent} of |n| > 0 by trial division."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_small(n):
    return n >= 2 and factor_small(n) == {n: 1}


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _legendre_minus(d, p):
    """Kronecker symbol (-d / p) for d in {1, 3} and a prime p not dividing
    2d, or p = 2 with d = 3 (-3 is 5 mod 8, so the symbol is -1)."""
    if p == 2:
        return -1
    return 1 if pow(-d % p, (p - 1) // 2, p) == 1 else -1


def genus_x0(n):
    """g(X0(N)) = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2."""
    fac = factor_small(n) if n > 1 else {}
    mu = n
    for p in fac:
        mu = mu // p * (p + 1)
    nu2 = 0
    if n % 4:
        nu2 = 1
        for p in fac:
            if p != 2:
                nu2 *= 1 + _legendre_minus(1, p)
    nu3 = 0
    if n % 9:
        nu3 = 1
        for p in fac:
            if p != 3:
                nu3 *= 1 + _legendre_minus(3, p)
    nu_inf = sum(_phi(math.gcd(d, n // d)) for d in _divisors(n))
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    if g.denominator != 1:
        raise ArithmeticError(f"non-integral genus at level {n}")
    return int(g)


def _beta(n):
    """beta = mu * mu (Dirichlet square of the Moebius function)."""
    out = 1
    for e in (factor_small(n).values() if n > 1 else ()):
        out *= {1: -2, 2: 1}.get(e, 0)
    return out


def new_subspace_dimension(n):
    """Dimension of the cuspidal new subspace of weight-2 modular symbols:
    2 * sum over M | N of beta(N/M) * g0(M)."""
    return 2 * sum(_beta(n // m) * genus_x0(m) for m in _divisors(n))


def sturm_primes(n, k=2):
    """Primes p <= k*b/12 - (b-1)/N with b the index of Gamma0(N)."""
    b = n
    for p in factor_small(n) if n > 1 else {}:
        b = b // p * (p + 1)
    bound = Fraction(k * b, 12) - Fraction(b - 1, n)
    return [p for p in range(2, int(bound) + 1) if is_prime_small(p)]


def divisor_levels(n, floor=11):
    """Proper divisors M of N with M >= floor."""
    return [m for m in _divisors(n) if floor <= m < n]


def parse_charpoly_text(text):
    """FORM/CP text -> {id: (degree, {p: coefficient list})}."""
    forms = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        fields = dict(part.split("=", 1) for part in parts[1:])
        if parts[0] == "FORM":
            forms[fields["id"]] = (int(fields["degree"]), {})
        elif parts[0] == "CP":
            coeffs = [int(c) for c in fields["coeffs"].split(",")]
            forms[fields["id"]][1][int(fields["p"])] = coeffs
        else:
            raise ValueError(f"unexpected line {line!r}")
    return forms


def check_level(level, primes, text, degrees, max_l_plus):
    """Failures of one surveyed level, as strings (empty when all hold).

    degrees: the class degrees congruon reported; text: its exported dataset;
    max_l_plus: the largest L+ over the pairs of classes at this level.
    """
    failures = []
    half = new_subspace_dimension(level) // 2
    if sum(degrees) != half:
        failures.append(f"level {level}: class degrees {degrees} do not sum to {half}")
    forms = parse_charpoly_text(text)
    if sorted(d for d, _ in forms.values()) != sorted(degrees):
        failures.append(f"level {level}: exported degrees differ from the classes")
    for form_id, (degree, cps) in forms.items():
        if sorted(cps) != primes:
            failures.append(f"{form_id}: exported primes {sorted(cps)} != {primes}")
        for p, coeffs in cps.items():
            if len(coeffs) != degree + 1 or coeffs[-1] != 1:
                failures.append(f"{form_id}: charpoly at p={p} is not monic of degree {degree}")
    want = PAPER_MAXIMA.get(level)
    if want is not None and max_l_plus != want:
        failures.append(f"level {level}: maximal L+ {max_l_plus}, paper has {want}")
    return failures


# -- congpoly ---------------------------------------------------------------


def poly_from_roots(roots):
    """Coefficients (constant first) of the monic prod (X - r)."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return coeffs


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def planted_exponents(p_roots, q_roots):
    """{ell: max over root pairs of v_ell(a - b)}, for every ell with a
    positive value."""
    out = {}
    for a in p_roots:
        for b in q_roots:
            for ell, e in factor_small(a - b).items():
                out[ell] = max(out.get(ell, 0), e)
    return out


_C_LINE = re.compile(r"^c=(\d+) r=(-?\d+(?:,-?\d+)*) s=(-?\d+(?:,-?\d+)*)$")
_ELL_LINE = re.compile(r"^ell=(\d+) n=(\d+) ")


def check_congpoly(p_roots, q_roots, output):
    """Failures of one `congpoly P Q --all-ell` output, as strings.

    Checks r*P + s*Q = c with deg r < deg Q and deg s < deg P, that every
    prime ell with a positive planted exponent is printed with that exponent,
    and that every printed exponent matches the planted roots.
    """
    lines = output.splitlines()
    tag = f"congpoly {p_roots} {q_roots}"
    if not lines or not _C_LINE.match(lines[0]):
        return [f"{tag}: no c= line in {output!r}"]
    c_text, r_text, s_text = _C_LINE.match(lines[0]).groups()
    c = int(c_text)
    r = [int(x) for x in r_text.split(",")]
    s = [int(x) for x in s_text.split(",")]
    failures = []
    p, q = poly_from_roots(p_roots), poly_from_roots(q_roots)
    if _poly_add(_poly_mul(r, p), _poly_mul(s, q)) != [c] or c < 1:
        failures.append(f"{tag}: r*P + s*Q != c={c}")
    if len(r) > len(q) - 1 or len(s) > len(p) - 1:
        failures.append(f"{tag}: cofactor degrees too large")
    printed = {}
    for line in lines[1:]:
        m = _ELL_LINE.match(line)
        if not m:
            failures.append(f"{tag}: unexpected line {line!r}")
            continue
        printed[int(m.group(1))] = int(m.group(2))
    planted = planted_exponents(p_roots, q_roots)
    for ell, n in planted.items():
        if printed.get(ell) != n:
            failures.append(f"{tag}: ell={ell} printed n={printed.get(ell)}, planted {n}")
    for ell, n in printed.items():
        if ell not in planted and n != 0:
            failures.append(f"{tag}: ell={ell} printed n={n}, planted 0")
    return failures
