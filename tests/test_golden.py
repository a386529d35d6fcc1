"""Golden gate: the engine's exported charpolys, byte for byte.

`golden/charpolys.txt` holds `export_class` output for every class at every
level 11-120, 155 and 233, at each level's Sturm primes. Regenerate it (only
when a change to the output is intended) from the repository root with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden; open(test_golden.GOLDEN, 'w').write(test_golden.golden_text())"

`golden/charpolys_high.txt` holds the same for levels 301 and 389 (engine
cap raised to 400); the 389 block carries a degree-20 class. Regenerate it
with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as g; open(g.GOLDEN_HIGH, 'w').write(g.golden_text(g.HIGH_LEVELS))"
"""

import math
from pathlib import Path

from congruon.hecke_io import export_class
from congruon.modsym import newform_classes
from congruon.pipeline import sturm_bound

GOLDEN = Path(__file__).parent / "golden" / "charpolys.txt"
LEVELS = [*range(11, 121), 155, 233]
GOLDEN_HIGH = Path(__file__).parent / "golden" / "charpolys_high.txt"
HIGH_LEVELS = [301, 389]


def golden_text(levels=LEVELS):
    primes = {n: sturm_bound(n, 2).primes for n in levels}
    return "".join(
        export_class(cls, primes[n])
        for n in levels
        for cls in newform_classes(n, cap=max(levels))
    )


def test_engine_reproduces_golden_charpolys():
    assert golden_text() == GOLDEN.read_text()


def test_engine_reproduces_golden_charpolys_high_levels():
    assert golden_text(HIGH_LEVELS) == GOLDEN_HIGH.read_text()


def _neg_prem(a, b):
    """-(|lc(b)|^k * a mod b) over its content: the next Sturm term after
    a and b (coefficient lists, ascending), scaled by a positive integer."""
    a = list(a)
    s = abs(b[-1])
    while len(a) >= len(b):
        c = a[-1] * s // b[-1]
        a = [x * s for x in a]
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    g = math.gcd(*a)
    return [-x // g for x in a]


def _distinct_real_roots(r):
    """(distinct real roots, distinct roots) of r: the first by a Sturm
    sequence over Z read at -oo and +oo, the second from its last term,
    gcd(r, r')."""
    seq = [r, [i * c for i, c in enumerate(r)][1:]]
    while len(seq[-1]) > 1 and (nxt := _neg_prem(seq[-2], seq[-1])):
        seq.append(nxt)

    def changes(signs):
        signs = [x for x in signs if x]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    at_minus = changes([(-1) ** (len(f) - 1) * (f[-1] > 0 or -1) for f in seq])
    at_plus = changes([f[-1] > 0 or -1 for f in seq])
    return at_minus - at_plus, len(r) - len(seq[-1])


def _same_sign(coeffs):
    return all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def _ramanujan(poly, p):
    """True iff every root of poly is real and in [-2 sqrt(p), 2 sqrt(p)].

    R(x^2) = P(x) P(-x) has the squares of the roots of P as its roots, and
    they all lie in [0, 4p] iff R is real-rooted (its distinct real roots
    are as many as its distinct roots), R(-y) has no positive root and
    R(y + 4p) has no positive root; for a real-rooted polynomial the last
    two hold iff their coefficients do not change sign.
    """
    pp = [c * (-1) ** i for i, c in enumerate(poly)]
    prod = [0] * (2 * len(poly) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(pp):
            prod[i + j] += x * y
    r = prod[::2]
    real, distinct = _distinct_real_roots(r)
    shifted = [0] * len(r)  # R(y + 4p) by Horner
    for c in reversed(r):
        shifted = [c + 4 * p * shifted[0]] + [
            x + 4 * p * y for x, y in zip(shifted, shifted[1:])
        ]
    return (
        real == distinct
        and _same_sign([c * (-1) ** i for i, c in enumerate(r)])
        and _same_sign(shifted)
    )


def test_ramanujan_sturm_check():
    assert _ramanujan([2, 1], 11)  # X + 2
    assert _ramanujan([-8, 0, 1], 2)  # roots +-2 sqrt(2), on the bound
    assert not _ramanujan([-9, 0, 1], 2)  # +-3 > 2 sqrt(2)
    assert not _ramanujan([1, 0, 1], 2)  # +-i
    assert _ramanujan([1, -2, 1], 2)  # (X - 1)^2
    assert not _ramanujan([-3, 1], 2)  # 3 > 2 sqrt(2)
    assert _ramanujan([-1, -1, 1], 5) and not _ramanujan([1, 1, 1], 5)


def test_golden_charpolys_satisfy_ramanujan_bound():
    for path in (GOLDEN, GOLDEN_HIGH):
        for line in path.read_text().splitlines():
            if line.startswith("CP "):
                fields = dict(f.split("=") for f in line.split()[1:])
                coeffs = [int(c) for c in fields["coeffs"].split(",")]
                assert _ramanujan(coeffs, int(fields["p"])), line
