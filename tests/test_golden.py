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

`golden/charpolys_mid.txt` holds the same for every level 121-160 but 155
(already in `charpolys.txt`), the composite levels the bench draws.
Regenerate it with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as g; open(g.GOLDEN_MID, 'w').write(g.golden_text(g.MID_LEVELS))"

`golden/congpoly.txt` holds the solver's `congpoly P Q --all-ell` output, each
run under a `$ ` line with its arguments, for the seeded planted pairs of
`congpoly_runs` (some also with `--pretty`). Regenerate it with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as g; open(g.GOLDEN_CONGPOLY, 'w').write(g.congpoly_text())"

`golden/compare.txt` holds the comparison's `result_lines`, each run under a
`$ ` line naming it (a refusal as `error: <message> (exit <code>)`): every
pair of classes at each level 11-160; the `--assert-irred` old-space
comparisons of the composite levels 90, 110, 114, 130 and 155 against their
proper divisor levels >= 11; option variants at 71 and 155; and the `EIS`
lines of every class at each prime level of the charpoly golden files, plus
11 and 71 with a cutoff. Same-level classes are read back from the charpoly
golden files. Regenerate it with:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden as g; open(g.GOLDEN_COMPARE, 'w').write(g.compare_text())"
"""

import math
import random
from pathlib import Path

from click.testing import CliRunner

from congruon.arith import CongruonError, is_prime
from congruon.cli import main
from congruon.hecke_io import export_class, parse_dataset, result_lines
from congruon.intpoly import IntPoly
from congruon.modsym import newform_classes
from congruon.pipeline import (
    ComparisonOptions,
    compare_newforms,
    eisenstein_scan,
    sturm_bound,
)

GOLDEN = Path(__file__).parent / "golden" / "charpolys.txt"
LEVELS = [*range(11, 121), 155, 233]
GOLDEN_HIGH = Path(__file__).parent / "golden" / "charpolys_high.txt"
HIGH_LEVELS = [301, 389]
GOLDEN_MID = Path(__file__).parent / "golden" / "charpolys_mid.txt"
MID_LEVELS = [n for n in range(121, 161) if n != 155]
GOLDEN_CONGPOLY = Path(__file__).parent / "golden" / "congpoly.txt"
CONGPOLY_SEED = 20091
CLUSTER_PRIMES = (2, 3, 5, 7)
# Largest cluster scale ell^k per residue prime.
MAX_SCALE_EXPONENT = {2: 3, 3: 2, 5: 1, 7: 1}
GOLDEN_COMPARE = Path(__file__).parent / "golden" / "compare.txt"
OLDSPACE_LEVELS = [90, 110, 114, 130, 155]


def golden_text(levels=LEVELS):
    primes = {n: sturm_bound(n, 2).primes for n in levels}
    return "".join(
        export_class(cls, primes[n])
        for n in levels
        for cls in newform_classes(n, cap=max(levels))
    )


def _smooth(n):
    """True iff n != 0 has no prime factor outside CLUSTER_PRIMES."""
    n = abs(n)
    for ell in CLUSTER_PRIMES:
        while n and n % ell == 0:
            n //= ell
    return n == 1


def _planted_offsets(rng, dp, dq, repeated, span=12):
    """Root offsets for P and Q in [-span, span], every difference between a
    root of Q and a root of P a nonzero CLUSTER_PRIMES-smooth number, so the
    congruence number has no other prime factor. P may repeat a root."""
    while True:
        p, q = [], []
        order = ["p"] * dp + ["q"] * dq
        rng.shuffle(order)
        for side in order:
            mine, other = (p, q) if side == "p" else (q, p)
            cands = [
                x
                for x in range(-span, span + 1)
                if x not in mine and all(_smooth(x - y) for y in other)
            ]
            if side == "p" and repeated:
                cands += p * 4
            if not cands:
                break
            mine.append(rng.choice(cands))
        else:
            return p, q


def _coeff_arg(roots):
    return ",".join(map(str, IntPoly.from_roots(roots).coeffs))


def congpoly_runs(seed=CONGPOLY_SEED):
    """`congpoly` argument lists: for every (deg P, deg Q) in 1..8 x 1..8,
    min(deg P, deg Q) monic split pairs whose roots cluster around one base
    point at the scale ell^k for an ell in CLUSTER_PRIMES; about 15% repeat
    a root of P (the factored route). The first pair of each equal-degree
    block from degree 3 on is run again with --pretty."""
    rng = random.Random(seed)
    runs = []
    for dp in range(1, 9):
        for dq in range(1, 9):
            for i in range(min(dp, dq)):
                ell = rng.choice(CLUSTER_PRIMES)
                scale = ell ** rng.randint(0, MAX_SCALE_EXPONENT[ell])
                base = rng.randint(-30, 30)
                repeated = dp > 1 and rng.random() < 0.15
                p, q = _planted_offsets(rng, dp, dq, repeated)
                args = [
                    "congpoly",
                    _coeff_arg([base + scale * x for x in p]),
                    _coeff_arg([base + scale * x for x in q]),
                    "--all-ell",
                ]
                runs.append(args)
                if i == 0 and dp == dq >= 3:
                    runs.append(args + ["--pretty"])
    return runs


def congpoly_text(runs=None):
    runner = CliRunner()
    out = []
    for args in runs or congpoly_runs():
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        out.append("$ " + " ".join(args) + "\n" + result.output)
    return "".join(out)


def _golden_classes():
    """Classes by level, read back from the charpoly golden files, which
    hold each level's Sturm primes."""
    by_level = {}
    for path in (GOLDEN, GOLDEN_MID, GOLDEN_HIGH):
        for cls in parse_dataset(path.read_text()).forms:
            by_level.setdefault(cls.level, []).append(cls)
    return dict(sorted(by_level.items()))


def _block(label, lines, *args):
    """One run under its `$ ` line: the lines `lines(*args)` returns, or the
    refusal it raises."""
    try:
        out = lines(*args)
    except CongruonError as e:
        out = [f"error: {e} (exit {e.exit_code})"]
    return "".join(f"{line}\n" for line in [f"$ {label}", *out])


def _compare(f, g, **options):
    """`congforms` on f and g, labelled with the option fields it sets."""
    fields = [f"{k}={v}" for k, v in options.items()]
    opts = ComparisonOptions(**options) if options else None
    return _block(
        " ".join(["congforms", f.id, g.id, *fields]),
        lambda: result_lines(compare_newforms(f, g, opts)),
    )


def _pairs(classes):
    return [(f, g) for i, f in enumerate(classes) for g in classes[i + 1 :]]


def _eis_lines(cls, cutoff):
    entries = eisenstein_scan(cls, prime_cutoff_override=cutoff)
    return [f"EIS id={cls.id} none"] * (not entries) + [
        f"EIS id={cls.id} ell={e.ell} n={e.exponent} mazur={e.mazur_valuation}"
        for e in entries
    ]


def compare_text():
    golden = _golden_classes()
    engine = {n: newform_classes(n) for n in (11, 31, 71, 155)}
    out = [
        _compare(f, g)
        for n, classes in golden.items()
        if n <= 160
        for f, g in _pairs(classes)
    ]
    for n in OLDSPACE_LEVELS:
        for d in range(11, n):
            if n % d == 0:
                for f in newform_classes(d):
                    out += [_compare(f, g, assert_irreducible=True) for g in golden[n]]
    variants = [
        (golden[71], {"prime_cutoff_override": 7}),
        (engine[71], {"prime_cutoff_override": 19}),
        (golden[71], {"skip_t_ell": True}),
        (golden[155], {"include_p_dividing_levels": True}),
        (golden[155], {"prime_cutoff_override": 7}),
        (engine[155], {"prime_cutoff_override": 37, "skip_t_ell": True}),
    ]
    for classes, options in variants:
        out += [_compare(f, g, **options) for f, g in _pairs(classes)]
    for options in (
        {"assert_irreducible": True, "include_p_dividing_levels": True},
        {"assert_irreducible": True, "prime_cutoff_override": 13},
    ):
        out += [_compare(f, g, **options) for f in engine[31] for g in golden[155]]
    eis = [(cls, None) for n in golden if is_prime(n) for cls in golden[n]]
    eis += [(cls, 13) for cls in engine[11] + engine[71]]
    for cls, cutoff in eis:
        label = f"eisenstein {cls.id}" + (f" --cutoff {cutoff}" if cutoff else "")
        out.append(_block(label, _eis_lines, cls, cutoff))
    return "".join(out)


def test_engine_reproduces_golden_charpolys():
    assert golden_text() == GOLDEN.read_text()


def test_engine_reproduces_golden_charpolys_high_levels():
    assert golden_text(HIGH_LEVELS) == GOLDEN_HIGH.read_text()


def test_engine_reproduces_golden_charpolys_mid_levels():
    assert golden_text(MID_LEVELS) == GOLDEN_MID.read_text()


def test_solver_reproduces_golden_congpoly():
    assert congpoly_text() == GOLDEN_CONGPOLY.read_text()


def test_pipeline_reproduces_golden_compare():
    assert compare_text() == GOLDEN_COMPARE.read_text()


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
