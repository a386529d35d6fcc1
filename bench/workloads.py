"""The benchmark's workloads: seeded inputs, one op each, and their checks.

levels-prime      the per-level survey at prime levels (class splitting
                  dominates: modsym.decompose_into_classes).
levels-composite  the same survey at composite levels plus the old-space
                  comparison (full-space T_p dominates: hecke_matrix).
congpoly          `congpoly P Q --all-ell` through the CLI on planted pairs
                  (the solver only: resultants, HNF, case analysis, NP).

congruon only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import contextlib
import io
import random

import oracles
from tracer import Probe

WORKLOADS = ("levels-prime", "levels-composite", "congpoly")
DEFAULT_SEED = 1
# Later gain claims must also hold on this seed; do not tune against it.
HELD_OUT_SEED = 4242

# Anchors carry the paper's maxima. One level is drawn from each stratum;
# a stratum holds levels whose op costs agree within about 10% on the
# reference machine, so the op set's wall time, median and tail hardly depend
# on the seed. Levels without a cost-matched partner are never drawn: 107,
# 113, 127, 131, 151 (prime) and 120, 126, 135, 150 (composite; 135 costs
# about 20% more than 90 and 110, and the other three are also too slow for
# three passes in one run).
PRIME_ANCHORS = (71, 109)
PRIME_STRATA = ((101, 103), (137, 139), (149, 157))
COMPOSITE_ANCHORS = (155,)
COMPOSITE_STRATA = ((90, 110), (114, 130))

# congpoly: every (deg P, deg Q) in 1..6 x 1..6, PAIRS_PER_DEGREES times.
MAX_DEGREE = 6
PAIRS_PER_DEGREES = 6
RESIDUE_PRIMES = (2, 3, 5, 7)
# Largest cluster scale ell^k per residue prime, so roots stay small.
MAX_CLUSTER_EXPONENT = {2: 6, 3: 4, 5: 2, 7: 2}
REPEATED_ROOT_SHARE = 0.15

# Functions the traced run wraps, with what each records beyond its span.
TRACED = {
    "modsym.build_space": Probe(),
    "modsym.cuspidal_new_subspace": Probe(),
    "modsym.decompose_into_classes": Probe(),
    "modsym.ModSymSpace.hecke_matrix": Probe(distinct=True),
    "modsym.NewformClass.class_charpoly": Probe(),
    "linalg.rref": Probe(),
    "linalg.nullspace": Probe(),
    "linalg.apply_poly": Probe(),
    "linalg.restrict_operator": Probe(),
    "linalg.charpoly": Probe(work=lambda args: len(args[0])),
    "intpoly.factor_over_z": Probe(work=lambda args: getattr(args[0], "degree", 0)),
    "intpoly.resultant": Probe(distinct=True),
    "intpoly.hnf_with_transform": Probe(distinct=True),
    "intpoly.gcd_over_q": Probe(),
    "congruence.congruence_number": Probe(),
    "congruence.bounds_via_congruence_number": Probe(),
    "congruence.solve_problem_2_4": Probe(
        outcome=lambda r: isinstance(r, tuple) and len(r) > 1 and r[1] == "cn"
    ),
    "congruence.exact_exponent_newton": Probe(),
    "congruence.difference_root_poly": Probe(),
    "padic.newton_polygon": Probe(),
    "pipeline.compare_newforms": Probe(),
    "pipeline.eisenstein_scan": Probe(),
    "hecke_io.export_class": Probe(),
    "hecke_io.parse_dataset": Probe(),
}


def _level_inputs(anchors, strata, rng):
    levels = list(anchors) + [rng.choice(stratum) for stratum in strata]
    rng.shuffle(levels)
    return [
        {
            "level": n,
            "primes": oracles.sturm_primes(n),
            "divisor_levels": oracles.divisor_levels(n),
        }
        for n in levels
    ]


def _planted_pair(rng, dp, dq):
    """Monic split P, Q of degrees dp, dq sharing no root, with roots
    clustered around one base point at the scales ell^k."""
    ell = rng.choice(RESIDUE_PRIMES)
    base = rng.randint(-30, 30)
    repeated = rng.random() < REPEATED_ROOT_SHARE

    def root():
        if rng.random() < 0.6:
            k = rng.randint(1, MAX_CLUSTER_EXPONENT[ell])
            return base + ell**k * rng.randint(-2, 2)
        return rng.randint(-30, 30)

    p_roots = []
    while len(p_roots) < dp:
        r = root()
        if repeated or r not in p_roots:
            p_roots.append(r)
    q_roots = []
    while len(q_roots) < dq:
        r = root()
        if r not in p_roots and r not in q_roots:
            q_roots.append(r)
    return p_roots, q_roots


def make_inputs(workload, seed):
    """The op inputs of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "levels-prime":
        return _level_inputs(PRIME_ANCHORS, PRIME_STRATA, rng)
    if workload == "levels-composite":
        return _level_inputs(COMPOSITE_ANCHORS, COMPOSITE_STRATA, rng)
    if workload == "congpoly":
        pairs = []
        for _ in range(PAIRS_PER_DEGREES):
            for dp in range(1, MAX_DEGREE + 1):
                for dq in range(1, MAX_DEGREE + 1):
                    p_roots, q_roots = _planted_pair(rng, dp, dq)
                    pairs.append(
                        {
                            "p_roots": p_roots,
                            "q_roots": q_roots,
                            "args": [
                                "congpoly",
                                _coeff_arg(p_roots),
                                _coeff_arg(q_roots),
                                "--all-ell",
                            ],
                        }
                    )
        rng.shuffle(pairs)
        return pairs
    raise ValueError(f"unknown workload {workload!r}")


def _coeff_arg(roots):
    return ",".join(str(c) for c in oracles.poly_from_roots(roots))


def run_level(cg, inp, composite):
    """One surveyed level: classes, export, parse, all pairs, then the
    Eisenstein scan (prime level) or the old-space comparison (composite)."""
    level, primes = inp["level"], inp["primes"]
    classes = cg.modsym.newform_classes(level)
    text = "".join(cg.hecke_io.export_class(cls, primes) for cls in classes)
    forms = cg.hecke_io.parse_dataset(text).forms
    records = [
        cg.pipeline.compare_newforms(f, g)
        for i, f in enumerate(forms)
        for g in forms[i + 1 :]
    ]
    if composite:
        opts = cg.pipeline.ComparisonOptions(assert_irreducible=True)
        for m in inp["divisor_levels"]:
            for f in cg.modsym.newform_classes(m):
                for g in forms:
                    cg.pipeline.compare_newforms(f, g, opts)
    else:
        for f in forms:
            cg.pipeline.eisenstein_scan(f)
    return {
        "degrees": [cls.degree for cls in classes],
        "text": text,
        "max_l_plus": max((r.l_plus for r in records), default=None),
    }


def run_congpoly(cg, inp, tracer=None):
    """`congpoly P Q --all-ell` in-process; returns what it printed."""
    buf = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(buf):
        code = cg.cli.main.main(
            args=inp["args"], prog_name="congruon", standalone_mode=False
        )
    if code:
        raise RuntimeError(f"congpoly exited with code {code}")
    return buf.getvalue()


def run_op(cg, workload, inp, tracer=None):
    if workload == "congpoly":
        return run_congpoly(cg, inp, tracer)
    return run_level(cg, inp, composite=workload == "levels-composite")


def check_op(workload, inp, out):
    """Oracle failures for one op's output (empty list when correct)."""
    if workload == "congpoly":
        return oracles.check_congpoly(inp["p_roots"], inp["q_roots"], out)
    return oracles.check_level(
        inp["level"], inp["primes"], out["text"], out["degrees"], out["max_l_plus"]
    )
