"""Self-tests of the benchmark: oracles, tracer and metric declarations.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

# `congpoly 12,1 -60,1 --all-ell`: roots -12 and 60 differ by 72 = 2^3 * 3^2.
CONGPOLY_OUT = (
    "c=72 r=1 s=-1\n"
    "ell=2 n=3 exact method=cn case=c-i\n"
    "ell=3 n=2 exact method=cn case=c-i\n"
)


def test_congpoly_oracle_accepts_the_readme_example():
    assert oracles.check_congpoly([-12], [60], CONGPOLY_OUT) == []


def test_congpoly_oracle_rejects_a_wrong_exponent():
    wrong_n = CONGPOLY_OUT.replace("ell=3 n=2", "ell=3 n=1")
    assert oracles.check_congpoly([-12], [60], wrong_n)


def test_congpoly_oracle_rejects_a_missing_prime():
    missing = "\n".join(CONGPOLY_OUT.splitlines()[:2]) + "\n"
    assert oracles.check_congpoly([-12], [60], missing)


def test_congpoly_oracle_rejects_wrong_cofactors():
    assert oracles.check_congpoly([-12], [60], CONGPOLY_OUT.replace("s=-1", "s=1"))


def _level_71_text(primes):
    lines = []
    for form in ("71.2.a", "71.2.b"):
        lines.append(f"FORM id={form} level=71 weight=2 degree=3")
        lines += [f"CP id={form} p={p} coeffs=1,0,0,1" for p in primes]
    return "\n".join(lines) + "\n"


def test_level_oracle_accepts_consistent_output():
    primes = oracles.sturm_primes(71)
    assert oracles.check_level(71, primes, _level_71_text(primes), [3, 3], 18) == []


def test_level_oracle_rejects_a_wrong_l_plus():
    primes = oracles.sturm_primes(71)
    assert oracles.check_level(71, primes, _level_71_text(primes), [3, 3], 9)


def test_level_oracle_rejects_wrong_degrees_and_non_monic_charpolys():
    primes = oracles.sturm_primes(71)
    text = _level_71_text(primes)
    assert oracles.check_level(71, primes, text, [3, 2], 18)
    assert oracles.check_level(71, primes, text.replace("1,0,0,1", "1,0,0,2", 1), [3, 3], 18)


def test_new_subspace_dimension_formula():
    # 2 * genus for prime levels; level 11 has one newform, level 22 none.
    assert oracles.new_subspace_dimension(11) == 2
    assert oracles.new_subspace_dimension(22) == 0
    assert oracles.new_subspace_dimension(71) == 2 * oracles.genus_x0(71) == 12


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 3)
        assert a == workloads.make_inputs(workload, 3)
    pairs = workloads.make_inputs("congpoly", 3)
    assert len(pairs) >= 200
    assert all(not set(p["p_roots"]) & set(p["q_roots"]) for p in pairs)


class _Clock:
    """Advances 10 ns per reading, so span times are exact."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 10
        return self.t


def test_self_time_subtracts_child_spans():
    tracer = Tracer(clock=_Clock())
    leaf = tracer.wrap(lambda: None, "leaf")
    outer = tracer.wrap(lambda: (leaf(), leaf()), "outer")
    outer()
    rows = tracer.summary()
    # outer: start 10, leaves 20-30 and 40-50, end 60.
    assert rows["leaf"]["calls"] == 2
    assert rows["leaf"]["s"] == rows["leaf"]["self_s"] == 20e-9
    assert rows["outer"]["s"] == 50e-9
    assert abs(rows["outer"]["self_s"] - 30e-9) < 1e-18


def test_recursive_spans_are_counted_once():
    tracer = Tracer(clock=_Clock())

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer.wrap(fact, "fact")
    assert traced(3) == 6
    rows = tracer.summary()
    assert rows["fact"]["calls"] == 4
    assert rows["fact"]["s"] == 70e-9  # outermost span only


def _toy_package():
    pkg = types.ModuleType("toypkg")
    core = types.ModuleType("toypkg.core")
    user = types.ModuleType("toypkg.user")

    def square(x):
        return x * x

    class Space:
        def matrix(self, p):
            return p

    core.square, core.Space = square, Space
    user.square = square  # as `from .core import square` would bind it
    user.twice = lambda x: 2 * user.square(x)
    return {"toypkg": pkg, "toypkg.core": core, "toypkg.user": user}


def test_every_binding_is_wrapped_and_missing_targets_are_absent(monkeypatch):
    mods = _toy_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer()
    tracer.install(
        "toypkg",
        {
            "core.square": Probe(distinct=True, work=lambda args: args[0]),
            "core.Space.matrix": Probe(),
            "core.deleted_helper": Probe(),
            "gone.function": Probe(),
        },
    )
    assert tracer.absent == ["core.deleted_helper", "gone.function"]
    assert mods["toypkg.user"].twice(3) == 18
    mods["toypkg.core"].square(3)
    mods["toypkg.core"].Space().matrix(5)
    rows = tracer.summary()
    assert rows["core.square"]["calls"] == 2
    assert rows["core.square"]["distinct"] == 1
    assert rows["core.square"]["work"] == 6
    assert rows["core.Space.matrix"]["calls"] == 1
    tracer.uninstall()
    assert mods["toypkg.user"].square is mods["toypkg.core"].square
    assert not hasattr(mods["toypkg.user"].square, "__wrapped__")


def test_absent_function_reports_zero_and_is_counted():
    layers = {"linalg.rref": {"s": 1.0, "self_s": 1.0, "calls": 2, "distinct": 0,
                              "work": 0, "outcomes": 0}}
    absent = ["linalg.apply_poly"]
    assert run.layer_value("linalg.apply_poly.calls", layers, absent) == 0
    assert run.layer_value("bench.absent_functions", layers, absent) == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced_functions = {name.rsplit(".", 1)[0] for name in run.PER_LAYER}
    assert traced_functions - set(workloads.TRACED) == {"cli.main", "bench"}


def test_a_deleted_package_function_is_absent_not_fatal(monkeypatch):
    import worker

    worker.Congruon()
    monkeypatch.delattr(sys.modules["congruon.linalg"], "apply_poly")
    tracer = Tracer()
    tracer.install("congruon", workloads.TRACED)
    try:
        assert tracer.absent == ["linalg.apply_poly"]
    finally:
        tracer.uninstall()
