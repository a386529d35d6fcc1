import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import congruon.cli
import congruon.congruence
import congruon.modsym
import congruon.pipeline
from congruon import CongruonError
from congruon.cli import main
from congruon.hecke_io import export_class
from congruon.modsym import newform_classes


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args, **kw):
    """Invoke the CLI through click's test runner, which drives `main.main`
    as it would a click command; every non-zero exit must be a refusal:
    exactly one `error: ` line on stderr, usage errors included, and no
    traceback."""
    r = runner.invoke(main, args, **kw)
    if r.exit_code:
        errors = [l for l in r.stderr.splitlines() if l.startswith("error: ")]
        assert len(errors) == 1, r.output
        assert isinstance(r.exception, SystemExit), r.exception
        assert "Traceback" not in r.output
    return r


# --- the error contract -------------------------------------------------------


def _documented_exit_codes():
    """{error class name: exit code} from the exit-code table in README.md."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    codes = {}
    for row in table.splitlines():
        cells = row.split("|")
        if len(cells) > 2 and cells[1].strip().isdigit():
            for name in re.findall(r"`(\w+Error)`", cells[2]):
                codes[name] = int(cells[1])
    return codes


def _error_classes(root=CongruonError):
    classes = [root]
    for sub in root.__subclasses__():
        classes += [c for c in _error_classes(sub) if c not in classes]
    return classes


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_exit_code_matches_readme_table(cls):
    assert cls.exit_code == _documented_exit_codes()[cls.__name__]


def test_readme_table_names_only_error_classes():
    assert set(_documented_exit_codes()) == {c.__name__ for c in _error_classes()}


# --- congpoly ----------------------------------------------------------------


def test_congpoly_basic(runner):
    r = _run(runner, ["congpoly", "12,1", "-60,1"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0] == "c=72 r=1 s=-1"


def test_congpoly_with_ell(runner):
    r = _run(runner, ["congpoly", "12,1", "-60,1", "--ell", "3"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0] == "c=72 r=1 s=-1"
    assert lines[1].startswith("ell=3 n=2 ")
    r2 = _run(runner, ["congpoly", "12,1", "60,1", "--all-ell"])
    assert r2.exit_code == 0
    assert r2.output.splitlines()[0] == "c=48 r=-1 s=1"
    ells = [line.split()[0] for line in r2.output.splitlines()[1:]]
    assert ells == ["ell=2", "ell=3"]


def test_congpoly_ell_and_all_ell_are_alternatives(runner):
    r = _run(runner, ["congpoly", "12,1", "-60,1", "--ell", "7", "--all-ell"])
    assert r.exit_code == 2
    assert r.stderr == "error: --ell and --all-ell are alternatives; pass one\n"
    assert r.stdout == ""


def test_congpoly_pretty(runner):
    r = _run(runner, ["congpoly", "12,1", "-60,1", "--pretty"])
    assert r.exit_code == 0


@pytest.mark.parametrize(
    "args, line",
    [
        (["1", "0,1"], "c=1 r=1 s=0"),
        (["0,1", "1"], "c=1 r=0 s=1"),
        (["1", "1,1"], "c=1 r=1 s=0"),
        (["1", "1"], "c=1 r=1 s=0"),
    ],
)
@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["plain", "pretty"])
def test_congpoly_zero_cofactor_prints_0(runner, args, line, pretty):
    """A constant input makes a cofactor 0, printed as 0 in both modes."""
    r = _run(runner, ["congpoly", *args, *pretty])
    assert r.exit_code == 0
    assert r.output == line + "\n"


def test_congpoly_parse_error(runner):
    assert _run(runner, ["congpoly", "12,1"]).exit_code == 2
    assert _run(runner, ["congpoly", "12,1", "x,1"]).exit_code == 2
    assert _run(runner, ["congpoly", "12,1", "-60,1", "--bogus"]).exit_code == 2
    assert _run(runner, ["congpoly", "12,1", "-60,1", "--ell", "4"]).exit_code == 2
    assert _run(runner, ["congpoly", "0", "1,1"]).exit_code == 2


def test_congpoly_not_coprime(runner):
    r = _run(runner, ["congpoly", "1,1", "1,2,1"])
    assert r.exit_code == 3


def test_congpoly_rejects_non_monic(runner):
    # Roots -7/2 and -7 differ by 7/2, so the true exponent at 3 is 0; the
    # solver assumes monic input and must refuse rather than print n=1.
    r = _run(runner, ["congpoly", "21,6", "21,3", "--all-ell"])
    assert r.exit_code == 5
    assert "ell=" not in r.output


@pytest.mark.parametrize(
    "p, q, np_lines",
    [("-29,1", "231,32,1", 2), ("1,2,1", "-18304,-752,732,-52,1", 0)],
)
def test_congpoly_computes_each_fact_once(runner, monkeypatch, p, q, np_lines):
    """However many residue primes an --all-ell run reads, it solves one
    congruence-number system per distinct input and builds at most one F(Y)."""
    solve_inputs, diff_inputs = [], []
    rref = congruon.congruence.rref
    diff = congruon.congruence.difference_root_poly

    def counted_rref(rows):
        solve_inputs.append(tuple(map(tuple, rows)))
        return rref(rows)

    def counted_diff(a, b):
        diff_inputs.append((a, b))
        return diff(a, b)

    monkeypatch.setattr(congruon.congruence, "rref", counted_rref)
    monkeypatch.setattr(congruon.congruence, "difference_root_poly", counted_diff)
    r = _run(runner, ["congpoly", p, q, "--all-ell"])
    assert r.exit_code == 0
    assert r.output.count("method=np") == np_lines
    assert solve_inputs and len(solve_inputs) == len(set(solve_inputs))
    assert len(diff_inputs) <= 1


def test_congpoly_entry_point():
    # the child imports the same congruon as this process
    src = str(Path(congruon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "congruon.cli", "congpoly", "12,1", "-60,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "c=72 r=1 s=-1"


def test_importing_the_cli_loads_no_click():
    src = str(Path(congruon.__file__).parents[1])
    code = "import sys, congruon, congruon.cli; print('click' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_importing_the_cli_loads_no_fractions_or_decimal():
    src = str(Path(congruon.__file__).parents[1])
    code = (
        "import sys, congruon.cli; "
        "print('fractions' in sys.modules, 'decimal' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False\n"


# --- the parse contract -------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["congpoly", "-60,x", "12,1"], id="bad-negative-list-first"),
        pytest.param(["congpoly", "12,1", "-6o,1"], id="bad-negative-list-second"),
        pytest.param(["congpoly", "--pretty", "-60,1"], id="one-list-after-option"),
        pytest.param(["congpoly", "12,1", "-60,1", "--ell"], id="missing-value"),
        pytest.param(["charpoly", "--level"], id="missing-level-value"),
        pytest.param(["charpoly", "--level", "x"], id="not-an-integer"),
        pytest.param(["charpoly"], id="missing-required-option"),
        pytest.param(["charpoly", "--level", "11", "extra"], id="unexpected-argument"),
        pytest.param(["congpoly", "12,1", "-60,1", "--pretty=1"], id="flag-with-value"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["charpoly", "--level", "11", "--bogus"], id="unknown-option"),
        pytest.param(["charpoly", "--level", "0"], id="level-0"),
        pytest.param(["eisenstein", "--level", "11", "--cutoff", "1"], id="cutoff-1"),
        pytest.param(["compact", "--store", "{tmp}"], id="store-directory"),
        pytest.param(["compact", "--store", "{tmp}/missing.txt"], id="store-missing"),
        pytest.param([], id="bare"),
        pytest.param(["congforms", "--f", "{bad}#a", "--g", "{ok}#a"], id="f-not-utf8"),
        pytest.param(["congforms", "--f", "{ok}#a", "--g", "{bad}#a"], id="g-not-utf8"),
        pytest.param(["levelraise", "--f", "{bad}#a", "--p", "3", "--ell", "5"],
                     id="levelraise-f-not-utf8"),
        pytest.param(["compact", "--store", "{bad}"], id="store-not-utf8"),
    ],
)
def test_usage_error_is_one_error_line(runner, tmp_path, args):
    """Usage errors are refusals like any other: exit 2, one `error: ` line
    on stderr, no usage block, nothing on stdout. A dataset or store that is
    not UTF-8 is one too, and is left as it was."""
    form = b"FORM id=a level=11 weight=2 degree=1\nCP id=a p=2 coeffs=2,1\n"
    bad, ok = tmp_path / "bad.txt", tmp_path / "ok.txt"
    bad.write_bytes(b"\xff\xfe" + form)
    ok.write_bytes(form)
    r = _run(runner, [a.format(tmp=tmp_path, bad=bad, ok=ok) for a in args])
    assert r.exit_code == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["-60,1", "12,1"],
        ["--pretty", "-60,1", "12,1"],
        ["12,1", "--ell", "3", "-60,1"],
        ["--ell=3", "--", "-60,1", "12,1"],
    ],
)
def test_congpoly_negative_list_in_any_position(runner, args):
    r = _run(runner, ["congpoly", *args])
    assert r.exit_code == 0
    assert r.output.startswith("c=72 ")


def test_option_equals_value_and_double_dash(runner):
    want = _run(runner, ["charpoly", "--level", "11", "--p", "2", "--p", "3"]).output
    assert _run(runner, ["charpoly", "--level=11", "--p=2", "--p", "3"]).output == want
    assert _run(runner, ["charpoly", "--level=11", "--p=2", "--p=3", "--"]).output == want


def test_main_returns_the_exit_status_when_not_standalone(capsys):
    """`main.main(args=..., standalone_mode=False)`, as the benchmark calls
    it, returns the status instead of raising SystemExit."""
    run = main.main
    assert run(args=["congpoly", "12,1", "-60,1"], standalone_mode=False) == 0
    assert capsys.readouterr().out == "c=72 r=1 s=-1\n"
    assert run(args=["congpoly", "1,1", "1,2,1"], standalone_mode=False) == 3
    assert run(args=["charpoly", "--level", "0"], standalone_mode=False) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not coprime") and "error: --level" in err


# --- charpoly ----------------------------------------------------------------


def test_charpoly_level_11(runner):
    r = _run(runner, ["charpoly", "--level", "11", "--p", "2", "--p", "3"])
    assert r.exit_code == 0
    assert "FORM id=11.2.a level=11 weight=2 degree=1" in r.output
    assert "CP id=11.2.a p=2 coeffs=2,1" in r.output
    assert "CP id=11.2.a p=3 coeffs=1,1" in r.output


def test_charpoly_level_71_two_forms(runner):
    r = _run(runner, ["charpoly", "--level", "71", "--p", "2"])
    assert r.exit_code == 0
    assert r.output.count("FORM ") == 2
    r2 = _run(runner, ["charpoly", "--level", "71", "--p", "2", "--class", "71.2.a"])
    assert r2.output.count("FORM ") == 1


def test_charpoly_unknown_class(runner):
    r = _run(runner, ["charpoly", "--level", "37", "--p", "2", "--class", "nope"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert "error: no class with id 'nope' at level 37" in r.stderr


def test_charpoly_cap(runner):
    assert _run(runner, ["charpoly", "--level", "301", "--p", "2"]).exit_code == 4
    r = _run(runner, ["charpoly", "--level", "301", "--p", "2", "--cap", "301"])
    assert r.exit_code == 0
    r = _run(runner, ["charpoly", "--level", "602", "--p", "2", "--cap", "602"])
    assert r.exit_code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["charpoly", "--level", "23", "--p", "2"],
        ["eisenstein", "--level", "23"],
        ["charpoly", "--level", "37"],
    ],
)
def test_factorization_cap_exit_code(runner, args):
    # a split that needs a factorization above the cap refuses; no unsplit
    # piece is printed as a class
    r = _run(runner, args, env={"CONGRUON_FACTOR_CAP": "1"})
    assert r.exit_code == 4
    assert "factorization cap exceeded" in r.output
    assert "FORM" not in r.stdout


@pytest.mark.parametrize("command", ["charpoly", "eisenstein"])
def test_class_separation_cap_exit_code(runner, monkeypatch, command):
    # T_2, the only splitting prime up to 2, leaves a dimension-2 piece at
    # the prime level 113 unseparated
    monkeypatch.setattr(congruon.modsym, "MAX_SPLIT_PRIME", 2)
    r = _run(runner, [command, "--level", "113"])
    assert r.exit_code == 4
    assert "class separation failed" in r.output


def test_charpoly_bad_prime(runner):
    assert _run(runner, ["charpoly", "--level", "11", "--p", "4"]).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        pytest.param([command, "--level", level], id=f"{level}-{command}")
        for level in ("0", "-5")
        for command in ("charpoly", "eisenstein")
    ]
    + [
        pytest.param([*command, "--cutoff", cutoff], id=f"cutoff{cutoff}-{command[0]}")
        for cutoff in ("1", "-3")
        for command in (
            ["eisenstein", "--level", "11"],
            ["congforms", "--f", "d.txt#f", "--g", "d.txt#g"],
        )
    ]
    + [
        pytest.param([command, "--level", "11", "--cap", cap], id=f"cap{cap}-{command}")
        for cap in ("0", "-5")
        for command in ("charpoly", "eisenstein")
    ],
)
def test_level_below_one_is_a_usage_error(runner, args):
    """So is a --cutoff below 2 on eisenstein and congforms, and a --cap
    below 1 on charpoly and eisenstein."""
    r = _run(runner, args)
    assert r.exit_code == 2
    assert args[-2] in r.stderr


def test_factor_cap_not_an_integer(runner):
    r = _run(runner, ["charpoly", "--level", "11"], env={"CONGRUON_FACTOR_CAP": "abc"})
    assert r.exit_code == 2
    assert "error: CONGRUON_FACTOR_CAP must be an integer" in r.stderr


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_factor_cap_below_one(runner, cap):
    r = _run(runner, ["charpoly", "--level", "23"], env={"CONGRUON_FACTOR_CAP": cap})
    assert r.exit_code == 2
    assert r.stderr == f"error: CONGRUON_FACTOR_CAP must be at least 1, got {cap}\n"
    assert r.stdout == ""


# --- congforms ---------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset71(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "71.txt"
    classes = newform_classes(71)
    text = "".join(export_class(c, [2, 3, 5, 7, 11]) for c in classes)
    path.write_text(text)
    return str(path)


def test_congforms_table_row(runner, dataset71, tmp_path):
    store = tmp_path / "store.txt"
    r = _run(
        runner,
        [
            "congforms",
            "--f",
            f"{dataset71}#71.2.a",
            "--g",
            f"{dataset71}#71.2.b",
            "--store",
            str(store),
        ],
    )
    assert r.exit_code == 0
    assert (
        "RESULT f=71.2.a g=71.2.b Lminus=18 Lplus=18 sturm=11/1 hyp314=1 skipTl=0"
        in r.output
    )
    assert "shared=7" in r.output
    stored = store.read_text()
    assert "RESULT f=71.2.a g=71.2.b Lminus=18 Lplus=18" in stored


def test_congforms_self_compare(runner, dataset71):
    r = _run(
        runner,
        ["congforms", "--f", f"{dataset71}#71.2.a", "--g", f"{dataset71}#71.2.a"],
    )
    assert r.exit_code == 3


def test_congforms_missing_form(runner, dataset71):
    r = _run(
        runner,
        ["congforms", "--f", f"{dataset71}#nope", "--g", f"{dataset71}#71.2.a"],
    )
    assert r.exit_code == 2
    assert r.stderr == "error: no form with id 'nope'\n"
    r2 = _run(runner, ["congforms", "--f", dataset71, "--g", f"{dataset71}#71.2.a"])
    assert r2.exit_code == 2


def test_congforms_missing_charpoly(runner, tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(
        "FORM id=f level=11 weight=2 degree=1\nCP id=f p=2 coeffs=2,1\n"
        "FORM id=g level=11 weight=2 degree=1\nCP id=g p=2 coeffs=1,1\n"
    )
    r = _run(
        runner, ["congforms", "--f", f"{path}#f", "--g", f"{path}#g", "--cutoff", "3"]
    )
    assert r.exit_code == 5
    assert r.stderr == "error: charpoly for p=3 not available on class f\n"


def test_congforms_cutoff_sieves_no_sturm_primes(runner, tmp_path, monkeypatch):
    """With --cutoff the Sturm bound is printed but its primes are never
    listed: at the prime level 100000007 (B = 16666667) the comparison asks
    primes_upto for the primes up to the cutoff 3 and nothing more."""
    path = tmp_path / "d.txt"
    path.write_text(
        "".join(
            f"FORM id={i} level=100000007 weight=2 degree=1\n"
            f"CP id={i} p=2 coeffs={a2},1\nCP id={i} p=3 coeffs={a3},1\n"
            for i, a2, a3 in (("f", 2, 1), ("g", -1, 3))
        )
    )
    bounds, primes_upto = [], congruon.pipeline.primes_upto

    def recorded(bound):
        bounds.append(bound)
        return primes_upto(bound)

    monkeypatch.setattr(congruon.pipeline, "primes_upto", recorded)
    r = _run(
        runner, ["congforms", "--f", f"{path}#f", "--g", f"{path}#g", "--cutoff", "3"]
    )
    assert r.exit_code == 0
    assert bounds and max(bounds) <= 3
    assert r.output.splitlines() == [
        "# cmp f=f g=g opts=1f2bc9e382d1",
        "RESULT f=f g=g Lminus=6 Lplus=6 sturm=16666667/1 hyp314=1 skipTl=0",
        "DETAIL f=f g=g p=2 c=3 d=3 method=cn",
        "DETAIL f=f g=g p=3 c=2 d=2 method=cn",
    ]


@pytest.mark.parametrize(
    "level, held, flags, missing",
    [
        (1000000007, 2, [], 3),
        (2 * 1000000007, 3, [], 5),
        (2 * 1000000007, 3, ["--include-level-primes"], 5),
    ],
)
def test_congforms_refusal_sieves_no_sturm_primes(
    runner, tmp_path, monkeypatch, level, held, flags, missing
):
    """Classes that hold one charpoly refuse at the first usable prime they
    lack, and the Sturm primes (B is 166666668 at level 1000000007) are
    walked, not listed: primes_upto is asked for no bound above 1,000. With
    --include-level-primes the primes dividing a level still come after the
    others, so at 2 * 1000000007 the message names 5, not 2."""
    path = tmp_path / "d.txt"
    path.write_text(
        "".join(
            f"FORM id={i} level={level} weight=2 degree=1\n"
            f"CP id={i} p={held} coeffs={a},1\n"
            for i, a in (("f", 1), ("g", 2))
        )
    )
    bounds, primes_upto = [], congruon.pipeline.primes_upto

    def recorded(bound):
        bounds.append(bound)
        if bound > 1000:
            raise AssertionError(f"primes_upto({bound}) lists the Sturm primes")
        return primes_upto(bound)

    monkeypatch.setattr(congruon.pipeline, "primes_upto", recorded)
    r = _run(runner, ["congforms", "--f", f"{path}#f", "--g", f"{path}#g", *flags])
    assert r.exit_code == 5
    assert r.stderr == f"error: charpoly for p={missing} not available on class f\n"
    assert max(bounds, default=0) <= 1000


def test_congforms_no_usable_prime(runner, tmp_path):
    """Every prime up to the cutoff divides the level 210 = 2*3*5*7, so no
    charpoly is compared (the classes hold none): a precondition, not a
    "not coprime" refusal."""
    path = tmp_path / "d.txt"
    path.write_text(
        "FORM id=f level=210 weight=2 degree=1\nFORM id=g level=210 weight=2 degree=1\n"
    )
    r = _run(
        runner, ["congforms", "--f", f"{path}#f", "--g", f"{path}#g", "--cutoff", "7"]
    )
    assert r.exit_code == 5
    assert r.stderr == (
        "error: no usable primes: every prime up to the Sturm bound or cutoff "
        "divides a level\n"
    )


@pytest.mark.parametrize(
    "form, coeffs, extra",
    [
        pytest.param("level=0 weight=2 degree=1", "1,1", [], id="level"),
        pytest.param("level=11 weight=0 degree=1", "1,1", ["--assert-irred"], id="weight"),
        pytest.param("level=11 weight=2 degree=0", "1", [], id="degree"),
    ],
)
def test_congforms_dataset_value_below_one(runner, tmp_path, form, coeffs, extra):
    path = tmp_path / "d.txt"
    path.write_text(
        "FORM id=f level=11 weight=2 degree=1\nCP id=f p=2 coeffs=2,1\n"
        f"FORM id=g {form}\nCP id=g p=2 coeffs={coeffs}\n"
    )
    r = _run(runner, ["congforms", "--f", f"{path}#f", "--g", f"{path}#g", *extra])
    assert r.exit_code == 2
    field = next(kv for kv in form.split() if kv.endswith("=0"))
    assert r.stderr == f"error: {field} is below 1 at line 3\n"


def test_congforms_weight_precondition(runner, tmp_path, dataset71):
    other = tmp_path / "w4.txt"
    other.write_text(
        "FORM id=w4 level=71 weight=4 degree=1\nCP id=w4 p=2 coeffs=1,1\n"
    )
    r = _run(
        runner,
        ["congforms", "--f", f"{dataset71}#71.2.a", "--g", f"{other}#w4"],
    )
    assert r.exit_code == 5


def test_congforms_factorization_cap_exit_code(runner, tmp_path):
    # (X - 1)^2 against X^2 - 17 at p = 2, 3: factoring the square needs degree 2
    path = tmp_path / "r.txt"
    path.write_text(
        "".join(
            f"FORM id={i} level=11 weight=2 degree=2\n"
            f"CP id={i} p=2 coeffs={cp}\nCP id={i} p=3 coeffs={cp}\n"
            for i, cp in (("f", "1,-2,1"), ("g", "-17,0,1"))
        )
    )
    r = _run(
        runner,
        ["congforms", "--f", f"{path}#f", "--g", f"{path}#g", "--cutoff", "3"],
        env={"CONGRUON_FACTOR_CAP": "1"},
    )
    assert r.exit_code == 4
    assert "factorization cap exceeded" in r.stderr


def test_compact_command(runner, dataset71, tmp_path):
    store = tmp_path / "store.txt"
    args = [
        "congforms",
        "--f",
        f"{dataset71}#71.2.a",
        "--g",
        f"{dataset71}#71.2.b",
        "--store",
        str(store),
    ]
    assert _run(runner, args).exit_code == 0
    assert _run(runner, args).exit_code == 0
    assert store.read_text().count("RESULT ") == 1
    assert _run(runner, ["compact", "--store", str(store)]).exit_code == 0
    assert store.read_text().count("RESULT ") == 1


@pytest.mark.parametrize("store", ["missing/r.txt", "directory"])
def test_congforms_store_path_refused(runner, dataset71, tmp_path, store):
    """A store that cannot be opened is a usage error, not a traceback."""
    (tmp_path / "directory").mkdir()
    args = ["congforms", "--f", f"{dataset71}#71.2.a", "--g", f"{dataset71}#71.2.b"]
    r = _run(runner, [*args, "--store", str(tmp_path / store)])
    assert r.exit_code == 2
    assert "RESULT f=71.2.a g=71.2.b" in r.stdout


def test_congforms_store_not_utf8_refused(runner, dataset71, tmp_path):
    """A store that is not UTF-8 is refused after the result is printed, and
    is left as it was."""
    store = tmp_path / "store.txt"
    text = b"\xff\xfe# cmp f=71.2.a g=71.2.b opts=x\n"
    store.write_bytes(text)
    args = ["congforms", "--f", f"{dataset71}#71.2.a", "--g", f"{dataset71}#71.2.b"]
    r = _run(runner, [*args, "--store", str(store)])
    assert r.exit_code == 2
    assert r.stderr == f"error: {str(store)!r} is not UTF-8 text (byte 0)\n"
    assert "RESULT f=71.2.a g=71.2.b" in r.stdout
    assert store.read_bytes() == text


def test_congforms_store_reads_a_byte_order_mark(runner, dataset71, tmp_path):
    """A store that starts with a UTF-8 byte-order mark still knows its
    first record: congforms --store adds no second copy of it, and compact
    keeps one."""
    store = tmp_path / "store.txt"
    args = ["congforms", "--f", f"{dataset71}#71.2.a", "--g", f"{dataset71}#71.2.b"]
    args += ["--store", str(store)]
    assert _run(runner, args).exit_code == 0
    text = "\ufeff".encode() + store.read_bytes()
    store.write_bytes(text)
    assert _run(runner, args).exit_code == 0
    assert store.read_bytes() == text
    assert _run(runner, ["compact", "--store", str(store)]).exit_code == 0
    assert store.read_text(encoding="utf-8").count("RESULT ") == 1


def test_compact_refuses_a_directory(runner, tmp_path):
    store = tmp_path / "directory"
    store.mkdir()
    assert _run(runner, ["compact", "--store", str(store)]).exit_code == 2
    assert not (tmp_path / "directory.lock").exists()


# --- eisenstein / levelraise -------------------------------------------------


def test_eisenstein_level_11(runner):
    r = _run(runner, ["eisenstein", "--level", "11", "--cutoff", "13"])
    assert r.exit_code == 0
    assert "EIS id=11.2.a ell=5 n=1 mazur=1" in r.output
    assert _run(runner, ["eisenstein", "--level", "11"]).exit_code == 5


@pytest.mark.parametrize("level", ["1", "12", "15"])
def test_eisenstein_refuses_non_prime_level(runner, monkeypatch, level):
    """Before any space is built, also where the level has no classes."""

    def no_engine(*args, **kwargs):
        raise AssertionError("space built for a non-prime level")

    monkeypatch.setattr(congruon.cli, "newform_classes", no_engine)
    r = _run(runner, ["eisenstein", "--level", level])
    assert r.exit_code == 5
    assert r.stdout == ""
    assert "error: Eisenstein scan needs a prime level" in r.stderr


def test_levelraise_17(runner, tmp_path):
    path = tmp_path / "17.txt"
    (cls,) = newform_classes(17)
    path.write_text(export_class(cls, [2, 3, 5, 59]))
    r = _run(
        runner, ["levelraise", "--f", f"{path}#17.2.a", "--p", "59", "--ell", "3"]
    )
    assert r.exit_code == 0
    assert r.output.strip() == "e-=2 (c=72), e+=1 (c=48)"
    r2 = _run(
        runner, ["levelraise", "--f", f"{path}#17.2.a", "--p", "4", "--ell", "3"]
    )
    assert r2.exit_code == 2


def test_levelraise_reads_a_byte_order_mark(runner, tmp_path):
    """A dataset that starts with a UTF-8 byte-order mark reads as without."""
    r = _run(runner, ["charpoly", "--level", "17", "--p", "2", "--p", "59"])
    assert r.exit_code == 0
    path = tmp_path / "17.txt"
    path.write_text("\ufeff" + r.stdout, encoding="utf-8")
    args = ["levelraise", "--f", f"{path}#17.2.a", "--p", "59", "--ell", "3"]
    r = _run(runner, args)
    assert r.exit_code == 0
    assert r.output.strip() == "e-=2 (c=72), e+=1 (c=48)"


def test_levelraise_not_coprime(runner, tmp_path):
    # P_{f,2} = X - 3 = X - (p + 1) shares its root with the level-raising factor
    path = tmp_path / "f.txt"
    path.write_text("FORM id=f level=11 weight=2 degree=1\nCP id=f p=2 coeffs=-3,1\n")
    r = _run(runner, ["levelraise", "--f", f"{path}#f", "--p", "2", "--ell", "3"])
    assert r.exit_code == 3
    assert "error: not coprime" in r.stderr


def test_help_for_every_subcommand(runner):
    assert _run(runner, ["--help"]).exit_code == 0
    for sub in ("congpoly", "charpoly", "congforms", "eisenstein", "levelraise", "compact"):
        r = _run(runner, [sub, "--help"])
        assert r.exit_code == 0, sub
        assert "Usage" in r.output
