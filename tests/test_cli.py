import subprocess
import sys

import pytest
from click.testing import CliRunner

import congruon.congruence
from congruon.cli import main
from congruon.hecke_io import export_class
from congruon.modsym import newform_classes


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args, **kw):
    return runner.invoke(main, args, **kw)


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


def test_congpoly_pretty(runner):
    r = _run(runner, ["congpoly", "12,1", "-60,1", "--pretty"])
    assert r.exit_code == 0


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
    """However many residue primes an --all-ell run reads, it computes one
    HNF per distinct Sylvester matrix and at most one F(Y)."""
    hnf_inputs, diff_inputs = [], []
    hnf = congruon.congruence.hnf_with_transform
    diff = congruon.congruence.difference_root_poly

    def counted_hnf(m):
        hnf_inputs.append(m)
        return hnf(m)

    def counted_diff(a, b):
        diff_inputs.append((a, b))
        return diff(a, b)

    monkeypatch.setattr(congruon.congruence, "hnf_with_transform", counted_hnf)
    monkeypatch.setattr(congruon.congruence, "difference_root_poly", counted_diff)
    r = _run(runner, ["congpoly", p, q, "--all-ell"])
    assert r.exit_code == 0
    assert r.output.count("method=np") == np_lines
    assert len(hnf_inputs) == len(set(hnf_inputs))
    assert len(diff_inputs) <= 1


def test_congpoly_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "congruon.cli", "congpoly", "12,1", "-60,1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "c=72 r=1 s=-1"


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


def test_charpoly_cap(runner):
    assert _run(runner, ["charpoly", "--level", "301", "--p", "2"]).exit_code == 4
    r = _run(runner, ["charpoly", "--level", "301", "--p", "2", "--cap", "301"])
    assert r.exit_code == 0


@pytest.mark.parametrize(
    "args", [["charpoly", "--level", "23", "--p", "2"], ["eisenstein", "--level", "23"]]
)
def test_factorization_cap_exit_code(runner, args):
    r = _run(runner, args, env={"CONGRUON_FACTOR_CAP": "1"})
    assert r.exit_code == 4
    assert "factorization cap exceeded" in r.output


def test_charpoly_bad_prime(runner):
    assert _run(runner, ["charpoly", "--level", "11", "--p", "4"]).exit_code == 2


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
    r2 = _run(runner, ["congforms", "--f", dataset71, "--g", f"{dataset71}#71.2.a"])
    assert r2.exit_code == 2


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


# --- eisenstein / levelraise -------------------------------------------------


def test_eisenstein_level_11(runner):
    r = _run(runner, ["eisenstein", "--level", "11", "--cutoff", "13"])
    assert r.exit_code == 0
    assert "EIS id=11.2.a ell=5 n=1 mazur=1" in r.output
    assert _run(runner, ["eisenstein", "--level", "11"]).exit_code == 5


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


def test_help_for_every_subcommand(runner):
    assert _run(runner, ["--help"]).exit_code == 0
    for sub in ("congpoly", "charpoly", "congforms", "eisenstein", "levelraise", "compact"):
        r = _run(runner, [sub, "--help"])
        assert r.exit_code == 0, sub
        assert "Usage" in r.output
