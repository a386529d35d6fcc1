import os
import subprocess
import sys
import threading

import pytest

from congruon.hecke_io import (
    CharPolyDataset,
    ComparisonRecord,
    FormatError,
    PerPrimeDetail,
    ResultsStore,
    export_class,
    options_text,
    parse_dataset,
    result_lines,
)
from congruon.intpoly import IntPoly
from congruon.modsym import NewformClass, newform_classes
from congruon.pipeline import ComparisonOptions, SturmBound


def serialize_dataset(ds):
    """Canonical text of a dataset: each form's FORM line, then its CP lines
    by ascending prime."""
    return "".join(export_class(f, f.charpolys) for f in ds.forms)


SAMPLE = """\
# a comment line
FORM id=11.2.a level=11 weight=2 degree=1
CP id=11.2.a p=2 coeffs=2,1
CP id=11.2.a p=3 coeffs=1,1
FORM id=x.1 level=17 weight=2 degree=1
CP id=x.1 p=59 coeffs=12,1
"""


def test_parse_and_roundtrip():
    ds = parse_dataset(SAMPLE)
    assert [f.id for f in ds.forms] == ["11.2.a", "x.1"]
    form = ds.form("11.2.a")
    assert form.level == 11 and form.degree == 1
    assert form.charpolys[2] == IntPoly([2, 1])
    text = serialize_dataset(ds)
    assert serialize_dataset(parse_dataset(text)) == text  # canonical fixed point


def test_parse_errors_with_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_dataset("FORM id=a level=11 weight=2 degree=1\nCP id=a p=4 coeffs=1,1\n")
    with pytest.raises(FormatError, match="degree mismatch at line 2"):
        parse_dataset(
            "FORM id=a level=11 weight=2 degree=3\nCP id=a p=2 coeffs=1,2,3,4,1\n"
        )
    with pytest.raises(FormatError, match="duplicate id"):
        parse_dataset(
            "FORM id=a level=11 weight=2 degree=1\nFORM id=a level=11 weight=2 degree=1\n"
        )
    with pytest.raises(FormatError, match="monic|degree mismatch"):
        parse_dataset("FORM id=a level=11 weight=2 degree=1\nCP id=a p=2 coeffs=1,2\n")
    with pytest.raises(FormatError, match="strictly increasing"):
        parse_dataset(
            "FORM id=a level=11 weight=2 degree=1\n"
            "CP id=a p=3 coeffs=1,1\nCP id=a p=2 coeffs=1,1\n"
        )
    with pytest.raises(FormatError, match="unknown record"):
        parse_dataset("WAT id=a\n")
    with pytest.raises(FormatError, match="CP before FORM"):
        parse_dataset("CP id=a p=2 coeffs=1,1\n")


def test_export_engine_class_byte_identical():
    (cls,) = newform_classes(11)
    text = export_class(cls, [2, 3, 5])
    assert text == serialize_dataset(parse_dataset(text))
    assert "CP id=11.2.a p=2 coeffs=2,1" in text


def test_export_missing_prime():
    cls = NewformClass(11, 2, 1, charpolys={2: IntPoly([2, 1])}, class_id="a")
    with pytest.raises(KeyError):
        export_class(cls, [2, 3])


def _record(f="f.a", g="g.b", opts="abc123"):
    return ComparisonRecord(
        f_id=f,
        g_id=g,
        l_minus=18,
        l_plus=18,
        sturm=SturmBound(11, 1),
        per_prime=(PerPrimeDetail(2, 9, 9, "cn"), PerPrimeDetail(11, 144, 18, "np")),
        options_text=opts,
    )


def test_record_invariants():
    with pytest.raises(ValueError):
        ComparisonRecord("f", "g", 5, 18, SturmBound(11, 1), ())
    with pytest.raises(ValueError):
        PerPrimeDetail(2, 9, 9, "bogus")


def test_result_lines_format():
    lines = result_lines(_record())
    assert lines[1] == (
        "RESULT f=f.a g=g.b Lminus=18 Lplus=18 sturm=11/1 hyp314=1 skipTl=0"
    )
    assert lines[2] == "DETAIL f=f.a g=g.b p=2 c=9 d=9 method=cn"


def test_store_append_dedup_compact(tmp_path):
    path = tmp_path / "results.txt"
    store = ResultsStore(str(path))
    assert store.append(_record()) is True
    assert store.append(_record()) is False  # identical key -> unchanged
    text1 = store.read_text()
    assert text1.count("RESULT ") == 1
    assert store.append(_record(opts="other")) is True
    assert store.read_text().count("RESULT ") == 2
    # force a duplicate block, then compact
    with open(path, "a") as fh:
        fh.write("\n".join(result_lines(_record())) + "\n")
    assert store.read_text().count("RESULT ") == 3
    store.compact()
    assert store.read_text().count("RESULT ") == 2


def test_store_intact_when_compaction_fails(tmp_path, monkeypatch):
    path = tmp_path / "results.txt"
    store = ResultsStore(str(path))
    store.append(_record())
    with open(path, "a") as fh:
        fh.write("\n".join(result_lines(_record())) + "\n")
    before = path.read_text()

    def crash(src, dst):
        raise OSError("crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="crash"):
        store.compact()
    assert path.read_text() == before
    assert not (tmp_path / "results.txt.compact").exists()
    monkeypatch.undo()
    assert store.append(_record(opts="other")) is True
    store.compact()
    assert store.read_text().count("RESULT ") == 2


@pytest.mark.parametrize("call", ["append", "read_text", "compact"])
def test_store_not_utf8_refused_and_kept(tmp_path, call):
    """A store is read as UTF-8; one that is not is refused with FormatError
    before anything is written."""
    path = tmp_path / "results.txt"
    text = b"\xff\xfe" + "\n".join(result_lines(_record())).encode() + b"\n"
    path.write_bytes(text)
    store = ResultsStore(str(path))
    args = (_record(opts="other"),) if call == "append" else ()
    with pytest.raises(FormatError, match=r"is not UTF-8 text \(byte 0\)"):
        getattr(store, call)(*args)
    assert path.read_bytes() == text
    assert not (tmp_path / "results.txt.compact").exists()


def test_store_reads_a_byte_order_mark(tmp_path):
    """A leading UTF-8 byte-order mark is not part of the first record's
    key, and append writes only at the end, so it adds none."""
    path = tmp_path / "results.txt"
    text = "\ufeff".encode() + "\n".join(result_lines(_record())).encode() + b"\n"
    path.write_bytes(text)
    store = ResultsStore(str(path))
    assert store.read_text() == text.decode("utf-8")[1:]
    assert store.append(_record()) is False
    assert store.append(_record(opts="other")) is True
    added = "\n".join(result_lines(_record(opts="other"))) + "\n"
    assert path.read_bytes() == text + added.encode()
    store.compact()
    assert store.read_text().count("RESULT ") == 2


def test_store_appends_survive_concurrent_compaction(tmp_path):
    # an append that waited on the lock during a compaction must land in the
    # new store file, not in the replaced one
    path = tmp_path / "results.txt"
    store = ResultsStore(str(path))
    records = [_record(f=f"f.{i}") for i in range(32)]
    threads = [threading.Thread(target=store.append, args=(r,)) for r in records]
    threads += [threading.Thread(target=store.compact) for _ in range(16)]
    for t in threads[::2] + threads[1::2]:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    store.compact()
    text = store.read_text()
    assert text.count("RESULT ") == 32
    for i in range(32):
        assert f"RESULT f=f.{i} " in text


def test_store_concurrent_distinct_appends(tmp_path):
    path = tmp_path / "results.txt"
    store = ResultsStore(str(path))
    records = [_record(f=f"f.{i}") for i in range(8)]
    threads = [threading.Thread(target=store.append, args=(r,)) for r in records]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    text = store.read_text()
    assert text.count("RESULT ") == 8
    for i in range(8):
        assert f"RESULT f=f.{i} " in text


def test_options_hash_stability():
    class Opts:
        def __init__(self, a):
            self.a = a

    def key(opts):
        return _record(opts=options_text(opts)).options_hash

    assert key(Opts(1)) == key(Opts(1))
    assert key(Opts(1)) != key(Opts(2))
    assert result_lines(_record(opts=""))[0] == "# cmp f=f.a g=g.b opts="


def test_options_hash_is_pinned(tmp_path):
    """Store keys are pinned, so a store written by an earlier version
    still deduplicates the same comparison."""
    default = _record(opts=options_text(ComparisonOptions()))
    assert default.options_hash == "945b9f8876e0"
    irred = _record(opts=options_text(ComparisonOptions(assert_irreducible=True)))
    assert irred.options_hash == "4e8ac1496742"
    path = tmp_path / "results.txt"
    path.write_text(
        "# cmp f=f.a g=g.b opts=945b9f8876e0\n"
        "RESULT f=f.a g=g.b Lminus=18 Lplus=18 sturm=11/1 hyp314=1 skipTl=0\n"
        "DETAIL f=f.a g=g.b p=2 c=9 d=9 method=cn\n"
        "DETAIL f=f.a g=g.b p=11 c=144 d=18 method=np\n"
    )
    before = path.read_text()
    store = ResultsStore(str(path))
    assert store.append(default) is False
    assert path.read_text() == before == "\n".join(result_lines(default)) + "\n"
    assert store.append(irred) is True


_FOOTPRINT = """
import importlib, pkgutil, sys
import congruon
for mod in pkgutil.iter_modules(congruon.__path__):
    importlib.import_module("congruon." + mod.name)
from congruon.cli import main
from congruon.hecke_io import result_lines
from congruon.modsym import newform_classes
from congruon.pipeline import compare_newforms, eisenstein_scan
main(["congpoly", "12,1", "-60,1", "--all-ell"], standalone_mode=False)
f, g = newform_classes(37)
record = compare_newforms(f, g)
eisenstein_scan(f)
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
assert not loaded, loaded
print(result_lines(record)[0])
assert "hashlib" in sys.modules
"""


def test_compute_path_never_loads_hashlib():
    """hashlib maps OpenSSL's libcrypto (3.6 MB resident); only writing a
    result needs it, so computing and printing must not import it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "# cmp f=37.2.a g=37.2.b opts=945b9f8876e0"


def test_dataset_duplicate_ids_rejected():
    cls = NewformClass(11, 2, 1, charpolys={}, class_id="a")
    with pytest.raises(FormatError):
        CharPolyDataset((cls, cls))
