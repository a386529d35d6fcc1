"""Line-oriented text formats for charpoly datasets and comparison results.

Dataset lines ('#' starts a comment):
    FORM id=<token> level=<int> weight=<int> degree=<int>
    CP id=<token> p=<prime> coeffs=<c0>,<c1>,...,<cd>
Results lines:
    # cmp f=<token> g=<token> opts=<hash>[ insufficient-primes][ excluded=<p>,...][ shared=<p>,...]
    RESULT f=<token> g=<token> Lminus=<int> Lplus=<int> sturm=<num>/<den> hyp314=1 skipTl=<0|1>
    DETAIL f=<token> g=<token> p=<prime> c=<int> d=<int> method=<cn|np|oldspace>

The '# cmp' line opens each record. Its <hash> is the first 12 hex digits
of the sha256 of the comparison options' canonical text (`options_text`),
empty for a record built without options. The results store is append-only
under an advisory lock, deduplicated by the (f, g, opts) of these lines; a
compaction pass rewrites it without duplicates into a temporary file that
atomically replaces the store.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import re
from dataclasses import dataclass

from .arith import CongruonError, is_prime
from .intpoly import IntPoly
from .modsym import NewformClass

_TOKEN = re.compile(r"^[A-Za-z0-9._-]+$")


class FormatError(CongruonError, ValueError):
    """Malformed dataset or results text."""


def read_utf8(fh):
    """All the text of fh, a file opened with encoding="utf-8", without a
    leading byte-order mark; bytes that are not UTF-8 raise FormatError."""
    try:
        return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise FormatError(f"{fh.name!r} is not UTF-8 text (byte {e.start})") from None


@dataclass(frozen=True)
class CharPolyDataset:
    """A collection of newform classes with their T_p charpolys."""

    forms: tuple

    def __post_init__(self):
        ids = [f.id for f in self.forms]
        if len(set(ids)) != len(ids):
            raise FormatError("duplicate form ids")

    def form(self, form_id):
        for f in self.forms:
            if f.id == form_id:
                return f
        raise KeyError(f"no form with id {form_id!r}")


@dataclass(frozen=True)
class PerPrimeDetail:
    """One per-prime entry of a comparison: congruence number, exponent
    product over the relevant residue primes, and the method used."""

    p: int
    c: int
    d: int
    method: str

    def __post_init__(self):
        if self.method not in ("cn", "np", "oldspace"):
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class ComparisonRecord:
    """Output of one newform comparison: bounds, details, and caveats."""

    f_id: str
    g_id: str
    l_minus: int
    l_plus: int
    sturm: object  # a pipeline.SturmBound
    per_prime: tuple
    skipped_t_ell: bool = False
    excluded_primes: tuple = ()
    shared_charpoly_primes: tuple = ()
    options_text: str = ""

    def __post_init__(self):
        if self.l_plus % self.l_minus != 0:
            raise ValueError("L- must divide L+")

    @property
    def insufficient_primes(self):
        """True when no prime is at most the Sturm bound."""
        return not self.sturm.primes

    @property
    def options_hash(self):
        """12 hex digits of the sha256 of `options_text`; '' without options."""
        if not self.options_text:
            return ""
        import hashlib  # here, not at the top: it maps OpenSSL, 3.6 MB resident

        return hashlib.sha256(self.options_text.encode()).hexdigest()[:12]


def _check_token(tok, lineno):
    if not _TOKEN.match(tok):
        raise FormatError(f"bad token {tok!r} at line {lineno}")


def _fields(line, lineno, expected_keys):
    parts = line.split()
    tag = parts[0]
    out = {}
    for part in parts[1:]:
        if "=" not in part:
            raise FormatError(f"malformed field {part!r} at line {lineno}")
        k, v = part.split("=", 1)
        out[k] = v
    if list(out) != list(expected_keys):
        raise FormatError(
            f"{tag} line expects fields {' '.join(expected_keys)} at line {lineno}"
        )
    return out


def parse_dataset(text):
    """Parse FORM/CP lines into a validated CharPolyDataset."""
    forms = {}
    last_p = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("FORM "):
            f = _fields(line, lineno, ["id", "level", "weight", "degree"])
            _check_token(f["id"], lineno)
            if f["id"] in forms:
                raise FormatError(f"duplicate id {f['id']!r} at line {lineno}")
            try:
                nums = {k: int(f[k]) for k in ("level", "weight", "degree")}
            except ValueError as e:
                raise FormatError(f"bad integer at line {lineno}") from e
            for k, v in nums.items():
                if v < 1:
                    raise FormatError(f"{k}={v} is below 1 at line {lineno}")
            forms[f["id"]] = NewformClass(**nums, class_id=f["id"])
        elif line.startswith("CP "):
            f = _fields(line, lineno, ["id", "p", "coeffs"])
            if f["id"] not in forms:
                raise FormatError(f"CP before FORM for id {f['id']!r} at line {lineno}")
            try:
                p = int(f["p"])
                coeffs = [int(c) for c in f["coeffs"].split(",")]
            except ValueError as e:
                raise FormatError(f"bad integer at line {lineno}") from e
            if not is_prime(p):
                raise FormatError(f"p={p} is not prime at line {lineno}")
            form = forms[f["id"]]
            if p <= last_p.get(f["id"], 0):
                raise FormatError(f"primes not strictly increasing at line {lineno}")
            last_p[f["id"]] = p
            poly = IntPoly(coeffs)
            if len(coeffs) != form.degree + 1 or coeffs[-1] != 1:
                raise FormatError(f"degree mismatch at line {lineno}")
            form.charpolys[p] = poly
        else:
            raise FormatError(f"unknown record {line.split()[0]!r} at line {lineno}")
    return CharPolyDataset(tuple(forms.values()))


def _form_lines(form, charpolys):
    """The FORM line of a class, then a CP line per prime of charpolys."""
    yield (
        f"FORM id={form.id} level={form.level} "
        f"weight={form.weight} degree={form.degree}"
    )
    for p in sorted(charpolys):
        coeffs = ",".join(str(c) for c in charpolys[p].coeffs)
        yield f"CP id={form.id} p={p} coeffs={coeffs}"


def serialize_dataset(dataset):
    """Canonical text for a dataset: FORM line then sorted CP lines per form."""
    lines = [line for form in dataset.forms for line in _form_lines(form, form.charpolys)]
    return "\n".join(lines) + "\n" if lines else ""


def export_class(cls, primes):
    """Canonical dataset text for one class at the given primes."""
    if cls.id is None:
        raise ValueError("class has no id")
    table = {p: cls.class_charpoly(p) for p in sorted(set(primes))}
    return "\n".join(_form_lines(cls, table)) + "\n"


def result_lines(record):
    """RESULT/DETAIL (+ context comment) lines for one comparison record."""
    lines = [
        f"# cmp f={record.f_id} g={record.g_id} opts={record.options_hash}"
        + (" insufficient-primes" if record.insufficient_primes else "")
        + (
            f" excluded={','.join(map(str, record.excluded_primes))}"
            if record.excluded_primes
            else ""
        )
        + (
            f" shared={','.join(map(str, record.shared_charpoly_primes))}"
            if record.shared_charpoly_primes
            else ""
        )
    ]
    lines.append(
        f"RESULT f={record.f_id} g={record.g_id} "
        f"Lminus={record.l_minus} Lplus={record.l_plus} "
        f"sturm={record.sturm.num}/{record.sturm.den} "
        "hyp314=1 "
        f"skipTl={int(record.skipped_t_ell)}"
    )
    for det in record.per_prime:
        lines.append(
            f"DETAIL f={record.f_id} g={record.g_id} "
            f"p={det.p} c={det.c} d={det.d} method={det.method}"
        )
    return lines


def options_text(options):
    """Canonical text of a comparison options object, hashed by
    `ComparisonRecord.options_hash`."""
    return repr(sorted(vars(options).items()))


class ResultsStore:
    """Append-only results file with advisory locking and deduplication.

    The lock is taken on the sidecar file `<path>.lock`, not on the store,
    so it still serializes writers after a compaction replaced the store.
    """

    def __init__(self, path):
        self.path = path

    @contextlib.contextmanager
    def _locked(self, operation):
        with open(self.path + ".lock", "a") as lock:
            fcntl.flock(lock, operation)
            yield  # closing the lock file releases the lock

    @staticmethod
    def _key(line):
        """(f, g, options hash) of a record's '# cmp' line, else None."""
        if not line.startswith("# cmp "):
            return None
        fields = dict(part.split("=", 1) for part in line.split()[2:] if "=" in part)
        return fields.get("f"), fields.get("g"), fields.get("opts")

    def append(self, record):
        """Append a record unless an identical (f, g, options) one exists."""
        with self._locked(fcntl.LOCK_EX), open(self.path, "a+", encoding="utf-8") as fh:
            fh.seek(0)
            existing = read_utf8(fh)
            key = (record.f_id, record.g_id, record.options_hash)
            if key in map(self._key, existing.splitlines()):
                return False
            fh.write("\n".join(result_lines(record)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            return True

    def read_text(self):
        if not os.path.exists(self.path):
            return ""
        with self._locked(fcntl.LOCK_SH), open(self.path, encoding="utf-8") as fh:
            return read_utf8(fh)

    def compact(self):
        """Rewrite the store keeping the first copy of each record block.

        The result is written and fsynced to `<path>.compact`, then renamed
        over the store, so a crash at any point leaves a complete store.
        """
        tmp = self.path + ".compact"
        with self._locked(fcntl.LOCK_EX):
            with open(self.path, "a+", encoding="utf-8") as fh:
                fh.seek(0)
                lines = read_utf8(fh).splitlines()
            seen = set()
            out = []
            keep = True
            for line in lines:
                key = self._key(line)
                if key is not None:
                    keep = key not in seen
                    seen.add(key)
                if keep:
                    out.append(line)
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(out) + ("\n" if out else ""))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)
