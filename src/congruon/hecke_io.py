"""Line-oriented text formats for charpoly datasets and comparison results.

Dataset lines ('#' starts a comment):
    FORM id=<token> level=<int> weight=<int> degree=<int>
    CP id=<token> p=<prime> coeffs=<c0>,<c1>,...,<cd>
Results lines:
    RESULT f=<token> g=<token> Lminus=<int> Lplus=<int> sturm=<num>/<den> hyp314=<0|1> skipTl=<0|1>
    DETAIL f=<token> g=<token> p=<prime> c=<int> d=<int> method=<cn|np|oldspace>

The results store is append-only under an advisory lock, deduplicated by
(f, g, options hash); a compaction pass rewrites it without duplicates.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .intpoly import IntPoly
from .modsym import NewformClass

_TOKEN = re.compile(r"^[A-Za-z0-9._-]+$")


class FormatError(ValueError):
    """Malformed dataset or results text."""


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
    sturm: Fraction
    per_prime: tuple
    hypothesis_3_14_conditional: bool = True
    skipped_t_ell: bool = False
    insufficient_primes: bool = False
    excluded_primes: tuple = ()
    shared_charpoly_primes: tuple = ()
    options_hash: str = ""

    def __post_init__(self):
        if self.l_plus % self.l_minus != 0:
            raise ValueError("L- must divide L+")


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
    order = []
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
                level, weight, degree = int(f["level"]), int(f["weight"]), int(f["degree"])
            except ValueError as e:
                raise FormatError(f"bad integer at line {lineno}") from e
            forms[f["id"]] = NewformClass(level, weight, degree, class_id=f["id"])
            order.append(f["id"])
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
    return CharPolyDataset(tuple(forms[i] for i in order))


def serialize_dataset(dataset):
    """Canonical text for a dataset: FORM line then sorted CP lines per form."""
    lines = []
    for form in dataset.forms:
        lines.append(
            f"FORM id={form.id} level={form.level} "
            f"weight={form.weight} degree={form.degree}"
        )
        for p in sorted(form.charpolys):
            coeffs = ",".join(str(c) for c in form.charpolys[p].coeffs)
            lines.append(f"CP id={form.id} p={p} coeffs={coeffs}")
    return "\n".join(lines) + "\n" if lines else ""


def export_class(cls, primes):
    """Canonical dataset text for one class at the given primes."""
    if cls.id is None:
        raise ValueError("class has no id")
    table = {}
    for p in sorted(set(primes)):
        table[p] = cls.class_charpoly(p)
    snapshot = NewformClass(
        cls.level, cls.weight, cls.degree, charpolys=table, class_id=cls.id
    )
    return serialize_dataset(CharPolyDataset((snapshot,)))


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
        f"sturm={record.sturm.numerator}/{record.sturm.denominator} "
        f"hyp314={int(record.hypothesis_3_14_conditional)} "
        f"skipTl={int(record.skipped_t_ell)}"
    )
    for det in record.per_prime:
        lines.append(
            f"DETAIL f={record.f_id} g={record.g_id} "
            f"p={det.p} c={det.c} d={det.d} method={det.method}"
        )
    return lines


def options_hash(options):
    """Stable short hash of a comparison options object."""
    text = repr(sorted(vars(options).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class ResultsStore:
    """Append-only results file with advisory locking and deduplication."""

    def __init__(self, path):
        self.path = path

    def _dedup_keys(self, text):
        keys = set()
        for line in text.splitlines():
            if line.startswith("# cmp "):
                fields = dict(
                    part.split("=", 1) for part in line.split()[2:] if "=" in part
                )
                keys.add((fields.get("f"), fields.get("g"), fields.get("opts")))
        return keys

    def append(self, record):
        """Append a record unless an identical (f, g, options) one exists."""
        with open(self.path, "a+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.seek(0)
                existing = fh.read()
                key = (record.f_id, record.g_id, record.options_hash)
                if key in self._dedup_keys(existing):
                    return False
                fh.write("\n".join(result_lines(record)) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                return True
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def read_text(self):
        if not os.path.exists(self.path):
            return ""
        with open(self.path) as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            try:
                return fh.read()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def compact(self):
        """Rewrite the store keeping the first copy of each record block."""
        with open(self.path, "a+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.seek(0)
                lines = fh.read().splitlines()
                seen = set()
                out = []
                keep = True
                for line in lines:
                    if line.startswith("# cmp "):
                        fields = dict(
                            part.split("=", 1)
                            for part in line.split()[2:]
                            if "=" in part
                        )
                        key = (fields.get("f"), fields.get("g"), fields.get("opts"))
                        keep = key not in seen
                        seen.add(key)
                    if keep:
                        out.append(line)
                fh.seek(0)
                fh.truncate()
                fh.write("\n".join(out) + ("\n" if out else ""))
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)
