"""Command-line interface, standard library only: `congruon COMMAND [ARGS]...`.

Each command is a function in `_COMMANDS`, and its parameters are its
options (see `_parse`). Every refusal, a usage error included, is a
`CongruonError`, caught once in `main`: it prints one `error: <message>`
line to stderr and exits with the error's `exit_code` (2 parse or usage
error, 3 non-coprime input, 4 cap exceeded, 5 precondition violated).
Each command writes its output in one write.
"""

from __future__ import annotations

import inspect
import os
import re
import sys

from .arith import CongruonError, factorize, is_prime
from .congruence import congruence_number
from .hecke_io import ResultsStore, export_class, parse_dataset, read_utf8, result_lines
from .intpoly import IntPoly
from .modsym import DEFAULT_LEVEL_CAP, newform_classes
from .pipeline import (
    ComparisonOptions,
    check_eisenstein_level,
    compare_newforms,
    eisenstein_scan,
    level_raising_check,
)


def _parse_poly(spec):
    poly = IntPoly(int(c) for c in spec.split(","))
    if poly.is_zero:
        raise CongruonError("zero polynomial")
    return poly


def _pretty(poly):
    return repr(poly)[len("IntPoly(") : -1]


def _poly_out(poly, pretty):
    return _pretty(poly) if pretty else ",".join(str(c) for c in poly.coeffs) or "0"


def _load_form(spec):
    """Load a form from 'path#id'."""
    if "#" not in spec:
        raise CongruonError(f"form spec {spec!r} must be path#id")
    path, form_id = spec.rsplit("#", 1)
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_dataset(read_utf8(fh)).form(form_id)
    except OSError as e:
        raise CongruonError(str(e)) from None
    except KeyError as e:
        raise CongruonError(*e.args) from None


def _write(lines):
    sys.stdout.write("".join(line + "\n" for line in lines))


# The options that take an integer, with its least value; the others take text.
_INTEGERS = {"--level": 1, "--cap": 1, "--cutoff": 2, "--ell": 2, "--p": 2}


def _options(params):
    """{option: parameter} of a command's parameters: `--skip-Tl` sets
    `skip_Tl` and `--class` sets `class_`. Its `*specs` take the arguments."""
    names = {p.name.rstrip("_").replace("_", "-"): p for p in params.values()}
    return {"--" + n: p for n, p in names.items() if p.kind is not p.VAR_POSITIONAL}


def _parse(func, params, tokens):
    """(specs, kwargs) for command `func` from its tokens, or None when they
    ask for `--help`. `--opt value` and `--opt=value` give an option its
    value; any other token is an argument, also one starting with `-` such as
    `-60,1`, and so is every token after `--`. An option whose parameter has
    no default is required, one defaulting to False is a flag, and one
    defaulting to () collects all its values."""
    options, specs, kwargs = _options(params), [], {}
    tokens = iter(tokens)
    for token in tokens:
        opt, eq, text = token.partition("=")
        if token == "--help":
            return None
        if token == "--":
            specs += tokens
        elif not token.startswith("--"):
            specs.append(token)
        elif opt not in options:
            raise CongruonError(f"unknown option {opt!r} for {func.__name__}")
        elif options[opt].default is False:
            if eq:
                raise CongruonError(f"{opt} takes no value")
            kwargs[options[opt].name] = True
        else:
            if not eq and (text := next(tokens, None)) is None:
                raise CongruonError(f"{opt} needs a value")
            name, value, least = options[opt].name, text, _INTEGERS.get(opt)
            if least is not None:
                if not re.fullmatch(r"\s*[+-]?\d+\s*", text):
                    raise CongruonError(f"{opt} takes an integer, not {text!r}")
                if (value := int(text)) < least:
                    raise CongruonError(f"{opt} must be at least {least}, not {value}")
            repeat = options[opt].default == ()
            kwargs[name] = kwargs.get(name, ()) + (value,) if repeat else value
    for opt, param in options.items():
        if param.default is param.empty and param.name not in kwargs:
            raise CongruonError(f"missing option {opt}")
    if specs and "specs" not in params:
        raise CongruonError(f"unexpected argument {specs[0]!r} for {func.__name__}")
    return specs, kwargs


def _help(prog, func, params):
    """`--help` of the command `func`, or of the group when it is None."""
    if func is None:
        rows = [f"  {n:<12}{f.__doc__.splitlines()[0]}" for n, (f, _) in _COMMANDS.items()]
        return "\n".join([f"Usage: {prog} COMMAND [ARGS]...", "", "Commands:", *rows, ""])
    words = [f"Usage: {prog} {func.__name__}"]
    for opt, p in _options(params).items():
        word = opt + ("" if p.default is False else " " + p.name.strip("_").upper())
        word += " ..." if p.default == () else ""
        words.append(word if p.default is p.empty else f"[{word}]")
    words += ["SPECS..."] if "specs" in params else []
    doc = [f"  {line.strip()}".rstrip() for line in func.__doc__.strip().splitlines()]
    return "\n".join([" ".join(words), "", *doc]) + "\n"


def main(args=None, prog_name="congruon", standalone_mode=True):
    """The `congruon` entry point: runs `args` (default `sys.argv[1:]`), then
    raises SystemExit with the exit status, or returns it if not standalone."""
    args, code = sys.argv[1:] if args is None else list(args), 0
    try:
        if not args:
            raise CongruonError(f"missing command (see {prog_name} --help)")
        name, *tokens = args
        if name not in _COMMANDS and name != "--help":
            raise CongruonError(f"unknown command {name!r}")
        func, params = _COMMANDS.get(name, (None, None))
        parsed = func and _parse(func, params, tokens)
        if parsed is None:
            sys.stdout.write(_help(prog_name, func, params))
        else:
            func(*parsed[0], **parsed[1])
    except CongruonError as e:
        sys.stdout.flush()
        sys.stderr.write(f"error: {e}\n")
        code = e.exit_code
    if standalone_mode:
        raise SystemExit(code)
    return code


# click's Command interface, so that click.testing.CliRunner drives the CLI
main.main, main.name = main, "congruon"

_COEFFS = r"^-?\d+(,-?\d+)*$"


def congpoly(*specs, ell=None, all_ell=False, pretty=False):
    """Congruence number and root-congruence exponents of two polynomials.

    Both polynomials must be monic. Coefficients are comma-separated,
    ascending (constant first); a leading minus on the constant term is fine.
    """
    for spec in specs:
        if not re.match(_COEFFS, spec):
            raise CongruonError(f"unknown argument {spec!r}")
    if len(specs) != 2:
        raise CongruonError("expected exactly two coefficient lists")
    p, q = map(_parse_poly, specs)
    if ell is not None and all_ell:
        raise CongruonError("--ell and --all-ell are alternatives; pass one")
    if ell is not None and not is_prime(ell):
        raise CongruonError(f"--ell {ell} is not prime")
    res = congruence_number(p, q)
    lines = [f"c={res.c} r={_poly_out(res.r, pretty)} s={_poly_out(res.s, pretty)}"]
    ells = sorted(factorize(res.c)) if all_ell else ([ell] if ell else [])
    for l in ells:
        bounds = res.bounds(l)
        n, method = res.exponent(l)
        exact = "exact" if bounds.exact else f"bounds=[{bounds.lower},{bounds.upper}]"
        lines.append(f"ell={l} n={n} {exact} method={method} case={bounds.case_tag}")
    _write(lines)


def charpoly(*, level, p=(), class_=None, cap=DEFAULT_LEVEL_CAP):
    """Emit FORM/CP dataset lines for the weight-2 classes at a level."""
    for prime in p:
        if not is_prime(prime):
            raise CongruonError(f"{prime} is not prime")
    classes = newform_classes(level, cap=cap)
    if class_ is not None:
        classes = [cls for cls in classes if cls.id == class_]
        if not classes:
            raise CongruonError(f"no class with id {class_!r} at level {level}")
    sys.stdout.write("".join(export_class(cls, p) for cls in classes))


def congforms(*, f, g, skip_Tl=False, assert_irred=False, include_level_primes=False,
              cutoff=None, store=None):
    """Compare two newform classes per the full algorithm."""
    opts = ComparisonOptions(skip_t_ell=skip_Tl, assert_irreducible=assert_irred,
        include_p_dividing_levels=include_level_primes, prime_cutoff_override=cutoff)
    record = compare_newforms(_load_form(f), _load_form(g), opts)
    _write(result_lines(record))
    if store:
        try:
            ResultsStore(store).append(record)
        except OSError as e:
            raise CongruonError(str(e)) from None


def eisenstein(*, level, cutoff=None, cap=DEFAULT_LEVEL_CAP):
    """Scan a prime level for congruences with the Eisenstein series."""
    check_eisenstein_level(level)
    lines = []
    for cls in newform_classes(level, cap=cap):
        entries = eisenstein_scan(cls, prime_cutoff_override=cutoff)
        lines += [
            f"EIS id={cls.id} ell={e.ell} n={e.exponent} mazur={e.mazur_valuation}"
            for e in entries
        ] or [f"EIS id={cls.id} none"]
    _write(lines)


def levelraise(*, f, p, ell):
    """Level-raising congruence check at a prime p away from the level."""
    form = _load_form(f)
    if not is_prime(p) or not is_prime(ell):
        raise CongruonError("p and ell must be prime")
    r = level_raising_check(form, p, ell)
    _write([f"e-={r.e_minus} (c={r.c_minus}), e+={r.e_plus} (c={r.c_plus})"])


def compact(*, store):
    """Rewrite a results store without duplicate records."""
    if not os.path.isfile(store):
        raise CongruonError(f"--store {store!r} is not an existing file")
    try:
        ResultsStore(store).compact()
    except OSError as e:
        raise CongruonError(str(e)) from None


_COMMANDS = {  # name: (function, its parameters)
    f.__name__: (f, inspect.signature(f).parameters)
    for f in (congpoly, charpoly, congforms, eisenstein, levelraise, compact)
}

if __name__ == "__main__":
    main()
