"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 non-coprime input, 4 cap exceeded,
5 precondition violated.
"""

from __future__ import annotations

import click

from .arith import factorize, is_prime
from .congruence import NotCoprimeError, PreconditionError, congruence_number
from .hecke_io import (
    FormatError,
    ResultsStore,
    export_class,
    parse_dataset,
    result_lines,
)
from .intpoly import FactorizationCapError, IntPoly
from .modsym import DEFAULT_LEVEL_CAP, LevelCapError, newform_classes
from .pipeline import (
    ComparisonOptions,
    compare_newforms,
    eisenstein_scan,
    level_raising_check,
)

EXIT_PARSE = 2
EXIT_NOT_COPRIME = 3
EXIT_CAP = 4
EXIT_PRECONDITION = 5


def _parse_poly(spec):
    try:
        coeffs = [int(c) for c in spec.split(",")]
    except ValueError:
        raise click.exceptions.Exit(EXIT_PARSE) from None
    poly = IntPoly(coeffs)
    if poly.is_zero:
        click.echo("error: zero polynomial", err=True)
        raise click.exceptions.Exit(EXIT_PARSE)
    return poly


def _pretty(poly):
    return repr(poly)[len("IntPoly(") : -1]


def _poly_out(poly, pretty):
    return _pretty(poly) if pretty else ",".join(str(c) for c in poly.coeffs)


def _load_form(spec):
    """Load a form from 'path#id'."""
    if "#" not in spec:
        click.echo(f"error: form spec {spec!r} must be path#id", err=True)
        raise click.exceptions.Exit(EXIT_PARSE)
    path, form_id = spec.rsplit("#", 1)
    try:
        with open(path) as fh:
            dataset = parse_dataset(fh.read())
        return dataset.form(form_id)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_PARSE) from None
    except (FormatError, KeyError) as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_PARSE) from None


@click.group()
def main():
    """Exact prime-power congruences of polynomial roots and eigenforms."""


_COEFFS = r"^-?\d+(,-?\d+)*$"


@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("specs", nargs=-1, type=click.UNPROCESSED)
@click.option("--ell", type=int, default=None, help="Residue prime to examine.")
@click.option("--all-ell", is_flag=True, help="Examine every prime dividing c.")
@click.option("--pretty", is_flag=True, help="Human-readable polynomial output.")
def congpoly(specs, ell, all_ell, pretty):
    """Congruence number and root-congruence exponents of two polynomials.

    Both polynomials must be monic. Coefficients are comma-separated,
    ascending (constant first); a leading minus on the constant term is fine.
    """
    import re

    polys = []
    for spec in specs:
        if re.match(_COEFFS, spec):
            polys.append(spec)
        else:
            click.echo(f"error: unknown argument {spec!r}", err=True)
            raise click.exceptions.Exit(EXIT_PARSE)
    if len(polys) != 2:
        click.echo("error: expected exactly two coefficient lists", err=True)
        raise click.exceptions.Exit(EXIT_PARSE)
    p = _parse_poly(polys[0])
    q = _parse_poly(polys[1])
    if ell is not None and not is_prime(ell):
        click.echo(f"error: --ell {ell} is not prime", err=True)
        raise click.exceptions.Exit(EXIT_PARSE)
    try:
        res = congruence_number(p, q)
        click.echo(
            f"c={res.c} r={_poly_out(res.r, pretty)} s={_poly_out(res.s, pretty)}"
        )
        ells = sorted(factorize(res.c)) if all_ell else ([ell] if ell else [])
        for l in ells:
            bounds = res.bounds(l)
            n, method = res.exponent(l)
            exact = "exact" if bounds.exact else f"bounds=[{bounds.lower},{bounds.upper}]"
            click.echo(f"ell={l} n={n} {exact} method={method} case={bounds.case_tag}")
    except NotCoprimeError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_NOT_COPRIME) from None
    except FactorizationCapError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_CAP) from None
    except PreconditionError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_PRECONDITION) from None


@main.command()
@click.option("--level", type=int, required=True)
@click.option("--p", "prime", type=int, multiple=True, help="Primes to tabulate.")
@click.option("--class", "class_id", default=None, help="Restrict to one class id.")
@click.option("--cap", type=int, default=DEFAULT_LEVEL_CAP, show_default=True)
def charpoly(level, prime, class_id, cap):
    """Emit FORM/CP dataset lines for the weight-2 classes at a level."""
    for p in prime:
        if not is_prime(p):
            click.echo(f"error: {p} is not prime", err=True)
            raise click.exceptions.Exit(EXIT_PARSE)
    try:
        for cls in newform_classes(level, cap=cap):
            if class_id is not None and cls.id != class_id:
                continue
            click.echo(export_class(cls, prime or []).rstrip("\n"))
    except (LevelCapError, FactorizationCapError) as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_CAP) from None


@main.command()
@click.option("--f", "f_spec", required=True, help="Form reference path#id.")
@click.option("--g", "g_spec", required=True, help="Form reference path#id.")
@click.option("--skip-Tl", "skip_tl", is_flag=True)
@click.option("--assert-irred", is_flag=True)
@click.option("--include-level-primes", is_flag=True)
@click.option("--cutoff", type=int, default=None, help="Prime cutoff override.")
@click.option("--store", type=click.Path(), default=None)
def congforms(f_spec, g_spec, skip_tl, assert_irred, include_level_primes, cutoff, store):
    """Compare two newform classes per the full algorithm."""
    f = _load_form(f_spec)
    g = _load_form(g_spec)
    opts = ComparisonOptions(
        skip_t_ell=skip_tl,
        include_p_dividing_levels=include_level_primes,
        assert_irreducible=assert_irred,
        prime_cutoff_override=cutoff,
    )
    try:
        record = compare_newforms(f, g, opts)
    except (PreconditionError, KeyError) as e:
        msg = str(e)
        click.echo(f"error: {msg}", err=True)
        if "not coprime" in msg:
            raise click.exceptions.Exit(EXIT_NOT_COPRIME) from None
        raise click.exceptions.Exit(EXIT_PRECONDITION) from None
    except NotCoprimeError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_NOT_COPRIME) from None
    for line in result_lines(record):
        click.echo(line)
    if store:
        ResultsStore(store).append(record)


@main.command()
@click.option("--level", type=int, required=True)
@click.option("--cutoff", type=int, default=None, help="Prime cutoff override.")
@click.option("--cap", type=int, default=DEFAULT_LEVEL_CAP, show_default=True)
def eisenstein(level, cutoff, cap):
    """Scan a prime level for congruences with the Eisenstein series."""
    try:
        for cls in newform_classes(level, cap=cap):
            entries = eisenstein_scan(cls, prime_cutoff_override=cutoff)
            if not entries:
                click.echo(f"EIS id={cls.id} none")
            for e in entries:
                click.echo(
                    f"EIS id={cls.id} ell={e.ell} n={e.exponent} "
                    f"mazur={e.mazur_valuation}"
                )
    except (LevelCapError, FactorizationCapError) as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_CAP) from None
    except PreconditionError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_PRECONDITION) from None


@main.command()
@click.option("--f", "f_spec", required=True, help="Form reference path#id.")
@click.option("--p", "prime", type=int, required=True)
@click.option("--ell", type=int, required=True)
def levelraise(f_spec, prime, ell):
    """Level-raising congruence check at a prime p away from the level."""
    f = _load_form(f_spec)
    if not is_prime(prime) or not is_prime(ell):
        click.echo("error: p and ell must be prime", err=True)
        raise click.exceptions.Exit(EXIT_PARSE)
    try:
        r = level_raising_check(f, prime, ell)
    except PreconditionError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_PRECONDITION) from None
    except KeyError as e:
        click.echo(f"error: {e}", err=True)
        raise click.exceptions.Exit(EXIT_PRECONDITION) from None
    click.echo(f"e-={r.e_minus} (c={r.c_minus}), e+={r.e_plus} (c={r.c_plus})")


@main.command()
@click.option("--store", type=click.Path(exists=True), required=True)
def compact(store):
    """Rewrite a results store without duplicate records."""
    ResultsStore(store).compact()


if __name__ == "__main__":
    main()
