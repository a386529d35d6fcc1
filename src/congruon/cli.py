"""Command-line interface.

Every refusal is a `CongruonError`, caught once in `main`: it prints
`error: <message>` to stderr and exits with the error's `exit_code` (2 parse
or usage error, 3 non-coprime input, 4 cap exceeded (level, factorization or
class-splitting prime cap), 5 precondition violated).
"""

from __future__ import annotations

import re

import click

from .arith import CongruonError, factorize, is_prime
from .congruence import congruence_number
from .hecke_io import ResultsStore, export_class, parse_dataset, result_lines
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
        with open(path) as fh:
            dataset = parse_dataset(fh.read())
        return dataset.form(form_id)
    except OSError as e:
        raise CongruonError(str(e)) from None
    except KeyError as e:
        raise CongruonError(*e.args) from None


class _Main(click.Group):
    """Catches every CongruonError of a subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CongruonError as e:
            click.echo(f"error: {e}", err=True)
            raise click.exceptions.Exit(e.exit_code) from None


@click.group(cls=_Main)
def main():
    """Exact prime-power congruences of polynomial roots and eigenforms."""


_COEFFS = r"^-?\d+(,-?\d+)*$"
_CAP = click.option(
    "--cap", type=click.IntRange(min=1), default=DEFAULT_LEVEL_CAP, show_default=True
)


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
    for spec in specs:
        if not re.match(_COEFFS, spec):
            raise CongruonError(f"unknown argument {spec!r}")
    if len(specs) != 2:
        raise CongruonError("expected exactly two coefficient lists")
    p = _parse_poly(specs[0])
    q = _parse_poly(specs[1])
    if ell is not None and all_ell:
        raise CongruonError("--ell and --all-ell are alternatives; pass one")
    if ell is not None and not is_prime(ell):
        raise CongruonError(f"--ell {ell} is not prime")
    res = congruence_number(p, q)
    click.echo(f"c={res.c} r={_poly_out(res.r, pretty)} s={_poly_out(res.s, pretty)}")
    ells = sorted(factorize(res.c)) if all_ell else ([ell] if ell else [])
    for l in ells:
        bounds = res.bounds(l)
        n, method = res.exponent(l)
        exact = "exact" if bounds.exact else f"bounds=[{bounds.lower},{bounds.upper}]"
        click.echo(f"ell={l} n={n} {exact} method={method} case={bounds.case_tag}")


@main.command()
@click.option("--level", type=click.IntRange(min=1), required=True)
@click.option("--p", "prime", type=int, multiple=True, help="Primes to tabulate.")
@click.option("--class", "class_id", default=None, help="Restrict to one class id.")
@_CAP
def charpoly(level, prime, class_id, cap):
    """Emit FORM/CP dataset lines for the weight-2 classes at a level."""
    for p in prime:
        if not is_prime(p):
            raise CongruonError(f"{p} is not prime")
    classes = newform_classes(level, cap=cap)
    if class_id is not None:
        classes = [cls for cls in classes if cls.id == class_id]
        if not classes:
            raise CongruonError(f"no class with id {class_id!r} at level {level}")
    for cls in classes:
        click.echo(export_class(cls, prime).rstrip("\n"))


@main.command()
@click.option("--f", "f_spec", required=True, help="Form reference path#id.")
@click.option("--g", "g_spec", required=True, help="Form reference path#id.")
@click.option("--skip-Tl", "skip_tl", is_flag=True)
@click.option("--assert-irred", is_flag=True)
@click.option("--include-level-primes", is_flag=True)
@click.option("--cutoff", type=click.IntRange(min=2), help="Prime cutoff override.")
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
    record = compare_newforms(f, g, opts)
    for line in result_lines(record):
        click.echo(line)
    if store:
        try:
            ResultsStore(store).append(record)
        except OSError as e:
            raise CongruonError(str(e)) from None


@main.command()
@click.option("--level", type=click.IntRange(min=1), required=True)
@click.option("--cutoff", type=click.IntRange(min=2), help="Prime cutoff override.")
@_CAP
def eisenstein(level, cutoff, cap):
    """Scan a prime level for congruences with the Eisenstein series."""
    check_eisenstein_level(level)
    for cls in newform_classes(level, cap=cap):
        entries = eisenstein_scan(cls, prime_cutoff_override=cutoff)
        if not entries:
            click.echo(f"EIS id={cls.id} none")
        for e in entries:
            click.echo(
                f"EIS id={cls.id} ell={e.ell} n={e.exponent} mazur={e.mazur_valuation}"
            )


@main.command()
@click.option("--f", "f_spec", required=True, help="Form reference path#id.")
@click.option("--p", "prime", type=int, required=True)
@click.option("--ell", type=int, required=True)
def levelraise(f_spec, prime, ell):
    """Level-raising congruence check at a prime p away from the level."""
    f = _load_form(f_spec)
    if not is_prime(prime) or not is_prime(ell):
        raise CongruonError("p and ell must be prime")
    r = level_raising_check(f, prime, ell)
    click.echo(f"e-={r.e_minus} (c={r.c_minus}), e+={r.e_plus} (c={r.c_plus})")


@main.command()
@click.option("--store", type=click.Path(exists=True, dir_okay=False), required=True)
def compact(store):
    """Rewrite a results store without duplicate records."""
    try:
        ResultsStore(store).compact()
    except OSError as e:
        raise CongruonError(str(e)) from None


if __name__ == "__main__":
    main()
