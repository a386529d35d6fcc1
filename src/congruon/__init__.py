"""Exact prime-power congruences of polynomial roots and Hecke eigenforms."""

from .arith import CongruonError
from .congruence import (
    CongruenceBounds,
    CongruenceNumberResult,
    NotCoprimeError,
    bounds_via_congruence_number,
    common_root_mod_ell,
    congruence_number,
    difference_root_poly,
    exact_exponent_newton,
    solve_problem_2_4,
)
from .intpoly import FactorizationCapError, IntPoly, factor_over_z, resultant
from .padic import PrimePower, gamma, newton_polygon, val

__all__ = [
    "CongruenceBounds",
    "CongruenceNumberResult",
    "CongruonError",
    "FactorizationCapError",
    "IntPoly",
    "NotCoprimeError",
    "PrimePower",
    "bounds_via_congruence_number",
    "common_root_mod_ell",
    "congruence_number",
    "difference_root_poly",
    "exact_exponent_newton",
    "factor_over_z",
    "gamma",
    "newton_polygon",
    "resultant",
    "solve_problem_2_4",
    "val",
]

__version__ = "0.1.0"
