"""Exact prime-power congruences of polynomial roots and Hecke eigenforms."""

from .arith import CongruonError
from .congruence import (
    CongruenceBounds,
    CongruenceNumberResult,
    NotCoprimeError,
    common_root_mod_ell,
    congruence_number,
    difference_root_poly,
)
from .intpoly import FactorizationCapError, IntPoly, factor_over_z

__all__ = [
    "CongruenceBounds",
    "CongruenceNumberResult",
    "CongruonError",
    "FactorizationCapError",
    "IntPoly",
    "NotCoprimeError",
    "common_root_mod_ell",
    "congruence_number",
    "difference_root_poly",
    "factor_over_z",
]

__version__ = "0.1.0"
