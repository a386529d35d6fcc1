import types

import congruon

EXPORTS = [
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


def test_public_names_are_pinned():
    """The package exports exactly these names, and each one resolves; a
    removed name (README, "Removed names") must not come back unnoticed."""
    assert congruon.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(congruon, name) is not None
    public = {
        name
        for name, value in vars(congruon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(EXPORTS)
