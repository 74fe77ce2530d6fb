"""Exact invariants of real analytic germs.

The package computes virtual Poincare polynomials of constructible piece
descriptions and motivic zeta functions of monomial and diagonal germs by
three independent routes: direct jet-space decomposition, evaluation of
resolution data, and convolution of one-variable factors, together with the
classification of two-variable Brieskorn germs built on top.
"""

import importlib

#: submodule -> the names the package exports from it.  Nothing is imported
#: until a name is first looked up, so ``import arczeta`` (which ``python -m
#: arczeta.cli`` always does first) costs no submodule.
_EXPORTS = {
    "brieskorn": (
        "BrieskornClass", "ClassStatus", "SignValue", "classify", "recover_p",
        "recover_q", "recover_signs",
    ),
    "errors": (
        "ArczetaError", "ClassifyError", "InputError", "UnsupportedComputationError",
    ),
    "jets": (
        "DiagonalGerm", "Germ", "JetStratum", "MonomialGerm", "TieCurveRule",
        "UnsupportedGermError", "germ_to_str", "jet_beta", "jet_beta_sign",
        "jet_strata", "parse_germ", "tie_curve_rule", "zeta_direct",
    ),
    "oracle": ("JET_SPACE_CAP", "count_jets_with_order"),
    "ring": (
        "DEFAULT_ORDER", "LaurentPoly", "ZetaExpr", "ZetaSeries", "ZetaTerm",
        "format_poly", "format_series", "parse_poly", "zeta_expr", "zeta_term",
    ),
    "vpoly": (
        "Affine", "BetaScript", "BlowupDef", "Custom", "Difference",
        "DisjointUnion", "ExprDef", "Points", "Product", "ProjSpace",
        "PuncturedAffine", "Ref", "Sphere", "Torus", "beta_atom", "beta_expr",
        "blowup_solve", "difference", "product", "run_script", "script_from_json",
        "union",
    ),
    "zeta": (
        "Component", "Distinguished", "InvariantTriple", "NotDistinguished",
        "ResolutionDatum", "StratumData", "closed_form", "compare_invariants",
        "dl_expr", "dl_naive", "dl_sign", "germ_invariants",
        "resolution_from_json", "ts_convolve",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the module namespace
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
