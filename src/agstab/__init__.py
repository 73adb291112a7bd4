"""Exact generating series of stable cohomology for cone-indexed compactification families."""

from .cones import (
    ConeAnalysis,
    ConeSpec,
    analyze,
    cone_automorphisms,
    cone_components,
    cone_dimension,
    cone_poincare_series,
    cone_rank,
    cyclic_cone,
    direct_sum,
    load_cone,
)
from .errors import (
    AgstabError,
    CapExceeded,
    DegreeMismatch,
    InconsistentAction,
    InputError,
    NonIntegralCoefficient,
    NonzeroConstant,
    SearchBudgetExceeded,
    VerificationFailed,
    ZeroConstantTerm,
)
from .molien import LinearAction, molien_series, molien_series_naive
from .perms import PermGroup, Permutation
from .pipeline import (
    BettiReport,
    ConeClassRecord,
    Dataset,
    betti_series,
    display_report,
    display_series,
    generator_series,
    lambda_series,
    load_dataset,
    validate_smallness,
)
from .series import (
    DEFAULT_ORDER,
    RationalMatrix,
    TruncatedSeries,
    det_one_minus_tA,
    expand_rational_form,
    product_form,
)
from .symfunc import exp_series, exp_series_via_h, plethysm_h

__version__ = "0.1.0"


def __getattr__(name):
    # the verify suites load on first use: a library import does not need them
    if name in ("SUITE_NAMES", "run_suite"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AgstabError",
    "BettiReport",
    "CapExceeded",
    "ConeAnalysis",
    "ConeClassRecord",
    "ConeSpec",
    "Dataset",
    "DEFAULT_ORDER",
    "DegreeMismatch",
    "InconsistentAction",
    "InputError",
    "LinearAction",
    "NonIntegralCoefficient",
    "NonzeroConstant",
    "PermGroup",
    "Permutation",
    "RationalMatrix",
    "SearchBudgetExceeded",
    "SUITE_NAMES",
    "TruncatedSeries",
    "VerificationFailed",
    "ZeroConstantTerm",
    "analyze",
    "betti_series",
    "cone_automorphisms",
    "cone_components",
    "cone_dimension",
    "cone_poincare_series",
    "cone_rank",
    "cyclic_cone",
    "det_one_minus_tA",
    "direct_sum",
    "display_report",
    "display_series",
    "exp_series",
    "exp_series_via_h",
    "expand_rational_form",
    "generator_series",
    "lambda_series",
    "load_cone",
    "load_dataset",
    "molien_series",
    "molien_series_naive",
    "plethysm_h",
    "product_form",
    "run_suite",
    "validate_smallness",
]
