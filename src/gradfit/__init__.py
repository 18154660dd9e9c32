"""Gradient-weighted algebraic curve fitting.

The package has three layers:

* ``poly`` / ``moments`` — bivariate polynomials over the rationals and
  one-pass sufficient-statistic accumulators over point sets;
* ``analyzer`` — decides whether a curve family's gradient weight admits a
  data-independent reduction, via common-zero witnesses and polynomial
  identity certificates;
* ``fitters`` / ``datagen`` / ``bench`` / ``cli`` — the fitting algorithms
  (moment-driven reduced circle fit, geometric baseline, conic reweight
  baseline, certificate-driven generic fit), synthetic data, timing
  comparisons, and the command-line front end.
"""

from .analyzer import (FamilyReport, ReductionCertificate, ReductionDecision,
                       analyze_family, decide_reduction)
from .datagen import SyntheticSpec, generate, ingest, write_points
from .errors import GradfitError
from .families import FAMILIES, CurveFamily, get_family
from .fitters import (CircleParams, ConicParams, FitConfig, FitResult,
                      fit_circle_geometric, fit_circle_reduced,
                      fit_conic_reweight, fit_reduced_generic, pratt_init)
from .moments import MomentVector
from .poly import (BivariatePoly, format_poly, gradient_norm_squared,
                   parse_poly)

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "CircleParams",
    "ConicParams",
    "CurveFamily",
    "FAMILIES",
    "FamilyReport",
    "FitConfig",
    "FitResult",
    "GradfitError",
    "MomentVector",
    "ReductionCertificate",
    "ReductionDecision",
    "SyntheticSpec",
    "analyze_family",
    "decide_reduction",
    "fit_circle_geometric",
    "fit_circle_reduced",
    "fit_conic_reweight",
    "fit_reduced_generic",
    "format_poly",
    "generate",
    "get_family",
    "gradient_norm_squared",
    "ingest",
    "parse_poly",
    "pratt_init",
    "write_points",
    "__version__",
]
