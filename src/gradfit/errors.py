"""Exception hierarchy shared across the package.

Degenerate inputs are first-class errors, never silent NaNs. Non-convergence
of an iterative fit is *not* an exception: fitters return a result with
``converged=False`` and the CLI maps that to its own exit code.
"""


class GradfitError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(GradfitError):
    """An input polynomial is constant where a curve was required."""


class NumericalFailure(GradfitError):
    """Root refinement could not reach the witness tolerance."""


class NonFiniteInput(GradfitError):
    """A data point with a NaN or infinite coordinate was rejected, or
    finite data whose moments overflow float arithmetic."""


class DegreeMismatch(GradfitError):
    """Moment accumulators of different degrees, or a moment vector too
    shallow for the requested statistic."""


class InvalidRadius(GradfitError):
    """Circle radius must be strictly positive."""


class NoCircle(GradfitError):
    """Data admit no circle fit (too few points or all collinear)."""


class CenterHitsDataPoint(GradfitError):
    """Geometric fit residual is non-differentiable: the trial center
    coincides with a data point."""


class GradientVanishesAtSample(GradfitError):
    """A gradient weight is undefined because the curve gradient vanishes
    at one of the samples."""


class DegenerateData(GradfitError):
    """No closed-form circle start: too few, collinear or coincident points,
    or moments whose rounding could move Pratt's circle too far."""


class ImaginaryRadius(GradfitError):
    """Pratt's closed-form circle has a non-positive squared radius."""


class ParseError(GradfitError):
    """Malformed text input (data file line or polynomial expression)."""


class NonFiniteValue(GradfitError):
    """A parsed data value is NaN or infinite."""


class InvalidSpec(GradfitError):
    """A request (synthetic data, fit config, CLI flags) is inconsistent."""
