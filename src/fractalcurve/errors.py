"""Exception types shared across the package."""


class FractalCurveError(Exception):
    """Base class for all package-specific failures."""


class ResourceLimitError(FractalCurveError):
    """Construction would exceed a configured size cap."""


class DegenerateCurveError(FractalCurveError):
    """Curve construction received coincident or otherwise unusable geometry."""


class EstimationFailureError(FractalCurveError):
    """Dimension estimation could not classify a candidate exponent.

    Carries the per-level log-premeasure slopes that triggered the failure.
    """

    def __init__(self, message, alpha=None, slopes=None):
        super().__init__(message)
        self.alpha = alpha
        self.slopes = None if slopes is None else list(slopes)


class PlateauError(FractalCurveError):
    """A derivative stencil straddles a zero staircase increment."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class AlignmentError(FractalCurveError):
    """Operands do not share a grid, or a bound is not node-aligned."""


class NotOnCurveError(FractalCurveError):
    """A query point lies farther than the snap tolerance from every node."""


class ConjugacyError(FractalCurveError):
    """The staircase chart does not give the xi grid an operation needs."""


class ResolutionError(FractalCurveError):
    """A kernel or grid is too coarse for the requested operation."""


class QuadratureError(FractalCurveError):
    """Oscillatory quadrature failed its internal convergence check."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SolverError(FractalCurveError):
    """A linear solve inside the evolver failed."""
