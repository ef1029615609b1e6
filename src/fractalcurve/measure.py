"""Pre-measure, dimension estimation, and staircase charts for curve grids.

The exponent-``alpha`` pre-measure of a curve segment is the sum of
``|chord|**alpha / Gamma(alpha+1)`` over the grid's chords; the curve's
dimension is the exponent at which the per-level pre-measure flips from
growing without bound to collapsing to zero under refinement.  The signed
cumulative pre-measure from a base point is the staircase function, which
serves as the coordinate chart for all calculus on the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import CurveGrid
from .errors import EstimationFailureError, NotOnCurveError

__all__ = [
    "PreMeasureResult",
    "Staircase",
    "DimensionEstimate",
    "gamma_premeasure",
    "build_staircase",
    "j_of_point",
    "estimate_gamma_dimension",
]


@dataclass(frozen=True)
class PreMeasureResult:
    """Pre-measure of a curve grid at one exponent and refinement level."""

    alpha: float
    level: int
    value: float
    mesh: float


@dataclass(eq=False)
class Staircase:
    """Monotone tabulated staircase S(v) with plateau-aware inverse.

    ``values[i]`` is the signed cumulative pre-measure from the base
    parameter ``p0`` to ``params[i]``; S(p0) = 0 exactly, S <= 0 left of
    p0 and S >= 0 right of it.  Evaluation interpolates linearly between
    knots; the inverse maps plateau values to their left endpoint.
    ``increments`` holds the successive differences of ``values``.
    """

    alpha: float
    params: np.ndarray
    values: np.ndarray
    p0: float
    increments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.ascontiguousarray(self.params, dtype=float)
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.params.shape != self.values.shape or self.params.ndim != 1:
            raise ValueError("params and values must be matching 1-D arrays")
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("staircase knots must be strictly increasing in v")
        self.increments = np.diff(self.values)
        if np.any(self.increments < 0):
            raise ValueError("staircase values must be non-decreasing")
        if not (self.params[0] <= self.p0 <= self.params[-1]):
            raise ValueError("p0 must lie inside the knot span")
        if abs(float(self(self.p0))) != 0.0:
            raise ValueError("S(p0) must be exactly zero")
        self.params.flags.writeable = False
        self.values.flags.writeable = False
        self.increments.flags.writeable = False

    def __call__(self, v):
        return np.interp(v, self.params, self.values)

    @property
    def total(self) -> float:
        return float(self.values[-1] - self.values[0])

    def inverse(self, s):
        """Parameter v with S(v) = s; plateaus resolve to their left endpoint."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.values, s, side="left")
        idx = np.clip(idx, 0, len(self.values) - 1)
        v = np.array(self.params[idx], dtype=float, copy=True)
        exact = self.values[idx] == s
        interior = ~exact & (idx > 0)
        if np.any(interior):
            i = idx[interior]
            s_lo = self.values[i - 1]
            s_hi = self.values[i]
            frac = (s[interior] - s_lo) / (s_hi - s_lo)
            v[interior] = self.params[i - 1] + frac * (self.params[i] - self.params[i - 1])
        v = np.clip(v, self.params[0], self.params[-1])
        return v if v.ndim else float(v)


def _check_alpha(alpha: float):
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")


def gamma_premeasure(grid: CurveGrid, alpha: float) -> PreMeasureResult:
    """Pre-measure sum |w(v_{i+1}) - w(v_i)|**alpha / Gamma(alpha+1).

    The sum runs over every node: the finest available mesh, which
    realizes the fine-partition limit for self-similar generator grids.
    Chords of equal length are summed once, times their count, so a call
    costs O(distinct chord lengths) once the grid's spectrum is cached.
    """
    _check_alpha(alpha)
    lengths, counts = grid.chord_spectrum()
    value = float(np.sum(counts * lengths ** alpha)) / math.gamma(alpha + 1.0)
    return PreMeasureResult(alpha=alpha, level=grid.level, value=value, mesh=grid.mesh)


def build_staircase(grid: CurveGrid, alpha: float, p0: float | None = None) -> Staircase:
    """Staircase chart of ``grid`` at exponent ``alpha``, zeroed at ``p0``.

    ``p0`` snaps to the nearest node parameter (default: the left end).
    Knots sit at every grid node; the value at a knot is the signed
    cumulative finest-mesh pre-measure from p0.
    """
    _check_alpha(alpha)
    if p0 is None:
        p0 = float(grid.params[0])
    if not (grid.param_domain[0] <= p0 <= grid.param_domain[1]):
        raise ValueError("p0 must lie inside the parameter domain")
    inc = grid.chord_lengths() ** alpha / math.gamma(alpha + 1.0)
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    i0 = int(np.argmin(np.abs(grid.params - p0)))
    values = cum - cum[i0]
    return Staircase(alpha=alpha, params=grid.params, values=values, p0=float(grid.params[i0]))


def j_of_point(stair: Staircase, grid: CurveGrid, theta, snap_tol: float = 1e-6) -> float:
    """Point staircase: S at the parameter of the node nearest to ``theta``."""
    i, dist = grid.nearest_node(theta)
    if dist > snap_tol:
        raise NotOnCurveError(
            f"point {np.asarray(theta).tolist()} is {dist:.3e} from the nearest node "
            f"(snap tolerance {snap_tol:.3e})"
        )
    return float(stair.values[i])


@dataclass(frozen=True)
class DimensionEstimate:
    """Result of the refinement-dichotomy dimension search."""

    alpha_star: float
    bracket: tuple[float, float]
    levels_used: tuple[int, ...]
    slope_at_alpha: float
    slopes_per_level: tuple[float, ...] = field(default=())

    def to_report_dict(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "bracket": list(self.bracket),
            "levels_used": list(self.levels_used),
            "slope_at_alpha": self.slope_at_alpha,
            "slopes_per_level": list(self.slopes_per_level),
        }


_BELOW, _ABOVE, _AT = "below", "above", "at"
_ALPHA_BRACKET = (0.05, 3.0)  # first exponents tried; widened until they bracket
_TIE_TOL = 1e-9  # per-level log differences within this count as flat


def _classify(diffs: np.ndarray, alpha: float) -> str:
    pos = diffs > _TIE_TOL
    neg = diffs < -_TIE_TOL
    if not pos.any() and not neg.any():
        return _AT
    if not neg.any():
        return _BELOW
    if not pos.any():
        return _ABOVE
    raise EstimationFailureError(
        f"log pre-measure is not monotone across levels at alpha={alpha!r}; "
        "the curve family does not show a clean refinement dichotomy",
        alpha=alpha,
        slopes=diffs,
    )


def estimate_gamma_dimension(grids, tol: float) -> DimensionEstimate:
    """Locate the exponent where the per-level pre-measure flips growth direction.

    For each candidate alpha the finest-mesh pre-measure is computed on
    every grid; alpha is classified *below* the dimension when the log
    pre-measure increases with level and *above* when it decreases.
    Bisection returns the sign-change exponent to within ``tol``.

    Raises :class:`EstimationFailureError` when the per-level logs are not
    monotone (no dichotomy) or when no bracket can be established.
    """
    grids = list(grids)
    if len(grids) < 3:
        raise ValueError("at least 3 refinement levels are required")
    levels = np.array([g.level for g in grids], dtype=float)
    if np.any(np.diff(levels) <= 0):
        raise ValueError("grids must be supplied over strictly increasing levels")
    if not tol > 0:
        raise ValueError("tol must be positive")

    def logs(alpha: float) -> np.ndarray:
        return np.array([math.log(gamma_premeasure(g, alpha).value) for g in grids])

    def classify(alpha: float) -> str:
        return _classify(np.diff(logs(alpha)), alpha)

    lo, hi = _ALPHA_BRACKET
    for _ in range(60):
        side = classify(lo)
        if side == _BELOW:
            break
        if side == _AT:
            lo = hi = lo
            break
        lo *= 0.5
    else:
        raise EstimationFailureError("could not find a lower bracket exponent")
    for _ in range(60):
        if lo == hi:
            break
        side = classify(hi)
        if side == _ABOVE:
            break
        if side == _AT:
            lo = hi = hi
            break
        hi *= 2.0
    else:
        raise EstimationFailureError("could not find an upper bracket exponent")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        side = classify(mid)
        if side == _BELOW:
            lo = mid
        elif side == _ABOVE:
            hi = mid
        else:
            lo = hi = mid

    alpha_star = 0.5 * (lo + hi)
    final_logs = logs(alpha_star)
    slope = float(np.polyfit(levels, final_logs, 1)[0])
    return DimensionEstimate(
        alpha_star=alpha_star,
        bracket=(lo, hi),
        levels_used=tuple(int(g.level) for g in grids),
        slope_at_alpha=slope,
        slopes_per_level=tuple(np.diff(final_logs).tolist()),
    )
