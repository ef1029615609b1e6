"""Discrete staircase-chart calculus on curve grids.

All operators work in the staircase coordinate S: the intrinsic
derivative is a central difference in S (one-sided Fornberg stencils at
the ends), the integral is the trapezoid rule against the chart
increments, and the Laplacian is the standard non-uniform second
difference, exact for quadratics in S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveGrid
from .errors import AlignmentError, PlateauError
from .measure import Staircase

__all__ = [
    "FieldOnCurve",
    "VectorFieldOnCurve",
    "falpha_derivative",
    "falpha_integral",
    "gradient",
    "laplacian",
    "taylor_eval",
    "finite_difference_weights",
]


def _same_knots(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two knot arrays name the same nodes, to 1e-12.

    Identity answers at once: ``build_staircase`` shares the grid's params
    array, and every snapshot of one evolver shares one grid.
    """
    return a is b or (len(a) == len(b) and np.allclose(a, b, rtol=0.0, atol=1e-12))


@dataclass(eq=False)
class FieldOnCurve:
    """Scalar samples (real or complex) at the nodes of a curve grid."""

    grid: CurveGrid
    values: np.ndarray
    chart: Staircase

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.dtype.kind not in "fc":
            self.values = self.values.astype(float)
        if self.values.shape != (self.grid.node_count,):
            raise AlignmentError("one value per grid node is required")
        if not _same_knots(self.chart.params, self.grid.params):
            raise AlignmentError("chart knots must align with the grid nodes")

    @classmethod
    def from_chart_function(cls, grid: CurveGrid, chart: Staircase, fn) -> "FieldOnCurve":
        """Field with values fn(S) at every node."""
        return cls(grid, np.asarray(fn(chart.values)), chart)

    @classmethod
    def constant(cls, grid: CurveGrid, chart: Staircase, value) -> "FieldOnCurve":
        return cls(grid, np.full(grid.node_count, value), chart)

    def with_values(self, values) -> "FieldOnCurve":
        return FieldOnCurve(self.grid, values, self.chart)

    @property
    def is_complex(self) -> bool:
        return self.values.dtype.kind == "c"


@dataclass(eq=False)
class VectorFieldOnCurve:
    """R^3 vector samples at the nodes of a curve grid: ``values[i]`` at node i."""

    grid: CurveGrid
    values: np.ndarray
    chart: Staircase

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.grid.node_count, 3):
            raise AlignmentError("one R^3 vector per grid node is required")
        if not _same_knots(self.chart.params, self.grid.params):
            raise AlignmentError("chart knots must align with the grid nodes")


def finite_difference_weights(x: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Fornberg weights for the ``order``-th derivative at x0 from nodes x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def _apply_stencil(weights: np.ndarray, window: np.ndarray):
    """Derivative stencil applied to shifted values; exact zero on constants."""
    return weights @ (window - window[0])


def _check_plateaus(chart: Staircase):
    ds = chart.increments
    flat = np.nonzero(ds == 0.0)[0]
    if flat.size:
        i = int(flat[0])
        raise PlateauError(
            f"zero staircase increment between nodes {i} and {i + 1}; "
            "derivatives are undefined across plateaus",
            node_index=i,
        )


def falpha_derivative(f: FieldOnCurve) -> FieldOnCurve:
    """Intrinsic derivative df/dS: central in S, one-sided at the ends.

    The end stencils use 4 points (3rd-order) so that composed operators
    like d(J)/dS keep second-order accuracy at the boundary nodes.
    """
    _check_plateaus(f.chart)
    s = f.chart.values
    y = f.values
    out = np.empty_like(y, dtype=complex if f.is_complex else float)
    # the differences go straight into out: a temporary as long as y
    # would be the largest allocation of a continuity check
    np.subtract(y[2:], y[:-2], out=out[1:-1])
    out[1:-1] /= s[2:] - s[:-2]
    k = min(4, len(y))  # 2 nodes: the two-point difference at both ends
    out[0] = _apply_stencil(finite_difference_weights(s[:k], s[0], 1), y[:k])
    out[-1] = _apply_stencil(finite_difference_weights(s[-k:], s[-1], 1), y[-k:])
    return f.with_values(out)


def _node_index(grid: CurveGrid, p: float) -> int:
    i = int(np.argmin(np.abs(grid.params - p)))
    span = grid.param_domain[1] - grid.param_domain[0]
    if abs(grid.params[i] - p) > 1e-9 * span:
        raise AlignmentError(f"parameter {p!r} is not aligned with a grid node")
    return i


def falpha_integral(f: FieldOnCurve, a: float | None = None, b: float | None = None):
    """Trapezoid integral of f against the chart over node-aligned [a, b]."""
    ia = 0 if a is None else _node_index(f.grid, a)
    ib = f.grid.node_count - 1 if b is None else _node_index(f.grid, b)
    if ia > ib:
        raise AlignmentError("integration bounds must satisfy a <= b")
    if ia == ib:
        return 0.0j if f.is_complex else 0.0
    s = f.chart.values
    y = f.values
    ds = s[ia + 1 : ib + 1] - s[ia:ib]
    total = np.sum(0.5 * (y[ia:ib] + y[ia + 1 : ib + 1]) * ds)
    return complex(total) if f.is_complex else float(total)


def gradient(f: FieldOnCurve) -> VectorFieldOnCurve:
    """(df/dS) times the unit chord tangent at each node."""
    df = falpha_derivative(f).values
    return VectorFieldOnCurve(f.grid, df[:, None] * f.grid.unit_tangents(), f.chart)


def laplacian(f: FieldOnCurve) -> FieldOnCurve:
    """Second intrinsic derivative (d/dS)^2 f, exact for quadratics in S."""
    _check_plateaus(f.chart)
    s = f.chart.values
    y = f.values
    if len(y) < 3:
        raise AlignmentError("the second difference needs at least 3 nodes")
    out = np.empty_like(y, dtype=complex if f.is_complex else float)
    dsp = s[2:] - s[1:-1]
    dsm = s[1:-1] - s[:-2]
    out[1:-1] = 2.0 * ((y[2:] - y[1:-1]) / dsp - (y[1:-1] - y[:-2]) / dsm) / (dsp + dsm)
    k = min(4, len(y))
    out[0] = _apply_stencil(finite_difference_weights(s[:k], s[0], 2), y[:k])
    out[-1] = _apply_stencil(finite_difference_weights(s[-k:], s[-1], 2), y[-k:])
    return f.with_values(out)


def taylor_eval(derivs, deltaS: float, order: int):
    """Truncated staircase Taylor sum: sum_n deltaS^n / n! * derivs[n]."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if len(derivs) < order + 1:
        raise ValueError("need order + 1 derivative values")
    total = 0.0
    for n in range(order, -1, -1):
        total += derivs[n] * deltaS ** n / math.factorial(n)
    return total
