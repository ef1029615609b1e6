"""Construction and sampling of fractal curves and Cantor-like time sets.

Curves are represented at a finite refinement level as ordered polyline
nodes ``(v_i, w(v_i))`` with ``w`` the parameterization of the curve in
R^3.  All constructions are pure and deterministic; the node arrays are
frozen after construction so grids can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCurveError, ResourceLimitError

# node budget of every builder: the finest Koch curve's 4^10 segments
MAX_SEGMENTS = 4 ** 10

_ORIGIN = np.zeros(3)
_E1 = np.array([1.0, 0.0, 0.0])


def level_cap(branching: int) -> int:
    """Finest level whose branching^level segments fit MAX_SEGMENTS (a branching of 1 as 2)."""
    branching, cap = max(branching, 2), 0
    while branching ** (cap + 1) <= MAX_SEGMENTS:
        cap += 1
    return cap


def _check_level(level: int, branching: int):
    cap = level_cap(branching)
    if level > cap:
        raise ResourceLimitError(f"level {level} exceeds the cap {cap} ({MAX_SEGMENTS} segments)")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _row_norms(rows: np.ndarray, minus: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norms of the rows of ``rows`` (less ``minus``), one coordinate at a time.

    The squares are added left to right, as ``np.linalg.norm(axis=1)`` adds
    them, so the bits are the same without an (n, 3) difference or square.
    """
    norms = np.zeros(len(rows))
    col = np.empty(len(rows))
    for k in range(3):
        if minus is None:
            np.multiply(rows[:, k], rows[:, k], out=col)
        else:
            np.subtract(rows[:, k], minus[:, k], out=col)
            col *= col
        norms += col
    return np.sqrt(norms, out=norms)


@dataclass(eq=False)
class CurveGrid:
    """Discrete sampling of a parameterized curve at one refinement level.

    ``params`` holds the strictly increasing parameter values v_i spanning
    ``param_domain`` and ``points`` the corresponding nodes w(v_i) in R^3.
    """

    params: np.ndarray
    points: np.ndarray
    level: int
    param_domain: tuple[float, float]

    def __post_init__(self):
        self.params = _freeze(np.asarray(self.params, dtype=float))
        self.points = _freeze(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise DegenerateCurveError("points must be an (n, 3) array")
        if len(self.params) != len(self.points):
            raise DegenerateCurveError("params and points length mismatch")
        if len(self.params) < 2:
            raise DegenerateCurveError("a curve grid needs at least 2 nodes")
        dv = np.diff(self.params)
        if np.any(dv <= 0):
            raise DegenerateCurveError("parameters must be strictly increasing")
        a0, b0 = self.param_domain
        if not (math.isclose(self.params[0], a0) and math.isclose(self.params[-1], b0)):
            raise DegenerateCurveError("parameter endpoints must match param_domain")
        if np.any(self.chord_lengths() == 0.0):
            raise DegenerateCurveError("consecutive nodes must be distinct")
        object.__setattr__(self, "_mesh", float(np.max(dv)))

    @property
    def node_count(self) -> int:
        return len(self.params)

    def chord_lengths(self) -> np.ndarray:
        """Euclidean lengths |w(v_{i+1}) - w(v_i)| of the node chords."""
        cached = getattr(self, "_chords", None)
        if cached is None:
            cached = _freeze(_row_norms(self.points[1:], self.points[:-1]))
            object.__setattr__(self, "_chords", cached)
        return cached

    def chord_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct chord lengths, ascending, and the number of chords of each."""
        cached = getattr(self, "_spectrum", None)
        if cached is None:
            lengths, counts = np.unique(self.chord_lengths(), return_counts=True)
            cached = (_freeze(lengths), _freeze(counts))
            object.__setattr__(self, "_spectrum", cached)
        return cached

    @property
    def mesh(self) -> float:
        """Largest parameter step max(v_{i+1} - v_i)."""
        return self._mesh

    def chord_length_sum(self) -> float:
        return float(np.sum(self.chord_lengths()))

    def unit_tangents(self) -> np.ndarray:
        """Unit chord tangents: normalized w_{i+1}-w_{i-1}, one-sided at the ends."""
        cached = getattr(self, "_tangents", None)
        if cached is None:
            p = self.points
            t = np.empty_like(p)
            np.subtract(p[2:], p[:-2], out=t[1:-1])
            t[0] = p[1] - p[0]
            t[-1] = p[-1] - p[-2]
            norms = _row_norms(t)
            if np.any(norms == 0.0):
                raise DegenerateCurveError("degenerate tangent (coincident neighbors)")
            t /= norms[:, None]
            cached = _freeze(t)
            object.__setattr__(self, "_tangents", cached)
        return cached

    def nearest_node(self, point) -> tuple[int, float]:
        """Index of the node closest to ``point`` and its distance."""
        d = np.linalg.norm(self.points - np.asarray(point, dtype=float), axis=1)
        i = int(np.argmin(d))
        return i, float(d[i])

    def scaled(self, factor: float) -> "CurveGrid":
        """Same parameterization with all points scaled by ``factor``."""
        if factor <= 0:
            raise DegenerateCurveError("scale factor must be positive")
        return CurveGrid(self.params, self.points * factor, self.level, self.param_domain)


@dataclass(frozen=True)
class AffineMap:
    """Contraction w -> scale * rotation @ w + translation, rotation 3x3 orthogonal."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _freeze(np.asarray(self.rotation, dtype=float)))
        object.__setattr__(self, "translation", _freeze(np.asarray(self.translation, dtype=float)))
        if not 0.0 < self.scale < 1.0:
            raise DegenerateCurveError("generator scale factors must lie in (0, 1)")
        # scale is the contraction ratio only if rotation preserves lengths
        r = self.rotation
        if r.shape != (3, 3) or not np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-12:
            raise DegenerateCurveError("generator rotations must be 3x3 orthogonal matrices")
        # a C-contiguous right operand keeps numpy's (n, 3) @ (3, 3) product off
        # the threaded BLAS path that a transposed view takes
        object.__setattr__(self, "_linear", _freeze((self.scale * r).T))

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self._linear + self.translation


@dataclass(frozen=True)
class GeneratorSpec:
    """Ordered affine maps replacing the unit segment from (0,0,0) to (1,0,0).

    Consecutive maps must share endpoints and the chain must be anchored at
    the unit segment's ends so iteration keeps the parameter domain [0, 1].
    """

    segments: tuple[AffineMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise DegenerateCurveError("generator needs at least one segment")
        tol = 1e-12
        if np.linalg.norm(self.segments[0].apply(_ORIGIN) - _ORIGIN) > tol:
            raise DegenerateCurveError("generator must start at the origin")
        if np.linalg.norm(self.segments[-1].apply(_E1) - _E1) > tol:
            raise DegenerateCurveError("generator must end at (1,0,0)")
        for a, b in zip(self.segments, self.segments[1:]):
            if np.linalg.norm(a.apply(_E1) - b.apply(_ORIGIN)) > tol:
                raise DegenerateCurveError("consecutive generator maps must share endpoints")

    @property
    def segment_count(self) -> int:
        return len(self.segments)


def _rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def koch_generator() -> GeneratorSpec:
    """The classic 4-map, scale-1/3 generator of the von Koch curve (z=0 plane)."""
    third = 1.0 / 3.0
    up = _rotation_z(math.pi / 3.0)
    down = _rotation_z(-math.pi / 3.0)
    eye = np.eye(3)
    return GeneratorSpec(
        (
            AffineMap(third, eye, np.zeros(3)),
            AffineMap(third, up, np.array([third, 0.0, 0.0])),
            AffineMap(third, down, np.array([0.5, math.sqrt(3.0) / 6.0, 0.0])),
            AffineMap(third, eye, np.array([2.0 * third, 0.0, 0.0])),
        )
    )


def build_generator_curve(generator: GeneratorSpec, level: int) -> CurveGrid:
    """Iterate ``generator`` ``level`` times on the unit segment.

    Produces g^level + 1 nodes with the uniform generator-index
    parameterization v_i = i / g^level, for level <= ``level_cap(g)``.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    _check_level(level, generator.segment_count)
    pts = np.array([_ORIGIN, _E1])
    for _ in range(level):
        n = len(pts) - 1
        nxt = np.empty((generator.segment_count * n + 1, 3))
        # endpoint sharing was validated on the generator; writing the maps
        # last one first leaves each shared node with the earlier map's copy
        for k in reversed(range(generator.segment_count)):
            block = nxt[k * n:(k + 1) * n + 1]
            m = generator.segments[k]
            np.matmul(pts, m._linear, out=block)
            block += m.translation
        pts = nxt
    n = len(pts) - 1  # n >= 1: pts starts with two nodes and no level shrinks it
    params = np.arange(n + 1, dtype=float) / n
    return CurveGrid(params=params, points=pts, level=level, param_domain=(0.0, 1.0))


def build_koch(level: int) -> CurveGrid:
    """Von Koch curve at the given refinement level (4^level + 1 nodes, level <= 10)."""
    return build_generator_curve(koch_generator(), level)


def build_line(a, b, n: int, level: int = 0) -> CurveGrid:
    """Straight segment from ``a`` to ``b`` sampled at n+1 equally spaced nodes.

    n is at most MAX_SEGMENTS.  ``level`` tags the grid for refinement
    studies (e.g. n = 2**level segments); it does not affect the geometry.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_SEGMENTS:
        raise ResourceLimitError(f"{n} segments exceed the budget of {MAX_SEGMENTS}")
    if np.array_equal(a, b):
        raise DegenerateCurveError("line endpoints coincide")
    frac = np.linspace(0.0, 1.0, n + 1)
    pts = a[None, :] + frac[:, None] * (b - a)[None, :]
    return CurveGrid(params=frac, points=pts, level=level, param_domain=(0.0, 1.0))


def _cantor_intervals(T: float, level: int) -> np.ndarray:
    """Kept intervals of the middle-thirds construction on [0, T], shape (2^L, 2)."""
    intervals = np.array([[0.0, T]])
    for _ in range(level):
        lo = intervals[:, 0]
        hi = intervals[:, 1]
        third = (hi - lo) / 3.0
        # each parent's two thirds, in order: the kept intervals stay sorted
        intervals = np.stack([lo, lo + third, hi - third, hi], axis=1).reshape(-1, 2)
    return intervals


def build_cantor_dust(level: int, T: float = 1.0) -> CurveGrid:
    """Middle-thirds Cantor set at finite level, embedded on a line with gaps skipped.

    Parameters are the left endpoints of the kept intervals (plus the final
    right endpoint) in the original [0, T]; positions advance only by kept
    length, so the grid's chords never straddle a removed gap.  This makes
    the grid's chord structure exactly self-similar: 2^level chords of
    length T * 3^-level, level <= 20.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if T <= 0:
        raise ValueError("T must be positive")
    _check_level(level, 2)
    intervals = _cantor_intervals(T, level)
    params = np.concatenate([intervals[:, 0], intervals[-1:, 1]])
    pts = np.zeros((len(params), 3))
    np.cumsum(intervals[:, 1] - intervals[:, 0], out=pts[1:, 0])
    return CurveGrid(params=params, points=pts, level=level, param_domain=(0.0, T))


@dataclass(eq=False)
class TimeSet:
    """Cantor-like temporal support on [0, T] with its staircase chart.

    ``time_staircase`` is the level-``level`` approximant of the devil's
    staircase: it rises linearly on each kept interval and is constant on
    the removed gaps, normalized so S(T) equals the level's pre-measure
    total 2^L (T 3^-L)^alpha / Gamma(1+alpha).
    """

    level: int
    T: float
    kept_intervals: np.ndarray
    time_staircase: "object" = field(repr=False)

    def __post_init__(self):
        self.kept_intervals = _freeze(np.asarray(self.kept_intervals, dtype=float))

    def chi(self, t) -> np.ndarray:
        """Characteristic indicator of the kept intervals (1.0 on, 0.0 off)."""
        t = np.asarray(t, dtype=float)
        lo = self.kept_intervals[:, 0]
        hi = self.kept_intervals[:, 1]
        idx = np.clip(np.searchsorted(lo, t, side="right") - 1, 0, len(lo) - 1)
        inside = (t >= lo[idx]) & (t <= hi[idx])
        return inside.astype(float)

    def tau_of(self, t):
        """Staircase time S(t) for wall time t."""
        return self.time_staircase(t)

    def t_of(self, tau):
        """Wall time on the set for staircase time tau (left endpoint on plateaus)."""
        return self.time_staircase.inverse(tau)

    def total_kept_length(self) -> float:
        return float(np.sum(self.kept_intervals[:, 1] - self.kept_intervals[:, 0]))


CANTOR_TIME_ALPHA = math.log(2.0) / math.log(3.0)


def build_cantor_time(T: float, level: int) -> TimeSet:
    """Middle-thirds removal iterated ``level`` (at most 20) times on [0, T].

    Returns the set together with its devil's-staircase chart of exponent
    ``CANTOR_TIME_ALPHA`` = log2/log3, the set's similarity dimension.
    """
    from .measure import Staircase

    if T <= 0:
        raise ValueError("T must be positive")
    if level < 0:
        raise ValueError("level must be non-negative")
    _check_level(level, 2)
    alpha = CANTOR_TIME_ALPHA
    intervals = _cantor_intervals(T, level)
    count = len(intervals)
    total = count * (T * 3.0 ** (-level)) ** alpha / math.gamma(alpha + 1.0)
    rise = total / count
    # knots at every interval endpoint: rise by `rise` across each kept
    # interval, flat across each gap (plateau values tie exactly)
    knots_t = intervals.reshape(-1)
    tops = np.arange(1, count + 1, dtype=float) * rise
    bottoms = np.concatenate([[0.0], tops[:-1]])
    knots_s = np.empty(2 * count)
    knots_s[0::2] = bottoms
    knots_s[1::2] = tops
    stair = Staircase(alpha=alpha, params=knots_t, values=knots_s, p0=0.0)
    return TimeSet(level=level, T=T, kept_intervals=intervals, time_staircase=stair)
