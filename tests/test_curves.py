import math
import tracemalloc

import numpy as np
import pytest

import fractalcurve as fc
from fractalcurve.errors import DegenerateCurveError, ResourceLimitError

from conftest import CANTOR_DIM, KOCH_DIM


def test_koch_level0_is_unit_segment():
    g = fc.build_koch(0)
    assert g.node_count == 2
    np.testing.assert_array_equal(g.points[0], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(g.points[-1], [1.0, 0.0, 0.0])


def test_koch_level1_middle_vertex():
    # direct affine-map composition by hand: the tip of the bump sits at
    # (1/2, sqrt(3)/6, 0)
    g = fc.build_koch(1)
    assert g.node_count == 5
    np.testing.assert_allclose(g.points[2], [0.5, math.sqrt(3.0) / 6.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g.points[1], [1.0 / 3.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g.points[3], [2.0 / 3.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_koch_node_count(level):
    assert fc.build_koch(level).node_count == 4 ** level + 1


def test_koch_level3_chord_sum():
    # 4^3 chords of length 3^-3
    g = fc.build_koch(3)
    assert g.node_count == 65
    np.testing.assert_allclose(g.chord_length_sum(), (4.0 / 3.0) ** 3, rtol=1e-13)


def test_koch_self_similar_chord_growth():
    sums = [fc.build_koch(l).chord_length_sum() for l in range(0, 6)]
    for lo, hi in zip(sums, sums[1:]):
        np.testing.assert_allclose(hi, (4.0 / 3.0) * lo, rtol=1e-12)


def test_koch_parameters_uniform_and_increasing():
    g = fc.build_koch(3)
    np.testing.assert_array_equal(g.params, np.arange(65) / 64.0)
    assert g.params[0] == 0.0 and g.params[-1] == 1.0
    assert np.all(np.diff(g.params) > 0)
    assert np.all(g.chord_lengths() > 0)


def test_koch_reproducible_bit_for_bit():
    a, b = fc.build_koch(4), fc.build_koch(4)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.params, b.params)


def test_level_cap():
    # one budget of 4^10 segments; no grid is built at the cap (Koch L10 takes ~1 s)
    assert fc.level_cap(4) == 10 and fc.level_cap(2) == 20 and fc.level_cap(5) == 8
    for build in (lambda: fc.build_koch(11),
                  lambda: fc.build_koch(10000),  # the check never forms 4^10000
                  lambda: fc.build_cantor_dust(21),
                  lambda: fc.build_cantor_time(1.0, 21),
                  lambda: fc.build_line((0, 0, 0), (1, 0, 0), 4 ** 10 + 1)):
        with pytest.raises(ResourceLimitError):
            build()


def test_grid_arrays_frozen():
    g = fc.build_koch(2)
    with pytest.raises(ValueError):
        g.points[0, 0] = 9.0


def test_build_line_basic():
    g = fc.build_line((0, 0, 0), (1, 0, 0), 10)
    assert g.node_count == 11
    np.testing.assert_allclose(g.chord_length_sum(), 1.0, rtol=1e-15)
    g2 = fc.build_line((0, 0, 0), (0, 2, 0), 4)
    np.testing.assert_allclose(g2.chord_length_sum(), 2.0, rtol=1e-15)


def test_build_line_degenerate():
    with pytest.raises(DegenerateCurveError):
        fc.build_line((1, 2, 3), (1, 2, 3), 4)
    with pytest.raises(ValueError):
        fc.build_line((0, 0, 0), (1, 0, 0), 0)


def test_line_tangents_are_unit_x():
    g = fc.build_line((0, 0, 0), (3, 0, 0), 8)
    np.testing.assert_allclose(g.unit_tangents(), np.tile([1.0, 0.0, 0.0], (9, 1)), atol=1e-15)


def test_generator_validation():
    eye = np.eye(3)
    with pytest.raises(DegenerateCurveError):
        fc.AffineMap(1.5, eye, np.zeros(3))
    # two half-scale maps that do not share endpoints
    bad = (
        fc.AffineMap(0.5, eye, np.zeros(3)),
        fc.AffineMap(0.5, eye, np.array([0.6, 0.0, 0.0])),
    )
    with pytest.raises(DegenerateCurveError):
        fc.GeneratorSpec(bad)


def test_generator_rotation_must_be_orthogonal():
    # scale is the contraction ratio only for a length-preserving rotation:
    # a stretch would pass every chain check and build a non-contracting map
    with pytest.raises(DegenerateCurveError, match="orthogonal"):
        fc.AffineMap(0.5, np.diag([2.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(DegenerateCurveError, match="orthogonal"):
        fc.GeneratorSpec((
            fc.AffineMap(0.5, np.diag([1.2, 1.0, 1.0]), np.zeros(3)),
            fc.AffineMap(0.5, np.diag([0.8, 1.0, 1.0]), np.array([0.6, 0.0, 0.0])),
        ))
    with pytest.raises(DegenerateCurveError, match="orthogonal"):
        fc.AffineMap(0.5, np.eye(2), np.zeros(3))
    # the Koch rotations by +-60 degrees are orthogonal to roundoff
    assert fc.build_koch(2).node_count == 17


def test_generator_with_unequal_scales():
    eye = np.eye(3)
    gen = fc.GeneratorSpec((
        fc.AffineMap(0.6, eye, np.zeros(3)),
        fc.AffineMap(0.4, eye, np.array([0.6, 0.0, 0.0])),
    ))
    g = fc.build_generator_curve(gen, 2)
    assert g.node_count == 5
    np.testing.assert_allclose(np.sort(g.chord_lengths()),
                               np.sort([0.36, 0.24, 0.24, 0.16]), rtol=1e-12)


def _rotation(axis: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about coordinate axis ``axis``."""
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


def _twisted_generator() -> fc.GeneratorSpec:
    """Two maps through (1/2, 0, 1/2), each twisted about its own segment: a 3-D curve."""
    half = math.sqrt(0.5)
    return fc.GeneratorSpec((
        fc.AffineMap(half, _rotation(1, math.pi / 4) @ _rotation(0, math.pi / 2),
                     np.zeros(3)),
        fc.AffineMap(half, _rotation(1, -math.pi / 4) @ _rotation(0, -math.pi / 3),
                     np.array([0.5, 0.0, 0.5])),
    ))


def _iterate_transposed(generator, level):
    """The builder's iteration with each map applied as pts @ (scale * rotation).T."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for _ in range(level):
        blocks = [pts @ (m.scale * m.rotation).T + m.translation for m in generator.segments]
        pts = np.concatenate([blocks[0]] + [b[1:] for b in blocks[1:]])
    return pts


@pytest.mark.parametrize("generator,level", [(fc.koch_generator(), 7),
                                             (_twisted_generator(), 14)],
                         ids=["koch-7", "twisted-14"])
def test_affine_maps_match_the_transposed_product_bit_for_bit(generator, level):
    # the maps hold their linear part as a C-contiguous (scale * rotation).T;
    # the points must not move by a single bit against the transposed view
    g = fc.build_generator_curve(generator, level)
    ref = _iterate_transposed(generator, level)
    assert g.points.tobytes() == ref.tobytes()
    if generator.segment_count == 2:
        assert np.ptp(g.points, axis=0).min() > 0.1  # spans all three axes


def test_scaled_grid():
    g = fc.build_koch(2)
    s = g.scaled(2.5)
    np.testing.assert_allclose(s.chord_length_sum(), 2.5 * g.chord_length_sum(), rtol=1e-13)
    np.testing.assert_array_equal(s.params, g.params)


def test_cantor_dust_structure():
    g = fc.build_cantor_dust(3)
    assert g.node_count == 2 ** 3 + 1
    # gap-skipped embedding: every chord has the kept-interval length
    np.testing.assert_allclose(g.chord_lengths(), np.full(8, 3.0 ** -3), rtol=1e-13)
    assert g.param_domain == (0.0, 1.0)
    assert g.params[0] == 0.0 and g.params[-1] == 1.0


def test_cantor_time_level0_and_2():
    t0 = fc.build_cantor_time(1.0, 0)
    assert t0.kept_intervals.shape == (1, 2)
    np.testing.assert_array_equal(t0.kept_intervals[0], [0.0, 1.0])

    t2 = fc.build_cantor_time(3.0, 2)
    assert t2.kept_intervals.shape == (4, 2)
    lengths = t2.kept_intervals[:, 1] - t2.kept_intervals[:, 0]
    np.testing.assert_allclose(lengths, np.full(4, 3.0 / 9.0), rtol=1e-13)


@pytest.mark.parametrize("level", [1, 4, 8])
def test_cantor_time_kept_length(level):
    ts = fc.build_cantor_time(1.0, level)
    np.testing.assert_allclose(ts.total_kept_length(), (2.0 / 3.0) ** level, rtol=1e-12)


def test_cantor_time_staircase_total_is_level_independent():
    # self-similarity oracle: 2^L (3^-L)^alpha / Gamma(1+alpha) with
    # alpha = log2/log3 is the same at every level
    expect = 1.0 / math.gamma(1.0 + CANTOR_DIM)
    for level in (2, 5, 8):
        ts = fc.build_cantor_time(1.0, level)
        np.testing.assert_allclose(ts.tau_of(1.0), expect, rtol=1e-12)


def test_cantor_time_indicator_and_inverse():
    ts = fc.build_cantor_time(1.0, 3)
    np.testing.assert_array_equal(ts.chi([0.0, 0.5, 1.0 / 3.0, 1.0]), [1, 0, 1, 1])
    # plateau values invert to the left endpoint, i.e. onto the set
    tau_gap = ts.tau_of(0.5)
    assert ts.t_of(tau_gap) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # riser values roundtrip
    t = 0.25 / 9.0
    np.testing.assert_allclose(ts.t_of(ts.tau_of(t)), t, atol=1e-14)


def test_cantor_time_validation():
    with pytest.raises(ValueError):
        fc.build_cantor_time(-1.0, 2)
    with pytest.raises(ValueError):
        fc.build_cantor_time(1.0, -1)


# --- the builders against the formulas they replaced, bit for bit ------------
# The builders write each level once and norm one coordinate at a time; these
# references are the plain formulas (a block per map, (n, 3) differences,
# np.linalg.norm, a sort per Cantor level, a concatenated cumsum).


def _reference_points(generator, level):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for _ in range(level):
        blocks = [m.apply(pts) for m in generator.segments]
        pts = np.concatenate([blocks[0]] + [b[1:] for b in blocks[1:]])
    return pts


def _reference_intervals(T, level):
    intervals = np.array([[0.0, T]])
    for _ in range(level):
        lo, hi = intervals[:, 0], intervals[:, 1]
        third = (hi - lo) / 3.0
        intervals = np.concatenate([np.stack([lo, lo + third], axis=1),
                                    np.stack([hi - third, hi], axis=1)])
        intervals = intervals[np.argsort(intervals[:, 0])]
    return intervals


def _reference_chart(grid, alpha, p0):
    inc = np.linalg.norm(np.diff(grid.points, axis=0), axis=1) ** alpha / math.gamma(alpha + 1.0)
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    p0 = grid.params[0] if p0 is None else p0
    return cum - cum[int(np.argmin(np.abs(grid.params - p0)))]


def _assert_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_grid_bits(g, params, points):
    _assert_bits(g.params, params)
    _assert_bits(g.points, points)
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    _assert_bits(g.chord_lengths(), chords)
    for got, want in zip(g.chord_spectrum(), np.unique(chords, return_counts=True)):
        _assert_bits(got, want)
    t = np.empty_like(points)
    t[1:-1] = points[2:] - points[:-2]
    t[0] = points[1] - points[0]
    t[-1] = points[-1] - points[-2]
    _assert_bits(g.unit_tangents(), t / np.linalg.norm(t, axis=1)[:, None])


@pytest.mark.parametrize("generator,levels", [(fc.koch_generator(), range(10)),
                                              (_twisted_generator(), range(15))],
                         ids=["koch-0-9", "twisted-0-14"])
def test_generator_grids_match_the_reference_formulas_bit_for_bit(generator, levels):
    for level in levels:
        points = _reference_points(generator, level)
        n = len(points) - 1
        g = fc.build_generator_curve(generator, level)
        _assert_grid_bits(g, np.arange(n + 1, dtype=float) / n, points)


def test_cantor_grids_match_the_reference_formulas_bit_for_bit():
    for level in range(21):
        intervals = _reference_intervals(0.7, level)
        points = np.zeros((len(intervals) + 1, 3))
        points[:, 0] = np.concatenate([[0.0], np.cumsum(intervals[:, 1] - intervals[:, 0])])
        params = np.concatenate([intervals[:, 0], intervals[-1:, 1]])
        _assert_grid_bits(fc.build_cantor_dust(level, 0.7), params, points)
    for level in range(13):
        _assert_bits(fc.build_cantor_time(0.7, level).kept_intervals,
                     _reference_intervals(0.7, level))


@pytest.mark.parametrize("p0", [None, 0.5, 0.37])
@pytest.mark.parametrize("alpha", [1.0, KOCH_DIM, 2.5])
def test_charts_match_the_reference_formula_bit_for_bit(alpha, p0):
    for grid in (fc.build_koch(7), fc.build_generator_curve(_twisted_generator(), 12),
                 fc.build_cantor_dust(10, 0.7)):
        stair = fc.build_staircase(grid, alpha, p0)
        values = _reference_chart(grid, alpha, p0)
        _assert_bits(stair.values, values)
        _assert_bits(stair.increments, np.diff(values))


def _traced_peak(build):
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_koch_build_allocates_little_beyond_its_grid():
    # one array per level and one coordinate column at a time: 1.4 times what
    # the grid keeps (3.2 with a block per map and (n, 3) chord differences)
    g, peak = _traced_peak(lambda: fc.build_koch(9))
    kept = g.points.nbytes + g.params.nbytes + g.chord_lengths().nbytes
    assert peak <= 1.5 * kept


def test_staircase_allocates_little_beyond_its_chart():
    # values written in place: 1.5 times what the chart keeps (2.5 with a
    # concatenated cumsum)
    grid = fc.build_koch(9)
    stair, peak = _traced_peak(lambda: fc.build_staircase(grid, KOCH_DIM, 0.37))
    kept = stair.values.nbytes + stair.increments.nbytes
    assert peak <= 1.75 * kept
