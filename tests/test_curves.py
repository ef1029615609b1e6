import math

import numpy as np
import pytest

import fractalcurve as fc
from fractalcurve.errors import DegenerateCurveError, ResourceLimitError

from conftest import CANTOR_DIM


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
