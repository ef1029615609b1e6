import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fractalcurve as fc
from fractalcurve import measure
from fractalcurve.errors import EstimationFailureError, NotOnCurveError

from conftest import CANTOR_DIM, KOCH_DIM


def test_premeasure_unit_line_alpha1():
    g = fc.build_line((0, 0, 0), (1, 0, 0), 10)
    res = fc.gamma_premeasure(g, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-14)  # Gamma(2) = 1
    assert res.mesh == pytest.approx(0.1)


def test_premeasure_koch_alpha1():
    res = fc.gamma_premeasure(fc.build_koch(3), 1.0)
    assert res.value == pytest.approx((4.0 / 3.0) ** 3, rel=1e-13)


@pytest.mark.parametrize("level", [1, 2, 4, 6])
def test_premeasure_koch_at_dimension(level):
    # self-similarity oracle: 4^L * 3^(-L*alpha) = 1 at alpha = log4/log3
    res = fc.gamma_premeasure(fc.build_koch(level), KOCH_DIM)
    assert res.value == pytest.approx(1.0 / math.gamma(1.0 + KOCH_DIM), rel=1e-10)


def test_premeasure_domain_error():
    g = fc.build_koch(2)
    with pytest.raises(ValueError):
        fc.gamma_premeasure(g, 0.0)
    with pytest.raises(ValueError):
        fc.gamma_premeasure(g, -1.3)


def test_premeasure_scale_covariance():
    g = fc.build_koch(4)
    lam = 2.5
    for alpha in (1.0, KOCH_DIM, 1.7):
        base = fc.gamma_premeasure(g, alpha).value
        scaled = fc.gamma_premeasure(g.scaled(lam), alpha).value
        np.testing.assert_allclose(scaled, lam ** alpha * base, rtol=1e-12)


def direct_premeasure(grid, alpha):
    """Oracle: sum |chord|**alpha chord by chord, exactly rounded, over Gamma(alpha+1)."""
    chords = np.linalg.norm(np.diff(grid.points, axis=0), axis=1)
    return math.fsum(chords ** alpha) / math.gamma(alpha + 1.0)


@st.composite
def _polylines(draw):
    kind = draw(st.sampled_from(["repeated", "distinct", "single"]))
    if kind == "repeated":
        # integer steps times a power of two: equal steps give equal chords exactly
        steps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=4,
                              unique=True).filter(lambda s: (0, 0, 0) not in s))
        picks = draw(st.lists(st.sampled_from(steps), min_size=2, max_size=64))
        scale = 2.0 ** draw(st.integers(-20, 20))
        points = np.cumsum([(0, 0, 0)] + picks, axis=0) * scale
    else:
        coords = st.floats(-10.0, 10.0, allow_nan=False)
        count = 2 if kind == "single" else draw(st.integers(3, 65))
        points = np.array(draw(st.lists(st.tuples(coords, coords, coords),
                                        min_size=count, max_size=count)))
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    assume(np.all(chords > 0))
    if kind != "single":
        # a "repeated" polyline repeats some chord length, a "distinct" one none
        assume((len(np.unique(chords)) < len(chords)) == (kind == "repeated"))
    n = len(chords)
    return fc.CurveGrid(np.arange(n + 1) / n, points, level=0, param_domain=(0.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid=_polylines(), alpha=st.floats(0.05, 3.0))
def test_premeasure_equals_the_chord_by_chord_sum(grid, alpha):
    # the spectrum regroups the sum by equal lengths; only its rounding may differ
    n = grid.node_count - 1
    value = fc.gamma_premeasure(grid, alpha).value
    oracle = direct_premeasure(grid, alpha)
    assert abs(value - oracle) <= 4 * n * np.finfo(float).eps * oracle


def test_chord_spectrum_counts_every_chord_once():
    g = fc.build_cantor_dust(6)
    lengths, counts = g.chord_spectrum()
    assert g.chord_spectrum()[0] is lengths  # computed once per grid
    assert not lengths.flags.writeable and not counts.flags.writeable
    assert np.all(np.diff(lengths) > 0) and counts.sum() == g.node_count - 1
    np.testing.assert_array_equal(np.repeat(lengths, counts), np.sort(g.chord_lengths()))
    assert g.mesh == np.max(np.diff(g.params))


def test_scaled_grid_has_its_own_spectrum():
    g = fc.build_koch(3)
    base = fc.gamma_premeasure(g, KOCH_DIM).value  # caches g's spectrum
    s = g.scaled(2.5)
    assert s.chord_spectrum()[0] is not g.chord_spectrum()[0]
    np.testing.assert_array_equal(s.chord_spectrum()[0], np.unique(s.chord_lengths()))
    assert fc.gamma_premeasure(s, KOCH_DIM).value == pytest.approx(2.5 ** KOCH_DIM * base,
                                                                   rel=1e-12)
    assert fc.gamma_premeasure(g, KOCH_DIM).value == base


@pytest.mark.parametrize("build,levels", [(fc.build_koch, range(3, 10)),
                                          (fc.build_cantor_dust, range(4, 16))],
                         ids=["koch-3-9", "dust-4-15"])
def test_dimension_equals_bisection_over_the_direct_sum(monkeypatch, build, levels):
    grids = [build(l) for l in levels]
    est = fc.estimate_gamma_dimension(grids, tol=1e-9)
    monkeypatch.setattr(measure, "gamma_premeasure", lambda g, alpha: measure.PreMeasureResult(
        alpha=alpha, level=g.level, value=direct_premeasure(g, alpha), mesh=g.mesh))
    oracle = fc.estimate_gamma_dimension(grids, tol=1e-9)
    assert est.alpha_star == oracle.alpha_star and est.bracket == oracle.bracket


def test_refinement_dichotomy_around_koch_dimension():
    grids = [fc.build_koch(l) for l in range(2, 8)]
    below = [fc.gamma_premeasure(g, KOCH_DIM - 0.1).value for g in grids]
    above = [fc.gamma_premeasure(g, KOCH_DIM + 0.1).value for g in grids]
    assert np.all(np.diff(below) > 0)
    assert np.all(np.diff(above) < 0)


def test_staircase_line_identity():
    g = fc.build_line((0, 0, 0), (1, 0, 0), 64)
    st = fc.build_staircase(g, 1.0, p0=0.0)
    np.testing.assert_allclose(st.values, g.params, atol=1e-14)


def test_staircase_base_point_and_signs():
    g = fc.build_line((0, 0, 0), (1, 0, 0), 10)
    st = fc.build_staircase(g, 1.0, p0=0.5)
    assert st(0.5) == 0.0
    assert np.all(st.values[:5] < 0) and np.all(st.values[6:] > 0)
    assert np.all(np.diff(st.values) >= 0)


def test_staircase_koch_self_similar_quarter():
    st = fc.build_staircase(fc.build_koch(4), KOCH_DIM, p0=0.0)
    total = 1.0 / math.gamma(1.0 + KOCH_DIM)
    np.testing.assert_allclose(st.values[-1], total, rtol=1e-12)
    # the first quarter of the parameter range is a 1/3-scale copy
    np.testing.assert_allclose(st(0.25), total / 4.0, rtol=1e-12)


def test_staircase_additivity():
    g = fc.build_koch(4)
    st = fc.build_staircase(g, KOCH_DIM)
    a, b, c = 0.0, g.params[97], 1.0
    gamma_ab = st(b) - st(a)
    gamma_bc = st(c) - st(b)
    np.testing.assert_allclose(gamma_ab + gamma_bc, st(c) - st(a), rtol=1e-12)


def test_staircase_p0_snaps_to_node():
    g = fc.build_line((0, 0, 0), (1, 0, 0), 10)
    st = fc.build_staircase(g, 1.0, p0=0.5203)
    assert st.p0 == 0.5
    assert st(0.5) == 0.0


def test_staircase_inverse_left_plateau():
    ts = fc.build_cantor_time(1.0, 4)
    st = ts.time_staircase
    # 0.5 sits in the central gap; its plateau value inverts to the gap's left edge
    top = st(0.5)
    v = st.inverse(top)
    assert v == pytest.approx(1.0 / 3.0, abs=1e-15)
    # riser interior roundtrips
    np.testing.assert_allclose(st.inverse(st(0.01)), 0.01, atol=1e-13)


def test_staircase_validation():
    with pytest.raises(ValueError):
        fc.Staircase(alpha=1.0, params=np.array([0.0, 1.0, 1.0]),
                     values=np.array([0.0, 1.0, 2.0]), p0=0.0)
    with pytest.raises(ValueError):
        fc.Staircase(alpha=1.0, params=np.array([0.0, 0.5, 1.0]),
                     values=np.array([0.0, 1.0, 0.5]), p0=0.0)


def test_staircase_increments_are_one_frozen_array():
    # the chart never changes, so its increments are computed once and shared
    st = fc.build_staircase(fc.build_koch(3), KOCH_DIM)
    inc = st.increments
    assert st.increments is inc and not inc.flags.writeable
    np.testing.assert_array_equal(inc, np.diff(st.values))
    with pytest.raises(ValueError):
        inc[0] = 1.0


def test_j_of_point():
    g = fc.build_line((0, 0, 0), (1, 0, 0), 10)
    st = fc.build_staircase(g, 1.0, p0=0.0)
    assert fc.j_of_point(st, g, (0.0, 0.0, 0.0)) == 0.0
    assert fc.j_of_point(st, g, (0.5, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-14)

    gk = fc.build_koch(3)
    stk = fc.build_staircase(gk, KOCH_DIM)
    total = fc.gamma_premeasure(gk, KOCH_DIM).value
    np.testing.assert_allclose(fc.j_of_point(stk, gk, (1.0, 0.0, 0.0)), total, rtol=1e-12)

    with pytest.raises(NotOnCurveError):
        fc.j_of_point(st, g, (0.5, 0.3, 0.0))


def test_estimate_dimension_koch():
    grids = [fc.build_koch(l) for l in range(2, 8)]
    est = fc.estimate_gamma_dimension(grids, tol=1e-3)
    assert abs(est.alpha_star - KOCH_DIM) < 5e-3
    lo, hi = est.bracket
    assert lo <= est.alpha_star <= hi and hi - lo <= 1e-3
    assert est.levels_used == (2, 3, 4, 5, 6, 7)
    # at the estimated dimension the log pre-measure is nearly flat
    assert abs(est.slope_at_alpha) < 1e-3


def test_estimate_dimension_line_and_dust():
    lines = [fc.build_line((0, 0, 0), (1, 0, 0), 2 ** l, level=l) for l in range(1, 7)]
    assert abs(fc.estimate_gamma_dimension(lines, tol=1e-4).alpha_star - 1.0) < 1e-3

    dust = [fc.build_cantor_dust(l) for l in range(2, 8)]
    est = fc.estimate_gamma_dimension(dust, tol=1e-3)
    assert abs(est.alpha_star - CANTOR_DIM) < 5e-3


def test_estimate_dimension_scale_invariant():
    grids = [fc.build_koch(l) for l in range(2, 7)]
    scaled = [g.scaled(3.7) for g in grids]
    a = fc.estimate_gamma_dimension(grids, tol=1e-3).alpha_star
    b = fc.estimate_gamma_dimension(scaled, tol=1e-3).alpha_star
    assert abs(a - b) <= 1e-3


def test_estimate_dimension_preconditions():
    grids = [fc.build_koch(l) for l in (2, 3)]
    with pytest.raises(ValueError):
        fc.estimate_gamma_dimension(grids, tol=1e-3)
    grids = [fc.build_koch(2), fc.build_koch(3), fc.build_koch(3)]
    with pytest.raises(ValueError):
        fc.estimate_gamma_dimension(grids, tol=1e-3)
    with pytest.raises(ValueError):
        fc.estimate_gamma_dimension([fc.build_koch(l) for l in (2, 3, 4)], tol=0.0)


def test_estimate_dimension_failure_carries_slopes():
    # lengths 1, 2, 1 over increasing levels: no refinement dichotomy
    grids = [
        fc.build_line((0, 0, 0), (1, 0, 0), 4, level=1),
        fc.build_line((0, 0, 0), (2, 0, 0), 8, level=2),
        fc.build_line((0, 0, 0), (1, 0, 0), 16, level=3),
    ]
    with pytest.raises(EstimationFailureError) as exc:
        fc.estimate_gamma_dimension(grids, tol=1e-3)
    assert exc.value.slopes is not None and len(exc.value.slopes) == 2


def _x_axis_grid(level, positions):
    n = len(positions) - 1
    points = np.zeros((n + 1, 3))
    points[:, 0] = positions
    return fc.CurveGrid(np.arange(n + 1) / n, points, level=level, param_domain=(0.0, 1.0))


def thin_dust(level):
    # two pieces of ratio 1e-7 with the gap skipped: 2^L chords of (1e-7)^L
    return _x_axis_grid(level, np.arange(2 ** level + 1) * 1e-7 ** level)


def zigzag(branches, level):
    # back and forth on the x-axis: branches^L chords of 2^-L
    return _x_axis_grid(level, (np.arange(branches ** level + 1) % 2) * 0.5 ** level)


@pytest.mark.parametrize("tol", [1e-3, 1e-9])
@pytest.mark.parametrize("family,levels,dim,ratio", [
    (thin_dust, range(1, 4), math.log(2.0) / math.log(1e7), 1e-7),
    (lambda l: zigzag(10, l), range(1, 5), math.log2(10.0), 0.5),
], ids=["thin-dust-below-0.05", "zigzag-above-3"])
def test_dimension_outside_the_first_bracket(family, levels, dim, ratio, tol):
    # the first bracket (0.05, 3.0) misses the dimension, so it must move;
    # exponents whose per-level log slope |alpha - dim| log(1/ratio) is
    # within the tie tolerance count as the dimension
    est = fc.estimate_gamma_dimension([family(l) for l in levels], tol=tol)
    lo, hi = est.bracket
    assert lo <= est.alpha_star <= hi and hi - lo <= tol
    assert abs(est.alpha_star - dim) <= tol + measure._TIE_TOL / math.log(1.0 / ratio)


@pytest.mark.parametrize("tol", [1e-3, 1e-9])
def test_dimension_at_a_flat_bracket_end_is_that_end(tol):
    # 8^L chords of 2^-L: at alpha = 3 every level's pre-measure is 1/6
    est = fc.estimate_gamma_dimension([zigzag(8, l) for l in range(1, 5)], tol=tol)
    assert est.alpha_star == 3.0 and est.bracket == (3.0, 3.0)


def test_estimate_dimension_rejects_an_underflowing_premeasure():
    # at alpha = 3 the chords of 1e-110 / 3^L give pre-measures below the
    # smallest float, whose log does not exist
    grids = [fc.build_koch(l).scaled(1e-110) for l in range(2, 7)]
    with pytest.raises(EstimationFailureError) as exc:
        fc.estimate_gamma_dimension(grids, tol=1e-3)
    assert exc.value.alpha == 3.0


def test_estimate_dimension_rejects_an_overflowing_premeasure():
    # at alpha = 3 the chords of 1e105 / 3^L give infinite pre-measures,
    # whose differences are NaN and must not read as flat
    grids = [fc.build_koch(l).scaled(1e105) for l in range(2, 7)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EstimationFailureError) as exc:
            fc.estimate_gamma_dimension(grids, tol=1e-3)
    assert exc.value.alpha == 3.0


def test_estimate_dimension_rejects_an_overflowing_gamma():
    # 2^L chords of 0.999^L have dimension log 2 / -log 0.999 (about 693); the
    # bracket doubles to 192, where Gamma(alpha + 1) exceeds the float range
    grids = [_x_axis_grid(l, (np.arange(2 ** l + 1) % 2) * 0.999 ** l) for l in (1, 2, 3)]
    with pytest.raises(EstimationFailureError) as exc:
        fc.estimate_gamma_dimension(grids, tol=1e-3)
    assert exc.value.alpha == 192.0


def test_report_dict_fields():
    grids = [fc.build_koch(l) for l in range(2, 6)]
    report = fc.estimate_gamma_dimension(grids, tol=1e-2).to_report_dict()
    assert set(report) == {"alpha_star", "bracket", "levels_used",
                           "slope_at_alpha", "slopes_per_level"}
    assert len(report["slopes_per_level"]) == 3
