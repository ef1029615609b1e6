import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcurve as fc
from fractalcurve.errors import AlignmentError, PlateauError

from conftest import KOCH_DIM, fit_slope

finite_coeff = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


def koch_field(level, fn):
    grid = fc.build_koch(level)
    chart = fc.build_staircase(grid, KOCH_DIM)
    return fc.FieldOnCurve.from_chart_function(grid, chart, fn), chart


def test_derivative_of_constant_is_zero():
    f, _ = koch_field(4, lambda s: np.full_like(s, 3.7))
    assert np.max(np.abs(fc.falpha_derivative(f).values)) == 0.0


def test_derivative_of_chart_is_one():
    f, _ = koch_field(4, lambda s: s)
    np.testing.assert_allclose(fc.falpha_derivative(f).values, 1.0, rtol=1e-12)


def test_derivative_of_chart_squared():
    # analytic oracle 2S; exact on the uniform-increment Koch chart
    f, chart = koch_field(5, lambda s: s ** 2)
    np.testing.assert_allclose(fc.falpha_derivative(f).values, 2.0 * chart.values,
                               rtol=0, atol=1e-11)


def test_derivative_convergence_order():
    k = 2.0 * math.pi
    errs, hs = [], []
    for level in (4, 5, 6):
        f, chart = koch_field(level, lambda s: np.sin(k * s))
        got = fc.falpha_derivative(f).values
        errs.append(np.max(np.abs(got - k * np.cos(k * chart.values))))
        hs.append(np.max(chart.increments))
    assert fit_slope(hs, errs) >= 1.9


def test_derivative_plateau_error():
    grid = fc.build_line((0, 0, 0), (1, 0, 0), 4)
    chart = fc.Staircase(alpha=1.0, params=grid.params,
                         values=np.array([0.0, 1.0, 1.0, 2.0, 3.0]), p0=0.0)
    f = fc.FieldOnCurve(grid, np.arange(5.0), chart)
    with pytest.raises(PlateauError) as exc:
        fc.falpha_derivative(f)
    assert exc.value.node_index == 1


@pytest.mark.parametrize("make", [
    lambda: koch_field(5, lambda s: np.ones_like(s)),
    lambda: koch_field(3, lambda s: np.ones_like(s)),
])
def test_integral_of_one_is_staircase_difference(make):
    f, chart = make()
    total = chart.values[-1] - chart.values[0]
    assert fc.falpha_integral(f) == pytest.approx(total, rel=1e-12)
    a, b = f.grid.params[3], f.grid.params[-5]
    assert fc.falpha_integral(f, a, b) == pytest.approx(chart(b) - chart(a), rel=1e-12)


def test_integral_empty_and_alignment():
    f, _ = koch_field(3, lambda s: s)
    assert fc.falpha_integral(f, 0.25, 0.25) == 0.0
    with pytest.raises(AlignmentError):
        fc.falpha_integral(f, 0.2500001, 1.0)
    with pytest.raises(AlignmentError):
        fc.falpha_integral(f, 0.5, 0.25)


def test_integral_of_chart():
    # antiderivative oracle S^2/2
    f, chart = koch_field(5, lambda s: s)
    expect = (chart.values[-1] ** 2 - chart.values[0] ** 2) / 2.0
    assert fc.falpha_integral(f) == pytest.approx(expect, rel=1e-12)


def test_integral_additive_over_ranges():
    f, _ = koch_field(4, lambda s: np.cos(3.0 * s))
    a, m, b = 0.0, f.grid.params[100], 1.0
    whole = fc.falpha_integral(f, a, b)
    split = fc.falpha_integral(f, a, m) + fc.falpha_integral(f, m, b)
    assert split == pytest.approx(whole, rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(a=finite_coeff, b=finite_coeff)
def test_linearity(a, b):
    f, chart = koch_field(3, lambda s: np.sin(5.0 * s))
    g, _ = koch_field(3, lambda s: s ** 3 - s)
    combo = f.with_values(a * f.values + b * g.values)
    lhs = fc.falpha_derivative(combo).values
    rhs = a * fc.falpha_derivative(f).values + b * fc.falpha_derivative(g).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    lhs_i = fc.falpha_integral(combo)
    rhs_i = a * fc.falpha_integral(f) + b * fc.falpha_integral(g)
    assert lhs_i == pytest.approx(rhs_i, rel=1e-12, abs=1e-12)


def test_fundamental_theorem_sin():
    k = 2.0 * math.pi
    errs, hs = [], []
    for level in (5, 6, 7):
        f, chart = koch_field(level, lambda s: np.sin(k * s))
        got = fc.falpha_integral(fc.falpha_derivative(f))
        expect = np.sin(k * chart.values[-1]) - np.sin(k * chart.values[0])
        errs.append(abs(got - expect))
        hs.append(np.max(chart.increments))
    assert fit_slope(hs, errs) >= 0.9
    assert errs[-1] < 1e-3


def test_fundamental_theorem_polynomials_hit_roundoff():
    for fn, exact in ((lambda s: s, lambda s: s), (lambda s: s ** 2, lambda s: s ** 2)):
        f, chart = koch_field(5, fn)
        got = fc.falpha_integral(fc.falpha_derivative(f))
        expect = exact(chart.values[-1]) - exact(chart.values[0])
        assert abs(got - expect) < 1e-12


def test_integral_then_derivative_recovers_field():
    # build g(v) = integral of f up to v, check Dg = f at interior nodes
    f, chart = koch_field(5, lambda s: np.sin(4.0 * s))
    grid = f.grid
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (f.values[:-1] + f.values[1:]) * chart.increments)])
    g = f.with_values(cum)
    dg = fc.falpha_derivative(g).values
    err = np.max(np.abs(dg[1:-1] - f.values[1:-1]))
    assert err < 5.0 * np.max(chart.increments)


def test_constancy_from_zero_derivative():
    f, _ = koch_field(4, lambda s: np.full_like(s, 2.0))
    assert np.max(np.abs(fc.falpha_derivative(f).values)) == 0.0
    np.testing.assert_allclose(f.values, f.values[0], atol=1e-12)
    # contrapositive: a field with a jump has a nonzero discrete derivative
    vals = np.where(f.grid.params < 0.5, 0.0, 1.0)
    jumped = f.with_values(vals)
    assert np.max(np.abs(fc.falpha_derivative(jumped).values)) > 0.0


def test_alpha1_line_reduction():
    grid = fc.build_line((0, 0, 0), (2, 0, 0), 512)
    chart = fc.build_staircase(grid, 1.0)
    s = chart.values
    f = fc.FieldOnCurve(grid, np.sin(s), chart)
    h = s[1] - s[0]
    np.testing.assert_allclose(fc.falpha_derivative(f).values, np.cos(s), atol=2.0 * h ** 2)
    np.testing.assert_allclose(fc.laplacian(f).values, -np.sin(s), atol=20.0 * h ** 2)
    assert fc.falpha_integral(f) == pytest.approx(1.0 - math.cos(2.0), abs=1e-5)
    grad = fc.gradient(f)
    np.testing.assert_allclose(grad.values[:, 0], np.cos(s), atol=2.0 * h ** 2)
    np.testing.assert_allclose(grad.values[:, 1], 0.0, atol=1e-15)


def test_gradient_constant_and_line():
    f, _ = koch_field(3, lambda s: np.full_like(s, 1.5))
    assert np.max(np.abs(fc.gradient(f).values)) == 0.0

    grid = fc.build_line((0, 0, 0), (1, 0, 0), 32)
    chart = fc.build_staircase(grid, 1.0)
    g = fc.FieldOnCurve(grid, chart.values.copy(), chart)
    vals = fc.gradient(g).values
    np.testing.assert_allclose(vals[1:-1], np.tile([1.0, 0.0, 0.0], (31, 1)), atol=1e-13)


def test_gradient_koch_matches_tangent_oracle():
    f, chart = koch_field(4, lambda s: s ** 2)
    got = fc.gradient(f).values
    oracle = 2.0 * chart.values[:, None] * f.grid.unit_tangents()
    np.testing.assert_allclose(got, oracle, atol=1e-10)


def test_laplacian_quadratic_exactness():
    f, _ = koch_field(5, lambda s: s ** 2)
    np.testing.assert_allclose(fc.laplacian(f).values, 2.0, rtol=0, atol=1e-9)
    c, _ = koch_field(4, lambda s: np.full_like(s, 4.2))
    assert np.max(np.abs(fc.laplacian(c).values)) == 0.0


def test_laplacian_convergence_order():
    k = 2.0 * math.pi
    errs, hs = [], []
    for level in (4, 5, 6):
        f, chart = koch_field(level, lambda s: np.sin(k * s))
        got = fc.laplacian(f).values
        errs.append(np.max(np.abs(got + k * k * np.sin(k * chart.values))))
        hs.append(np.max(chart.increments))
    assert fit_slope(hs, errs) >= 1.9


def test_field_alignment_validation():
    grid = fc.build_koch(3)
    chart = fc.build_staircase(grid, KOCH_DIM)
    with pytest.raises(AlignmentError):
        fc.FieldOnCurve(grid, np.zeros(10), chart)
    other = fc.build_line((0, 0, 0), (1, 0, 0), 100)
    other_chart = fc.build_staircase(other, 1.0)
    with pytest.raises(AlignmentError):
        fc.FieldOnCurve(grid, np.zeros(101), other_chart)
    # charts that do not share the grid's params array get the full knot check
    n = grid.node_count
    copied = fc.Staircase(chart.alpha, chart.params.copy(), chart.values, chart.p0)
    fc.FieldOnCurve(grid, np.zeros(n), copied)
    shifted = fc.Staircase(chart.alpha, 0.5 * chart.params, chart.values, chart.p0)
    with pytest.raises(AlignmentError):
        fc.FieldOnCurve(grid, np.zeros(n), shifted)
    # a vector field takes the same two checks on its (n, 3) array
    fc.VectorFieldOnCurve(grid, np.zeros((n, 3)), copied)
    for bad in (np.zeros(n), np.zeros((n, 2)), np.zeros((3, n))):
        with pytest.raises(AlignmentError):
            fc.VectorFieldOnCurve(grid, bad, chart)
    with pytest.raises(AlignmentError):
        fc.VectorFieldOnCurve(grid, np.zeros((n, 3)), shifted)


def test_taylor_order_zero_and_validation():
    assert fc.taylor_eval([4.5], 0.3, 0) == 4.5
    with pytest.raises(ValueError):
        fc.taylor_eval([1.0], 0.1, 1)
    with pytest.raises(ValueError):
        fc.taylor_eval([1.0], 0.1, -1)


@settings(max_examples=40, deadline=None)
@given(sp=finite_coeff, ds=finite_coeff)
def test_taylor_quadratic_exactness(sp, ds):
    # derivatives of S^2 at S': (S'^2, 2S', 2); order 2 reproduces (S'+dS)^2
    got = fc.taylor_eval([sp ** 2, 2.0 * sp, 2.0], ds, 2)
    np.testing.assert_allclose(got, (sp + ds) ** 2, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("order", [1, 3, 5, 8])
def test_taylor_remainder_bound_for_exp(order):
    # Lagrange remainder: |err| <= dS^(N+1)/(N+1)! * exp(S'+dS)
    sp, ds = 0.4, 0.1
    derivs = [math.exp(sp)] * (order + 1)
    got = fc.taylor_eval(derivs, ds, order)
    err = abs(got - math.exp(sp + ds))
    bound = ds ** (order + 1) / math.factorial(order + 1) * math.exp(sp + ds)
    assert err <= bound * (1.0 + 1e-12)
