import math

import numpy as np
import pytest

import fractalcurve as fc

from conftest import KOCH_DIM, fit_slope, wrapped_gaussian

CONST = fc.PhysicalConstants()


def _plane_wave(grid, chart, periods=1):
    k = 2.0 * math.pi * periods / chart.total
    return fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart), k


def test_density_plane_wave_is_one(koch5):
    psi, _ = _plane_wave(*koch5)
    np.testing.assert_allclose(fc.probability_density(psi).values, 1.0, atol=1e-14)


def test_density_zero_state(koch5):
    grid, chart = koch5
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 0.0 + 0j))
    assert np.max(fc.probability_density(psi).values) == 0.0


def test_density_analytic_gaussian_normalization():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    s = chart.values
    sigma = 1.0
    vals = (2.0 * math.pi * sigma ** 2) ** -0.25 * np.exp(-((s - 8.0) ** 2) / (4 * sigma ** 2))
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals + 0j, chart))
    assert fc.total_probability(psi) == pytest.approx(1.0, abs=1e-8)


def test_current_plane_wave(koch5):
    psi, k = _plane_wave(*koch5, periods=2)
    j = fc.probability_current(psi).values
    expect = CONST.hbar * k / CONST.mass
    dxi = np.max(psi.space_chart.increments)
    np.testing.assert_allclose(j, expect, rtol=(k * dxi) ** 2 * 2.0)


def test_current_real_state_and_conjugation(koch5):
    grid, chart = koch5
    real = fc.WaveFunction(fc.FieldOnCurve(grid, np.cos(3.0 * chart.values) + 0j, chart))
    assert np.max(np.abs(fc.probability_current(real).values)) == 0.0

    psi, _ = _plane_wave(grid, chart)
    j = fc.probability_current(psi).values
    j_conj = fc.probability_current(psi.with_values(np.conj(psi.values))).values
    np.testing.assert_array_equal(j_conj, -j)


def test_current_of_constant_state_is_zero(koch5):
    grid, chart = koch5
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 0.7 - 0.2j))
    assert np.max(np.abs(fc.probability_current(psi).values)) == 0.0


def test_continuity_residual_stationary_state():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    vfield = fc.FieldOnCurve.from_chart_function(grid, chart,
                                                 lambda s: 0.5 * (s - 8.0) ** 2)
    potential = fc.PotentialOnCurve(vfield)
    gs = fc.stationary_ground_state(grid, chart, potential)
    ev = fc.CrankNicolsonEvolver(gs, potential, d_tau=1e-3, boundary="dirichlet")
    ev.step(5); a = ev.snapshot()
    ev.step(1); b = ev.snapshot()
    ev.step(1); c = ev.snapshot()
    res = fc.continuity_residual(a, b, c)
    assert np.max(res.values) <= 1e-8


def test_continuity_residual_plane_wave(koch5):
    # uniform rho / uniform J oracle holds wherever the central stencil
    # applies; the two one-sided closure nodes are first-order only
    grid, chart = koch5
    psi, k = _plane_wave(grid, chart)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="periodic")
    ev.step(3); a = ev.snapshot()
    ev.step(1); b = ev.snapshot()
    ev.step(1); c = ev.snapshot()
    res = fc.continuity_residual(a, b, c)
    dxi = np.max(chart.increments)
    assert np.max(res.values[2:-2]) < 10.0 * k ** 3 * dxi ** 2
    assert np.max(res.values) < k ** 3 * dxi


def test_continuity_residual_convergence_slope():
    errs, hs = [], []
    for level, dt in ((4, 8e-4), (5, 2e-4)):
        grid = fc.build_koch(level)
        chart = fc.build_staircase(grid, KOCH_DIM)
        psi = wrapped_gaussian(grid, chart)
        ev = fc.CrankNicolsonEvolver(psi, None, d_tau=dt, boundary="periodic")
        ev.step(int(round(0.004 / dt))); a = ev.snapshot()
        ev.step(1); b = ev.snapshot()
        ev.step(1); c = ev.snapshot()
        errs.append(np.max(fc.continuity_residual(a, b, c).values))
        hs.append(np.max(chart.increments))
    assert fit_slope(hs, errs) >= 1.9


def test_total_probability_scaling(koch5):
    grid, chart = koch5
    psi, _ = _plane_wave(grid, chart)
    p = fc.total_probability(psi)
    np.testing.assert_allclose(fc.total_probability(psi.with_values(2.0 * psi.values)),
                               4.0 * p, rtol=1e-12)
    zero = psi.with_values(np.zeros_like(psi.values))
    assert fc.total_probability(zero) == 0.0


def test_conservation_medium_run():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 511)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=1.0, k0=1.0)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="dirichlet")
    p0 = fc.total_probability(ev.snapshot())
    ev.step(300)
    assert abs(fc.total_probability(ev.snapshot()) - p0) <= 1e-11


def test_product_rule_identity():
    # d(rho)/d(tau) equals psi* dpsi + psi dpsi* on matched central stencils
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 511)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=1.5, k0=2.0)
    dt = 1e-3
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=dt, boundary="dirichlet")
    ev.step(10); a = ev.snapshot()
    ev.step(1); b = ev.snapshot()
    ev.step(1); c = ev.snapshot()
    lhs = (np.abs(c.values) ** 2 - np.abs(a.values) ** 2) / (2 * dt)
    dpsi = (c.values - a.values) / (2 * dt)
    rhs = np.real(np.conj(b.values) * dpsi + b.values * np.conj(dpsi))
    assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_hamiltonian_expectation_is_real():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.gaussian_packet(grid, chart, center=7.0, sigma=1.0, k0=3.0)
    vfield = fc.FieldOnCurve.from_chart_function(grid, chart,
                                                 lambda s: 0.5 * (s - 8.0) ** 2)
    h = fc.hamiltonian_apply(psi, fc.PotentialOnCurve(vfield))
    val = fc.falpha_integral(psi.field.with_values(np.conj(psi.values) * h.values))
    assert abs(val.imag) <= 1e-10 * abs(val.real)
