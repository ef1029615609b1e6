import cmath
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

import fractalcurve as fc
from fractalcurve.errors import (
    AlignmentError,
    ConjugacyError,
    QuadratureError,
    ResolutionError,
    SolverError,
)

from conftest import KOCH_DIM, fit_slope

CONST = fc.PhysicalConstants()


def test_constants_validation():
    with pytest.raises(ValueError):
        fc.PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        fc.PhysicalConstants(mass=-1.0)


def test_plane_wave_params():
    p = fc.PlaneWaveParams.from_wavenumber(3.0)
    assert p.E == pytest.approx(4.5)
    assert p.beta == pytest.approx(4.5)
    q = fc.PlaneWaveParams.from_energy(p.E)
    assert q.k == pytest.approx(3.0)
    bad = fc.PlaneWaveParams(A=1.0, B=0.0, k=3.0, beta=1.0, E=4.5)
    with pytest.raises(ValueError):
        bad.validate(CONST)


def test_plane_wave_modulus_and_zero(koch5):
    grid, chart = koch5
    p = fc.PlaneWaveParams.from_wavenumber(2.0 * math.pi / chart.total)
    psi = fc.plane_wave(p, grid, chart)
    np.testing.assert_allclose(np.abs(psi.values), 1.0, atol=1e-14)
    zero = fc.plane_wave(fc.PlaneWaveParams(A=0.0, B=0.0, k=1.0, beta=0.5, E=0.5),
                         grid, chart)
    assert np.max(np.abs(zero.values)) == 0.0


def test_conjugate_map_plane_wave_is_plane_wave(koch5):
    # substitution oracle: psi = exp(i k S(v)) becomes theta = exp(i k xi)
    grid, chart = koch5
    k = 5.0
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, np.exp(1j * k * chart.values), chart))
    conj = fc.conjugate_map(psi)
    np.testing.assert_allclose(conj.values, np.exp(1j * k * conj.xi), atol=1e-12)


def test_conjugate_roundtrip_identity(koch5):
    grid, chart = koch5
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.node_count) + 1j * rng.normal(size=grid.node_count)
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart))
    back = fc.conjugate_unmap(fc.conjugate_map(psi), psi)
    np.testing.assert_allclose(back.values, psi.values, atol=1e-12)
    # periodic grids wrap the seam node onto the first point
    per = fc.conjugate_map(psi, periodic=True)
    assert len(per.xi) == grid.node_count - 1
    back_per = fc.conjugate_unmap(per, psi)
    np.testing.assert_allclose(back_per.values[:-1], psi.values[:-1], atol=1e-12)
    assert back_per.values[-1] == back_per.values[0]


@pytest.mark.parametrize("periodic", [False, True])
def test_conjugate_roundtrip_exact_at_koch9(periodic):
    # cumsum-built knots sit ~1e-12 off a linspace grid at 262k nodes;
    # uniform increments still make both directions a copy
    grid = fc.build_koch(9)
    chart = fc.build_staircase(grid, KOCH_DIM)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=grid.node_count) + 1j * rng.normal(size=grid.node_count)
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart))
    back = fc.conjugate_unmap(fc.conjugate_map(psi, periodic=periodic), psi)
    keep = slice(0, grid.node_count - periodic)
    assert np.array_equal(back.values[keep], psi.values[keep])


@pytest.mark.parametrize("periodic", [False, True])
def test_conjugate_unmap_interpolates_off_the_node_grid(koch5, periodic):
    # one xi point per node, but shifted or stretched: a copy would misplace the values
    grid, chart = koch5
    k = 2.0 * math.pi / chart.total
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, np.exp(1j * k * chart.values), chart))
    conj = fc.conjugate_map(psi, periodic=periodic)
    s0 = conj.xi[0]
    for xi in (conj.xi + 0.5 * conj.dxi, s0 + 1.01 * (conj.xi - s0)):
        moved = fc.ConjugateField(xi, np.exp(1j * k * xi), periodic=periodic)
        back = fc.conjugate_unmap(moved, psi)
        inside = chart.values >= xi[0]
        assert np.max(np.abs(back.values - psi.values)[inside]) < 1e-4


def test_conjugate_map_constant_and_nonuniform():
    eye = np.eye(3)
    gen = fc.GeneratorSpec((
        fc.AffineMap(0.6, eye, np.zeros(3)),
        fc.AffineMap(0.4, eye, np.array([0.6, 0.0, 0.0])),
    ))
    grid = fc.build_generator_curve(gen, 6)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 2.0 - 1.0j))
    conj = fc.conjugate_map(psi)
    np.testing.assert_allclose(conj.values, 2.0 - 1.0j, atol=1e-14)
    assert np.allclose(np.diff(conj.xi), conj.dxi)
    # smooth data resamples within interpolation error on the nonuniform chart
    smooth = fc.WaveFunction(fc.FieldOnCurve(grid, np.sin(3.0 * chart.values) + 0j, chart))
    cj = fc.conjugate_map(smooth)
    assert np.max(np.abs(cj.values - np.sin(3.0 * cj.xi))) < 1e-3


def test_conjugate_map_degenerate_chart():
    grid = fc.build_line((0, 0, 0), (1, 0, 0), 4)
    flat = fc.Staircase(alpha=1.0, params=grid.params, values=np.zeros(5), p0=0.0)
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, np.ones(5), flat))
    with pytest.raises(ConjugacyError):
        fc.conjugate_map(psi)


def test_evolve_plane_wave_phase(koch5):
    grid, chart = koch5
    k = 2.0 * math.pi / chart.total
    params = fc.PlaneWaveParams.from_wavenumber(k)
    psi = fc.plane_wave(params, grid, chart)
    out = fc.evolve(psi, None, d_tau=1e-3, steps=100, boundary="periodic")
    analytic = fc.plane_wave(params, grid, chart, tau=out.tau)
    assert np.max(np.abs(out.values - analytic.values)) < 1e-3


def test_evolve_stop_resume_consistency(koch5):
    grid, chart = koch5
    k = 4.0 * math.pi / chart.total
    psi = fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart)
    straight = fc.evolve(psi, None, d_tau=5e-4, steps=10, boundary="periodic")
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=5e-4, boundary="periodic")
    ev.step(4)
    mid = ev.snapshot()
    assert mid.tau == pytest.approx(psi.tau + 4 * 5e-4)
    ev.step(6)
    resumed = ev.snapshot()
    np.testing.assert_allclose(resumed.values, straight.values, atol=1e-12)


def test_evolver_validation(koch5):
    grid, chart = koch5
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fc.CrankNicolsonEvolver(psi, None, d_tau=bad, boundary="periodic")
    with pytest.raises(ValueError):
        fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="absorbing")
    with pytest.raises(ValueError):
        fc.evolve(psi, None, 1e-3, steps=-2)
    # a 2-point periodic grid has no distinct corner couplings, and the
    # factored solve needs at least 3 unknowns on either boundary
    with pytest.raises(SolverError):
        fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="periodic", xi_points=2)
    with pytest.raises(SolverError):
        fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="dirichlet", xi_points=4)


def _harmonic_line(n_unknowns, boundary):
    """Random state and harmonic potential on a line whose xi points are its nodes."""
    segments = n_unknowns + (1 if boundary == "dirichlet" else 0)
    grid = fc.build_line((0, 0, 0), (16, 0, 0), segments)
    chart = fc.build_staircase(grid, 1.0)
    vfield = fc.FieldOnCurve.from_chart_function(grid, chart, lambda s: 0.5 * (s - 8.0) ** 2)
    # random amplitudes reach the seam, where the periodic corners act
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.node_count) + 1j * rng.normal(size=grid.node_count)
    return fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart)), fc.PotentialOnCurve(vfield)


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_crank_nicolson_step_matches_dense_oracle(boundary, n):
    psi, potential = _harmonic_line(n, boundary)
    d_tau = 0.05
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=d_tau, boundary=boundary)
    dof = slice(1, -1) if boundary == "dirichlet" else slice(None)
    xi = ev.xi[dof]
    theta0 = ev.theta[dof].copy()
    assert len(xi) == n
    off = -CONST.hbar ** 2 / (2.0 * CONST.mass * ev.dxi ** 2)
    h = np.diag(-2.0 * off + 0.5 * (xi - 8.0) ** 2) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
    if boundary == "periodic":
        h[0, -1] = h[-1, 0] = off
    lam = d_tau / (2.0 * CONST.hbar)
    a = np.eye(n) + 1j * lam * h
    b = np.eye(n) - 1j * lam * h
    expect = np.linalg.solve(a, b @ theta0)
    ev.step()
    assert np.linalg.norm(ev.theta[dof] - expect) <= 1e-12 * np.linalg.norm(expect)


def test_dirichlet_step_bit_identical_to_banded_solve(koch5):
    # the factored LAPACK solve runs the same elimination as solve_banded's
    # (1, 1) path, so Dirichlet outputs are reproducible to the last bit
    grid, chart = koch5
    s = chart.values
    vfield = fc.FieldOnCurve(grid, 50.0 * (s - 0.5 * chart.total) ** 2, chart)
    cases = [_harmonic_line(64, "dirichlet"),
             (fc.gaussian_packet(grid, chart, center=0.4 * chart.total,
                                 sigma=0.05 * chart.total, k0=30.0),
              fc.PotentialOnCurve(vfield))]
    for psi, potential in cases:
        ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-4, boundary="dirichlet")
        off = -CONST.hbar ** 2 / (2.0 * CONST.mass * ev.dxi ** 2)
        lam = ev.d_tau / (2.0 * CONST.hbar)
        diag = (-2.0 * off + ev.v_base)[1:-1]
        ab = np.zeros((3, len(diag)), dtype=complex)
        ab[0, 1:] = 1j * lam * off
        ab[1, :] = 1.0 + 1j * lam * diag
        ab[2, :-1] = 1j * lam * off
        b_diag = 1.0 - 1j * lam * diag
        b_off = -1j * lam * off
        theta = ev.theta.copy()
        for _ in range(5):
            th = theta[1:-1]
            rhs = b_diag * th
            rhs[1:] += b_off * th[:-1]
            rhs[:-1] += b_off * th[1:]
            theta[1:-1] = solve_banded((1, 1), ab, rhs)
            ev.step()
            assert np.array_equal(ev.theta, theta)


def test_free_gaussian_variance_growth():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    sigma0 = 1.0
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=sigma0)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=2e-3, boundary="dirichlet")
    ev.step(250)
    snap = ev.snapshot()
    s = chart.values
    rho = np.abs(snap.values) ** 2
    z = fc.falpha_integral(snap.field.with_values(rho))
    mean = fc.falpha_integral(snap.field.with_values(rho * s)) / z
    var = fc.falpha_integral(snap.field.with_values(rho * s * s)) / z - mean ** 2
    expect = sigma0 ** 2 + (CONST.hbar * snap.tau / (2.0 * CONST.mass * sigma0)) ** 2
    assert abs(var - expect) / expect < 0.01


def test_harmonic_ground_state_is_stationary():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    omega = 1.0
    vfield = fc.FieldOnCurve.from_chart_function(
        grid, chart, lambda s: 0.5 * CONST.mass * omega ** 2 * (s - 8.0) ** 2)
    potential = fc.PotentialOnCurve(vfield)
    gs = fc.stationary_ground_state(grid, chart, potential)
    # physical sanity: overlap with the analytic oscillator Gaussian
    width = math.sqrt(CONST.hbar / (2.0 * CONST.mass * omega))
    analytic = fc.gaussian_packet(grid, chart, center=8.0, sigma=width)
    overlap = abs(fc.falpha_integral(gs.field.with_values(np.conj(gs.values) * analytic.values)))
    assert overlap > 0.9999
    ev = fc.CrankNicolsonEvolver(gs, potential, d_tau=1e-3, boundary="dirichlet")
    ev.step(int(round(2.0 * math.pi / omega / 1e-3)))
    drift = np.max(np.abs(np.abs(ev.snapshot().values) - np.abs(gs.values)))
    assert drift <= 1e-6


def test_hamiltonian_plane_wave_eigenvalue(koch5):
    grid, chart = koch5
    k = 4.0 * math.pi / chart.total
    psi = fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart)
    h = fc.hamiltonian_apply(psi)
    expect = (CONST.hbar * k) ** 2 / (2.0 * CONST.mass)
    interior = slice(2, -2)
    ratio = h.values[interior] / psi.values[interior]
    dxi = np.max(chart.increments)
    assert np.max(np.abs(ratio - expect)) < expect * (k * dxi) ** 2


def test_hamiltonian_constant_is_zero(koch5):
    grid, chart = koch5
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 2.0j))
    assert np.max(np.abs(fc.hamiltonian_apply(psi).values)) == 0.0


def test_hamiltonian_harmonic_ground_energy():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 2047)
    chart = fc.build_staircase(grid, 1.0)
    omega = 1.0
    width = math.sqrt(CONST.hbar / (2.0 * CONST.mass * omega))
    vfield = fc.FieldOnCurve.from_chart_function(
        grid, chart, lambda s: 0.5 * CONST.mass * omega ** 2 * (s - 8.0) ** 2)
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=width)
    h = fc.hamiltonian_apply(psi, fc.PotentialOnCurve(vfield))
    core = slice(900, 1150)
    ratio = h.values[core] / psi.values[core]
    dxi = chart.increments[0]
    assert np.max(np.abs(ratio - 0.5 * CONST.hbar * omega)) < 40.0 * dxi ** 2


def test_momentum_plane_wave(koch5):
    grid, chart = koch5
    k = 4.0 * math.pi / chart.total
    psi = fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart)
    mom = fc.momentum_apply(psi)
    tangential = np.sum(mom.values * grid.unit_tangents(), axis=1)
    expect = CONST.hbar * k * psi.values
    dxi = np.max(chart.increments)
    assert np.max(np.abs(tangential[1:-1] - expect[1:-1])) < CONST.hbar * k * (k * dxi) ** 2
    const_psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 0.5 + 0j))
    assert np.max(np.abs(fc.momentum_apply(const_psi).values)) == 0.0


def test_momentum_expectation_real_gaussian():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=1.0)
    mom = fc.momentum_apply(psi)
    tangential = np.sum(mom.values * grid.unit_tangents(), axis=1)
    expect = fc.falpha_integral(psi.field.with_values(np.conj(psi.values) * tangential))
    assert abs(expect) <= 1e-10


def test_kernel_step_invariants():
    step = fc.KernelStep(epsilon=2e-3, constants=CONST, damping_eta=1e-3)
    np.testing.assert_allclose(abs(step.normalization) ** 2,
                               2.0 * math.pi * CONST.hbar * step.epsilon / CONST.mass,
                               rtol=1e-14)
    assert cmath.phase(step.normalization) == pytest.approx(math.pi / 4.0, abs=1e-14)
    with pytest.raises(ValueError):
        fc.KernelStep(epsilon=-1e-3)
    with pytest.raises(ValueError):
        fc.KernelStep(epsilon=1e-3, damping_eta=0.0)
    with pytest.raises(ValueError):
        fc.KernelStep(epsilon=1e-3, damping_eta=0.5)


def test_kernel_step_constant_and_plane_wave():
    grid = fc.build_line((0, 0, 0), (1, 0, 0), 1024)
    chart = fc.build_staircase(grid, 1.0)
    eps, eta = 1e-2, 2e-4
    step = fc.KernelStep(epsilon=eps, damping_eta=eta)

    psi_c = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 - 0.5j))
    out_c = fc.kernel_step(psi_c, step)
    np.testing.assert_allclose(out_c.values, psi_c.values, atol=1e-13)
    assert out_c.tau == pytest.approx(eps)

    k = 4.0 * math.pi
    psi = fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart)
    out = fc.kernel_step(psi, step)
    # exact Gaussian-integral oracle, including the complex damping
    phase_damped = np.exp(-1j * CONST.hbar * k * k * eps * (1 - 1j * eta) / (2 * CONST.mass))
    np.testing.assert_allclose(out.values, psi.values * phase_damped, atol=1e-9)
    phase_free = np.exp(-1j * CONST.hbar * k * k * eps / (2 * CONST.mass))
    assert np.max(np.abs(out.values - psi.values * phase_free)) < 2.0 * eta * eps * k * k


def test_kernel_step_resolution_guard():
    grid = fc.build_line((0, 0, 0), (1, 0, 0), 64)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    with pytest.raises(ResolutionError):
        fc.kernel_step(psi, fc.KernelStep(epsilon=1e-6, damping_eta=1e-3))


def test_kernel_vs_crank_nicolson_single_step():
    diffs, eps_list = [], (3e-3, 1e-3)
    for eps in eps_list:
        eta = 0.5 * eps
        m = max(512, 2 ** math.ceil(math.log2(1.6 / eps)))
        grid = fc.build_line((0, 0, 0), (1, 0, 0), m)
        chart = fc.build_staircase(grid, 1.0)
        s = chart.values
        vals = np.exp(2j * np.pi * s) + 0.5j * np.exp(4j * np.pi * s)
        psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart))
        kern = fc.kernel_step(psi, fc.KernelStep(epsilon=eps, damping_eta=eta), xi_points=m)
        cn = fc.evolve(psi, None, d_tau=eps, steps=1, boundary="periodic", xi_points=m)
        diffs.append(np.max(np.abs(kern.values - cn.values)))
    assert diffs[1] < diffs[0] / 4.0


def test_kernel_moments_defaults():
    step = fc.KernelStep(epsilon=1e-3, damping_eta=1e-4)
    m0, m1, m2 = fc.kernel_moments(step)
    assert abs(m0 - 1.0) <= 1e-6
    assert abs(m1) <= 1e-8
    m2_expect = 1j * CONST.hbar * step.epsilon / (2.0 * CONST.mass)
    assert abs(m2 - m2_expect) <= 1e-6 * abs(m2_expect)


def test_kernel_moments_raw_matches_damped_closed_form():
    # closed-form oracle for the damped integrals: m0 = sqrt(1 - i eta),
    # m2 = (1 - i eta)^(3/2) * i hbar eps / (2 m)
    eta, eps = 4e-4, 2e-3
    step = fc.KernelStep(epsilon=eps, damping_eta=eta)
    m0, m1, m2 = fc.kernel_moments(step, extrapolate=False)
    assert abs(m0 - cmath.sqrt(1.0 - 1j * eta)) < 1e-10
    assert abs(m1) < 1e-12
    expect = (1.0 - 1j * eta) ** 1.5 * 1j * CONST.hbar * eps / (2.0 * CONST.mass)
    assert abs(m2 - expect) < 1e-8 * abs(expect)


@pytest.mark.parametrize("eta", [1e-3, 1e-4])
def test_kernel_moments_raw_match_gaussian_integrals(eta):
    # independent oracle: int exp(b d^2) = sqrt(pi/-b), int (d^2/2) exp(b d^2) =
    # sqrt(pi/-b)/(-4b); eta = 1e-4 sums the quadrature over several panel blocks
    step = fc.KernelStep(epsilon=1e-3, damping_eta=eta)
    b = 1j * CONST.mass / (2.0 * CONST.hbar * step.epsilon * (1.0 - 1j * eta))
    m0_expect = cmath.sqrt(math.pi / -b) / step.normalization
    m2_expect = m0_expect / (-4.0 * b)
    m0, m1, m2 = fc.kernel_moments(step, extrapolate=False)
    assert abs(m0 - m0_expect) <= 1e-7 * abs(m0_expect)
    assert abs(m1) <= 1e-7 * abs(m0_expect)
    assert abs(m2 - m2_expect) <= 1e-7 * abs(m2_expect)


def test_kernel_moments_eta_refinement():
    eps = 1e-3
    errs = []
    for eta in (8e-4, 4e-4, 2e-4):
        m0, _, _ = fc.kernel_moments(fc.KernelStep(epsilon=eps, damping_eta=eta),
                                     extrapolate=False)
        errs.append(abs(m0 - 1.0))
    assert errs[0] > errs[1] > errs[2]
    np.testing.assert_allclose(errs, [4e-4, 2e-4, 1e-4], rtol=1e-2)


def test_kernel_moments_quadrature_guard():
    step = fc.KernelStep(epsilon=1e-3, damping_eta=1e-6)
    with pytest.raises(QuadratureError):
        fc.kernel_moments(step)


def test_schrodinger_residual_plane_wave_slope():
    errs, hs = [], []
    for level, dt in ((4, 4e-3), (5, 1e-3), (6, 2.5e-4)):
        grid = fc.build_koch(level)
        chart = fc.build_staircase(grid, KOCH_DIM)
        k = 2.0 * math.pi / chart.total
        params = fc.PlaneWaveParams.from_wavenumber(k)
        snaps = [fc.plane_wave(params, grid, chart, tau=t) for t in (0.1 - dt, 0.1, 0.1 + dt)]
        res = fc.schrodinger_residual(*snaps)
        errs.append(np.max(res.values))
        hs.append(np.max(chart.increments))
    assert fit_slope(hs, errs) >= 1.9


def test_schrodinger_residual_stationary_state_tau_independent():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 511)
    chart = fc.build_staircase(grid, 1.0)
    omega = 1.0
    vfield = fc.FieldOnCurve.from_chart_function(
        grid, chart, lambda s: 0.5 * omega ** 2 * (s - 8.0) ** 2)
    potential = fc.PotentialOnCurve(vfield)
    gs = fc.stationary_ground_state(grid, chart, potential)
    e0 = float(np.real(fc.falpha_integral(
        gs.field.with_values(np.conj(gs.values) * fc.hamiltonian_apply(gs, potential).values))))

    def snapshots(tau0, dt=1e-3):
        return [
            gs.with_values(gs.values * cmath.exp(-1j * e0 * t / CONST.hbar), tau=t)
            for t in (tau0 - dt, tau0, tau0 + dt)
        ]

    r1 = fc.schrodinger_residual(*snapshots(0.1), potential=potential).values
    r2 = fc.schrodinger_residual(*snapshots(2.3), potential=potential).values
    np.testing.assert_allclose(np.max(r1), np.max(r2), rtol=1e-3)
    assert np.max(r1) < 1e-6


def _constant_state(grid, tau):
    chart = fc.build_staircase(grid, KOCH_DIM)
    return fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j), tau=tau)


@pytest.mark.parametrize("residual", [fc.schrodinger_residual, fc.continuity_residual],
                         ids=["schrodinger", "continuity"])
def test_residual_alignment_guard(residual):
    grid = fc.build_koch(5)
    psi = _constant_state(grid, 0.0)
    with pytest.raises(AlignmentError):
        residual(psi, _constant_state(fc.build_koch(4), 0.1), psi.with_values(psi.values, 0.2))
    with pytest.raises(AlignmentError):
        residual(psi, psi.with_values(psi.values, 0.1), psi.with_values(psi.values, 0.3))
    # an equal but distinct grid passes the full knot comparison
    twin = _constant_state(fc.build_koch(5), 0.1)
    assert twin.grid is not grid
    out = residual(psi, twin, psi.with_values(psi.values, 0.2))
    assert out.values.shape == (grid.node_count,)


def test_wall_time_from_cantor_chart(koch5):
    grid, chart = koch5
    ts = fc.build_cantor_time(1.0, 6)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j),
                          time_chart=ts.time_staircase)
    out = fc.evolve(psi, None, d_tau=1e-3, steps=50, boundary="periodic")
    t = out.wall_time()
    # the inverse staircase lands on the temporal support
    assert ts.chi(t) == 1.0
    np.testing.assert_allclose(ts.tau_of(t), out.tau, rtol=1e-12)


def test_fit_phase_rate_validation(koch5):
    grid, chart = koch5
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    with pytest.raises(ValueError):
        fc.fit_phase_rate([psi])


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_time_dependent_potential(boundary):
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 255)
    chart = fc.build_staircase(grid, 1.0)
    vfield = fc.FieldOnCurve.from_chart_function(grid, chart,
                                                 lambda s: 0.5 * (s - 8.0) ** 2)
    static = fc.PotentialOnCurve(vfield)
    trivially_dynamic = fc.PotentialOnCurve(vfield, time_dependence=lambda tau: 1.0)
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=1.0)
    out_a = fc.evolve(psi, static, 1e-3, 20, boundary=boundary)
    out_b = fc.evolve(psi, trivially_dynamic, 1e-3, 20, boundary=boundary)
    np.testing.assert_allclose(out_a.values, out_b.values, atol=1e-13)

    ramp = fc.PotentialOnCurve(vfield, time_dependence=lambda tau: 1.0 + 0.5 * tau)
    ev = fc.CrankNicolsonEvolver(psi, ramp, d_tau=1e-3, boundary=boundary)
    p0 = fc.total_probability(ev.snapshot())
    ev.step(50)
    out_c = ev.snapshot()
    # a real modulated potential is still Hermitian, so the norm is conserved
    assert abs(fc.total_probability(out_c) - p0) < 1e-11
    assert np.max(np.abs(out_c.values - out_a.values)) > 1e-6


def test_potential_rejects_complex_values(koch5):
    grid, chart = koch5
    with pytest.raises(ValueError):
        fc.PotentialOnCurve(fc.FieldOnCurve.constant(grid, chart, 1.0 + 2.0j))


def test_conjugate_map_left_inverse_on_plateau_chart():
    grid = fc.build_line((0, 0, 0), (1, 0, 0), 4)
    chart = fc.Staircase(alpha=1.0, params=grid.params,
                         values=np.array([0.0, 1.0, 1.0, 2.0, 3.0]), p0=0.0)
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, np.array([0.0, 1.0, 5.0, 2.0, 3.0]) + 0j,
                                          chart))
    conj = fc.conjugate_map(psi, num_points=4)
    # the plateau keeps its left sample; values at the shared S come from node 1
    np.testing.assert_allclose(conj.values, [0.0, 1.0, 2.0, 3.0], atol=1e-14)


def test_kernel_step_on_koch(koch5):
    grid, chart = koch5
    k = 2.0 * math.pi * 2.0 / chart.total
    psi = fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart)
    eps, eta = 1e-2, 2e-4
    out = fc.kernel_step(psi, fc.KernelStep(epsilon=eps, damping_eta=eta))
    phase_damped = np.exp(-1j * CONST.hbar * k * k * eps * (1 - 1j * eta) / (2 * CONST.mass))
    np.testing.assert_allclose(out.values[:-1], psi.values[:-1] * phase_damped, atol=1e-8)
