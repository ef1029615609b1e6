import cmath
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from importlib.metadata import version
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fractalcurve as fc
from fractalcurve import dynamics
from fractalcurve.errors import (
    AlignmentError,
    ConjugacyError,
    PlateauError,
    QuadratureError,
    ResolutionError,
    SolverError,
)

from conftest import KOCH_DIM, fit_slope, uneven_curve, wrapped_gaussian

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
    # k alone fixes E = (hbar k)^2 / (2 m) and beta = E / hbar
    heavy = fc.PhysicalConstants(hbar=0.5, mass=2.0)
    h = fc.PlaneWaveParams(A=1.0, B=0.0, k=3.0, constants=heavy)
    assert h.E == pytest.approx(0.5625) and h.beta == pytest.approx(1.125)
    assert fc.PlaneWaveParams.from_energy(h.E, constants=heavy).k == pytest.approx(3.0)


@pytest.mark.parametrize("make", [
    lambda: fc.PlaneWaveParams.from_wavenumber(1e200),
    lambda: fc.PlaneWaveParams.from_wavenumber(np.float64(1e200)),
    lambda: fc.PlaneWaveParams.from_wavenumber(math.inf),
    lambda: fc.PlaneWaveParams.from_energy(math.nan),
    lambda: fc.PlaneWaveParams.from_energy(np.float64(1e308)),
    lambda: fc.PlaneWaveParams(A=1.0, B=0.0, k=math.nan),
], ids=["k-float", "k-float64", "k-inf", "E-nan", "E-float64-huge", "k-nan"])
def test_plane_wave_params_reject_non_finite_values(make):
    # an overflowing square raises OverflowError on a Python float and only
    # warns on a numpy one; NaN fails every comparison
    with pytest.raises(ValueError, match="finite"):
        make()


def test_plane_wave_modulus_and_zero(koch5):
    grid, chart = koch5
    p = fc.PlaneWaveParams.from_wavenumber(2.0 * math.pi / chart.total)
    psi = fc.plane_wave(p, grid, chart)
    np.testing.assert_allclose(np.abs(psi.values), 1.0, atol=1e-14)
    zero = fc.plane_wave(fc.PlaneWaveParams(A=0.0, B=0.0, k=1.0), grid, chart)
    assert np.max(np.abs(zero.values)) == 0.0


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


@pytest.mark.parametrize("level", [5, 9])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_evolver_snapshot_roundtrip_within_2_ulp(boundary, level):
    # the evolver holds phi = sqrt(w) theta and a snapshot divides by sqrt(w)
    # again, so the round trip of an unstepped state holds to 2 ulp, not bit
    # for bit; snapshots neither move nor share the internal state
    grid = fc.build_koch(level)
    chart = fc.build_staircase(grid, KOCH_DIM)
    rng = np.random.default_rng(11)
    vals = rng.normal(size=grid.node_count) + 1j * rng.normal(size=grid.node_count)
    psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart))
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-4, boundary=boundary)
    snap = ev.snapshot()
    inner = slice(1, -1)  # dirichlet zeroes both ends, periodic wraps the seam
    for part in (np.real, np.imag):
        np.testing.assert_array_max_ulp(part(snap.values[inner]), part(psi.values[inner]), 2)
    if boundary == "periodic":
        assert snap.values[-1] == snap.values[0]
    else:
        assert snap.values[0] == snap.values[-1] == 0
    phi = ev.phi.copy()
    snap.values[:] = 0  # a snapshot shares no memory with the evolver
    assert np.array_equal(ev.phi, phi)


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
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="periodic")
    with pytest.raises(ValueError, match="non-negative"):
        ev.step(-1)
    # a 2-point periodic grid has no distinct corner couplings, and the
    # factored solve needs at least 3 unknowns on either boundary: a line of
    # 2 segments has 2 periodic unknowns, one of 3 segments 2 interior ones
    for segments, boundary in ((2, "periodic"), (3, "dirichlet")):
        line = fc.build_line((0, 0, 0), (1, 0, 0), segments)
        short = fc.WaveFunction(fc.FieldOnCurve.constant(line, fc.build_staircase(line, 1.0),
                                                         1.0 + 0j))
        with pytest.raises(SolverError, match="at least 3 unknowns"):
            fc.CrankNicolsonEvolver(short, None, d_tau=1e-3, boundary=boundary)


def _harmonic_state(n_unknowns, boundary):
    """Random state and harmonic potential on a line of n_unknowns unknowns, or on
    the uneven generator curve at level 6 when n_unknowns is None."""
    if n_unknowns is None:
        grid, chart = uneven_curve(6)
    else:
        segments = n_unknowns + (1 if boundary == "dirichlet" else 0)
        grid = fc.build_line((0, 0, 0), (16, 0, 0), segments)
        chart = fc.build_staircase(grid, 1.0)
    center = 0.5 * chart.total
    vfield = fc.FieldOnCurve.from_chart_function(grid, chart, lambda s: 0.5 * (s - center) ** 2)
    # random amplitudes reach the seam, where the periodic corners act
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.node_count) + 1j * rng.normal(size=grid.node_count)
    return fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart)), fc.PotentialOnCurve(vfield)


def _dense_kinetic(chart, periodic):
    """W^-1/2 K W^-1/2 and sqrt(w), built densely from the chart increments h_j.

    K is the stiffness matrix of sum_j hbar^2 |theta_(j+1) - theta_j|^2 / (2 m h_j),
    edge by edge, and w_j = (h_(j-1) + h_j) / 2 is the trapezoid weight of
    node j; periodic grids identify the seam node with node 0.
    """
    h = chart.increments
    nodes = len(h) + 1
    k = np.zeros((nodes, nodes))
    w = np.zeros(nodes)
    for j, hj in enumerate(h):
        stiff = CONST.hbar ** 2 / (2.0 * CONST.mass * hj)
        k[np.ix_([j, j + 1], [j, j + 1])] += stiff * np.array([[1.0, -1.0], [-1.0, 1.0]])
        w[[j, j + 1]] += 0.5 * hj
    if periodic:  # fold the seam node onto node 0
        k[0, :] += k[-1, :]
        k[:, 0] += k[:, -1]
        w[0] += w[-1]
        keep = slice(0, -1)
    else:
        keep = slice(1, -1)
    k, sqrt_w = k[keep, keep], np.sqrt(w[keep])
    return k / np.outer(sqrt_w, sqrt_w), sqrt_w


def _split_at(monkeypatch, split):
    """With ``split``, grids of at least 16 unknowns are stepped as two blocks."""
    if split:
        monkeypatch.setattr(dynamics, "_N_SPLIT", 16)


@pytest.mark.parametrize("n,split", [
    pytest.param(3, False, id="3"), pytest.param(64, False, id="64"),
    pytest.param(None, False, id="uneven"), pytest.param(64, True, id="64-split"),
    pytest.param(None, True, id="uneven-split")])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_crank_nicolson_step_matches_dense_oracle(boundary, n, split, monkeypatch):
    # five steps, each against the textbook form A(tau)^-1 B(tau) phi with
    # the explicit B = I - i lam H and H = W^-1/2 K W^-1/2 + V built densely
    # from the chart, under a static potential and three time-dependent
    # ones, whose multipliers run from 1 up to 2, down to -9 and down to
    # -250 (at any multiplier T = I + i lam H' with H' real and symmetric,
    # so T's eigenvalues lie on Re = 1 and |T^-1| <= 1); split, the grid
    # is stepped as two blocks joined by the cut correction (the uneven
    # Dirichlet grid's 63 unknowns make blocks of 31 and 32)
    _split_at(monkeypatch, split)
    psi, static = _harmonic_state(n, boundary)
    periodic = boundary == "periodic"
    d_tau = 0.05 if n is not None else 1e-4
    dof = slice(None, -1) if periodic else slice(1, -1)
    lam = d_tau / (2.0 * CONST.hbar)
    kinetic, sqrt_w = _dense_kinetic(psi.space_chart, periodic)
    v = static.field.values[dof]
    for modulation in (None, lambda tau: 1.0 + 40.0 * tau, lambda tau: 1.0 - 40.0 * tau,
                       lambda tau: -1e3 * tau):
        potential = fc.PotentialOnCurve(static.field, time_dependence=modulation)
        ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=d_tau, boundary=boundary)
        assert n is None or len(ev.phi) == n
        assert len(ev._blocks) == 1 + split
        np.testing.assert_allclose(ev.phi, sqrt_w * psi.values[dof], rtol=1e-15)
        for _ in range(5):
            scale = 1.0 if modulation is None else modulation(ev.tau)
            h = kinetic + np.diag(scale * v)
            a = np.eye(len(v)) + 1j * lam * h
            b = np.eye(len(v)) - 1j * lam * h
            expect = np.linalg.solve(a, b @ ev.phi)
            ev.step()
            assert np.linalg.norm(ev.phi - expect) <= 1e-13 * np.linalg.norm(expect)


def _split_evolver(monkeypatch, boundary="dirichlet", modulation=None):
    """Evolver of a 64-unknown harmonic state, stepped as two blocks of 32,
    with the harmonic V scaled by ``modulation(tau)`` if given."""
    _split_at(monkeypatch, True)
    psi, static = _harmonic_state(64, boundary)
    potential = fc.PotentialOnCurve(static.field, time_dependence=modulation)
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=0.05, boundary=boundary)
    assert len(ev._blocks) == 2
    return ev


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_split_step_leaves_no_thread_alive(monkeypatch, boundary):
    # the second block's thread lives inside one step(n) call only
    ev = _split_evolver(monkeypatch, boundary)
    before = threading.active_count()
    for n in (1, 3, 0):
        ev.step(n)
        assert threading.active_count() == before


@pytest.mark.parametrize("failing,boundary,split", [
    pytest.param("worker", "dirichlet", True, id="worker"),
    pytest.param("caller", "dirichlet", True, id="caller"),
    *(pytest.param("cuts", boundary, True, id="cuts-" + boundary)
      for boundary in ("dirichlet", "periodic")),
    pytest.param("cuts", "periodic", False, id="cuts-periodic-unsplit")])
def test_split_solver_error_in_either_thread_is_raised_by_step(monkeypatch, failing, boundary,
                                                               split):
    # a solve that fails in one block's thread stops the other at the
    # barrier, and a cut solve that fails in the barrier's action (in
    # whichever thread runs it) stops both; step() raises the error once
    # both threads are done.  Unsplit, a periodic grid is one block whose
    # one cut is the seam: its barrier of one party runs the same action,
    # and the same failure collection raises the error
    if split:
        ev = _split_evolver(monkeypatch, boundary)
    else:
        psi, static = _harmonic_state(64, boundary)
        ev = fc.CrankNicolsonEvolver(psi, static, d_tau=0.05, boundary=boundary)
        assert len(ev._blocks) == 1 and len(ev._cuts) == 1
    ev.step(2)
    if failing == "cuts":
        solve_woodbury = dynamics._solve_woodbury
        # a singular M: complex division by its zero pivot raises
        monkeypatch.setattr(dynamics, "_solve_woodbury",
                            lambda m, s: solve_woodbury([[0j] * len(s)] * len(s), s))
        error, match = ZeroDivisionError, "division by zero"
    else:
        real = dynamics._lapack()

        def zgttrs(*args, **kwargs):
            in_worker = threading.current_thread() is not threading.main_thread()
            if in_worker == (failing == "worker"):
                return args[5], -6
            return real.zgttrs(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_lapack",
                            lambda: SimpleNamespace(zgttrf=real.zgttrf, zgttrs=zgttrs))
        error, match = SolverError, r"solve failed \(LAPACK info -6\)"
    before = threading.active_count()
    with pytest.raises(error, match=match):
        ev.step(3)
    assert threading.active_count() == before


@pytest.mark.parametrize("boundary,modulation", [
    pytest.param(boundary, modulation, id=boundary + suffix)
    for suffix, modulation in (("", None), ("-ramp", lambda tau: 1.0 + 40.0 * tau))
    for boundary in ("dirichlet", "periodic")])
def test_split_steps_are_deterministic_under_thread_switching(monkeypatch, boundary,
                                                              modulation):
    # two split evolvers stepped at once from two threads (five threads on
    # two cores) with the interpreter switching threads every
    # microsecond: the barrier's action solves each step's cut system from
    # both blocks' values while neither writes, and under a ramp V rebuilds
    # M from both blocks' fresh spikes, so every run gives the bits of an
    # undisturbed one
    reference = _split_evolver(monkeypatch, boundary, modulation).step(40).phi
    evolvers = [_split_evolver(monkeypatch, boundary, modulation) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [threading.Thread(target=ev.step, args=(40,)) for ev in evolvers]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    assert all(_same_bits(ev.phi, reference) for ev in evolvers)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _harmonic(grid, chart, omega=60.0, center_frac=0.5):
    """V = m omega^2 (S - c)^2 / 2, with c at ``center_frac`` of the chart's span."""
    center = chart.values[0] + center_frac * (chart.values[-1] - chart.values[0])
    return fc.PotentialOnCurve(fc.FieldOnCurve.from_chart_function(
        grid, chart, lambda s: 0.5 * CONST.mass * omega ** 2 * (s - center) ** 2))


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_flapack_solves_match_scipy_linalg_lapack(koch5, monkeypatch, boundary):
    # scipy.linalg._flapack is private to scipy, so its routines must factor
    # and solve exactly as the public scipy.linalg.lapack does, on the
    # operator A = I + i lam H of a step, and the evolver must step alike
    # with either module
    from scipy.linalg import lapack as public

    grid, chart = koch5
    psi, potential = wrapped_gaussian(grid, chart), _harmonic(grid, chart)
    dof, _, kinetic, off, v = dynamics._xi_hamiltonian(chart, psi.constants, potential,
                                                       boundary == "periodic")
    lam = 0.5e-3 / CONST.hbar
    a_diag = 1.0 + 1j * lam * (kinetic + v[dof])
    band = 1j * lam * off[:len(a_diag) - 1]
    rhs = np.random.default_rng(3).normal(size=(len(a_diag), 2)) @ [1.0, 1j]
    private = dynamics._lapack()
    lu, lu_ref = private.zgttrf(band, a_diag, band), public.zgttrf(band, a_diag, band)
    assert lu[-1] == lu_ref[-1] == 0
    assert all(_same_bits(a, b) for a, b in zip(lu[:-1], lu_ref[:-1]))
    x, x_ref = private.zgttrs(*lu[:-1], rhs), public.zgttrs(*lu_ref[:-1], rhs)
    assert x[1] == x_ref[1] == 0 and _same_bits(x[0], x_ref[0])
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-3, boundary=boundary).step(5)
    monkeypatch.setattr(dynamics, "_lapack", lambda: public)
    ev_ref = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-3, boundary=boundary).step(5)
    assert _same_bits(ev.phi, ev_ref.phi)


def _ground_state_h(chart, potential):
    """The Dirichlet unknowns, sqrt(w), H's diagonal and band, and V at the nodes."""
    dof, sqrt_w, kinetic, off, v = dynamics._xi_hamiltonian(chart, CONST, potential, False)
    return dof, sqrt_w, kinetic + v[dof], off, v


def _eigh_ground_state(grid, chart, potential):
    """The oracle: eigh_tridiagonal's lowest eigenpair of the same H, as (lambda, state)."""
    from scipy.linalg import eigh_tridiagonal

    dof, sqrt_w, diag, off, _ = _ground_state_h(chart, potential)
    lam, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    theta = np.zeros(grid.node_count, dtype=complex)
    theta[dof] = vecs[:, 0] / sqrt_w
    return lam[0], fc.WaveFunction(fc.FieldOnCurve(grid, theta, chart)).normalized()


def _bisection_tolerance(diag, off):
    """dstebz's tolerance at abstol 0: an ulp of its Gershgorin bound on |H|.

    Each bisection stops on an interval narrower than this, so two of them
    that start from different intervals agree within twice this.
    """
    radius = np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0))
    return np.finfo(float).eps * max(abs(np.min(diag - radius)), abs(np.max(diag + radius)))


# the ground state's LAPACK calls: the inverse iteration at min V - pad that
# starts it, each solve at a certified shift below lambda_0, the
# factorization that certifies the last one, and the fallback's Gershgorin
# bisection and inverse iteration
_START_CALLS = ["dpttrf"] + ["dpttrs"] * dynamics._START_SOLVES
_SOLVE_CALLS = ["dpttrf", "dpttrs"]
_FALLBACK_CALLS = ["dstebz", "dstein"]


def _certified_calls(solves):
    return _START_CALLS + _SOLVE_CALLS * solves + ["dpttrf"]


def _start_from(monkeypatch, start):
    """Start the certified ground state from a copy of ``start`` in place of sqrt(w)."""
    certified = dynamics._certified_ground
    monkeypatch.setattr(dynamics, "_certified_ground",
                        lambda lapack, diag, band, x, v_min:
                        certified(lapack, diag, band, start.copy(), v_min))


def _recorded_ground_state_lapack(monkeypatch):
    """The ground state's LAPACK calls from now on, as (routine, arguments, result)."""
    real = dynamics._lapack()
    calls = []

    def recorded(name):
        def call(*args, **kwargs):
            result = getattr(real, name)(*args, **kwargs)
            calls.append((name, args, result))
            return result
        return call

    routines = _SOLVE_CALLS + _FALLBACK_CALLS
    monkeypatch.setattr(dynamics, "_lapack",
                        lambda: SimpleNamespace(**{name: recorded(name) for name in routines}))
    return calls


def _names(calls):
    return [name for name, _, _ in calls]


@pytest.mark.parametrize("certified", [True, False], ids=["certified", "gershgorin"])
def test_flapack_ground_state_matches_scipy_linalg_lapack(koch5, monkeypatch, certified):
    # the certified path (here for a wall minimum of V) and the Gershgorin
    # bisection that anything uncertified falls back to (forced here) give
    # the same bits through the private module and through scipy.linalg.lapack
    from scipy.linalg import lapack as public

    grid, chart = koch5
    potential = _harmonic(grid, chart, center_frac=0.0)
    if not certified:
        monkeypatch.setattr(dynamics, "_certified_ground", lambda *args: None)
    with monkeypatch.context() as patch:
        calls = _recorded_ground_state_lapack(patch)
        gs = fc.stationary_ground_state(grid, chart, potential)
    assert _names(calls)[-1] == ("dpttrf" if certified else "dstein")
    monkeypatch.setattr(dynamics, "_lapack", lambda: public)
    assert _same_bits(gs.values, fc.stationary_ground_state(grid, chart, potential).values)


@pytest.mark.parametrize("omega", [1.0, 60.0, 200.0, 1e4])
def test_ground_state_agrees_with_eigh_tridiagonal(koch5, monkeypatch, omega):
    # an independent oracle: the lowest eigenpair from eigh_tridiagonal's
    # Gershgorin-interval bisection and inverse iteration.  For V's minimum
    # centred, off centre and on a wall, the certified state's Rayleigh
    # quotient agrees with its lambda within twice dstebz's tolerance, and
    # the vectors agree to roundoff, dstein's sign included (measured
    # 1 - <v, v_ref> <= 2.2e-16 and the quotient within 0.53 of the tolerance
    # on 140 harmonic configs at Koch levels 3-7, center_frac 0 to 0.5)
    grid, chart = koch5
    for center_frac in (0.5, 0.3, 0.0):
        potential = _harmonic(grid, chart, omega, center_frac)
        lam_ref, expect = _eigh_ground_state(grid, chart, potential)
        with monkeypatch.context() as patch:
            calls = _recorded_ground_state_lapack(patch)
            gs = fc.stationary_ground_state(grid, chart, potential)
        assert _names(calls)[-1] == "dpttrf", center_frac
        dof, sqrt_w, diag, off, _ = _ground_state_h(chart, potential)
        x, y = gs.values[dof].real * sqrt_w, expect.values[dof].real * sqrt_w
        lam, _ = dynamics._rayleigh_residual(diag, off, x / np.linalg.norm(x))
        assert abs(lam - lam_ref) <= 2.0 * _bisection_tolerance(diag, off), center_frac
        cos = np.vdot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
        assert 1.0 - cos <= 1e-13, center_frac


def test_ground_state_certifies_an_exact_eigenvectors_rounded_quotient(koch5, monkeypatch):
    # started from the exact eigenvector, which the solves below lambda_0
    # keep, its computed Rayleigh quotient rounds to either side of
    # lambda_0, so H - sigma I need not be positive definite; the shift
    # mu = sigma - r - pad keeps it so, and one solve there, which moves
    # sigma by under an ulp, is certified by the next factorization.  Its
    # quotient is the oracle's lambda within twice dstebz's tolerance, and
    # it keeps dstein's sign: pointwise within 1e-10 of the
    # oracle's maximum, a bound above the vector's conditioning eps |H| / gap
    # (3e-11 at omega 1 and 10, where the gap measured 1.6e-12)
    grid, chart = koch5
    real = dynamics._lapack()
    indefinite_at_sigma = 0
    for omega in (1.0, 10.0, 30.0, 60.0, 100.0, 200.0, 1e3, 1e4):
        potential = _harmonic(grid, chart, omega)
        lam_ref, expect = _eigh_ground_state(grid, chart, potential)
        dof, sqrt_w, diag, off, _ = _ground_state_h(chart, potential)
        exact = expect.values[dof].real * sqrt_w
        quotient, _ = dynamics._rayleigh_residual(diag, off, exact / np.linalg.norm(exact))
        indefinite_at_sigma += real.dpttrf(diag - quotient, off)[-1] > 0
        with monkeypatch.context() as patch:
            _start_from(patch, exact)
            calls = _recorded_ground_state_lapack(patch)
            gs = fc.stationary_ground_state(grid, chart, potential)
        assert _names(calls) == _certified_calls(1), omega
        x = gs.values[dof].real * sqrt_w
        lam, _ = dynamics._rayleigh_residual(diag, off, x / np.linalg.norm(x))
        assert abs(lam - lam_ref) <= 2.0 * _bisection_tolerance(diag, off), omega
        assert np.max(np.abs(gs.values - expect.values)) <= 1e-10 * np.max(np.abs(expect.values))
    # 6 of these 8 quotients are not below lambda_0 as dpttrf sees it, at Koch level 5
    assert indefinite_at_sigma > 0


@pytest.mark.parametrize("case", ["oscillator", "constant", "wall", "excited"])
def test_ground_state_calls_certified_or_gershgorin_path(koch5, monkeypatch, case):
    # sqrt(w) for a centred oscillator V and a constant start, whose
    # quotient lies far above lambda_1, are certified after three solves at
    # shifts below lambda_0, sqrt(w) for a wall minimum of V after four.
    # The oracle's second eigenvector, which the solves below lambda_0 keep,
    # gives sigma at lambda_1, where the first certified shift's
    # factorization fails, and falls back to the Gershgorin bisection,
    # whose state is the oracle's to the bit
    from scipy.linalg import eigh_tridiagonal

    grid, chart = koch5
    potential = _harmonic(grid, chart, center_frac=0.0 if case == "wall" else 0.5)
    _, expect = _eigh_ground_state(grid, chart, potential)
    _, _, diag, off, _ = _ground_state_h(chart, potential)
    lam, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    start = {"constant": np.ones(len(diag)), "excited": vecs[:, 1]}.get(case)
    if start is not None:
        _start_from(monkeypatch, start)
    calls = _recorded_ground_state_lapack(monkeypatch)
    gs = fc.stationary_ground_state(grid, chart, potential)
    names = _names(calls)
    if case == "excited":
        assert names == _START_CALLS + ["dpttrf"] + _FALLBACK_CALLS
        # mu = sigma - r - pad lies between lambda_0 and lambda_1, so H - mu I
        # is not positive definite
        _, (shifted, _), (*_, info) = calls[len(_START_CALLS)]
        assert lam[0] < diag[0] - shifted[0] < lam[1] and info > 0
        assert _same_bits(gs.values, expect.values)
    else:
        assert names == _certified_calls(4 if case == "wall" else 3)


def test_ground_state_residual_sits_on_its_roundoff_floor():
    # each solve at a certified shift is backward stable, so at Koch level 9
    # the state's residual r = ||H x - sigma x|| stays within an ulp of
    # |d|_max + 2 |e|_max (measured 0.22-0.25; Rayleigh-quotient iteration
    # stopped at 10.4, 5.9 and 4.7 here, which set the modulus drift and
    # the continuity residual of ground-state runs)
    grid = fc.build_koch(9)
    chart = fc.build_staircase(grid, KOCH_DIM)
    for omega in (78.8, 137.0, 193.8):
        potential = _harmonic(grid, chart, omega)
        gs = fc.stationary_ground_state(grid, chart, potential)
        dof, sqrt_w, diag, off, _ = _ground_state_h(chart, potential)
        x = gs.values[dof].real * sqrt_w
        _, r = dynamics._rayleigh_residual(diag, off, x / np.linalg.norm(x))
        ulp = np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
        assert r <= ulp, omega


def test_near_degenerate_double_well_falls_back_to_gershgorin_bisection(koch5, monkeypatch):
    # the two lowest states of a double well of barrier 1e4 tilted by 1e-3
    # of it, one in each well, lie 4.9 apart but about 640 above min V, so
    # the start's solves at min V - pad barely separate them and the
    # certified shifts do not converge within the solve budget (they would
    # after 6 solves); the Gershgorin bisection's state is the oracle's to
    # the bit
    grid, chart = koch5
    span = chart.values[-1] - chart.values[0]
    center, half = chart.values[0] + 0.5 * span, 0.25 * span
    potential = fc.PotentialOnCurve(fc.FieldOnCurve.from_chart_function(
        grid, chart, lambda s: 1e4 * (((s - center) ** 2 - half ** 2) / half ** 2) ** 2
        + 10.0 * (s - center) / span))
    _, expect = _eigh_ground_state(grid, chart, potential)
    calls = _recorded_ground_state_lapack(monkeypatch)
    gs = fc.stationary_ground_state(grid, chart, potential)
    assert _names(calls)[-len(_FALLBACK_CALLS):] == _FALLBACK_CALLS
    assert _same_bits(gs.values, expect.values)


def test_ground_state_past_dsteins_scaling_is_certified(monkeypatch):
    # at mass 1e-148 on Koch L3, H's largest coupling is about 3e151, where
    # dstein's scaling overflows to a NaN vector; the certified path's sums
    # do not overflow, and its state is the oracle's for H times 2^-500, a
    # scaling that no rounding moves.  This holds for V = 0 and for a wall
    # minimum of V at omega 1e150 (V up to about 5e151)
    from scipy.linalg import eigh_tridiagonal

    grid = fc.build_koch(3)
    chart = fc.build_staircase(grid, KOCH_DIM)
    constants = fc.PhysicalConstants(mass=1e-148)
    for stiffness in (0.0, 0.5 * constants.mass * 1e150 ** 2):
        potential = fc.PotentialOnCurve(fc.FieldOnCurve.from_chart_function(
            grid, chart, lambda s: stiffness * (s - chart.values[0]) ** 2))
        with monkeypatch.context() as patch:
            calls = _recorded_ground_state_lapack(patch)
            gs = fc.stationary_ground_state(grid, chart, potential, constants)
        assert _names(calls)[-1] == "dpttrf", stiffness
        dof, sqrt_w, kinetic, off, v = dynamics._xi_hamiltonian(chart, constants, potential,
                                                                False)
        _, vecs = eigh_tridiagonal((kinetic + v[dof]) * 2.0 ** -500, off * 2.0 ** -500,
                                   select="i", select_range=(0, 0))
        x = gs.values[dof].real * sqrt_w
        assert 1.0 - np.vdot(x, vecs[:, 0]) / np.linalg.norm(x) <= 1e-13, stiffness


def test_ground_state_bits_do_not_depend_on_the_blas_thread_count():
    # the certified path sums with numpy, never a BLAS dot product, so at
    # Koch level 8 (65 537 nodes, past the size at which OpenBLAS threads its
    # dot product) its bytes are the same on one BLAS thread and on two
    script = (
        "import math, sys\n"
        "import fractalcurve as fc\n"
        "from fractalcurve import dynamics\n"
        "real, calls = dynamics._lapack(), []\n"
        "class Recorded:\n"
        "    def __getattr__(self, name):\n"
        "        calls.append(name)\n"
        "        return getattr(real, name)\n"
        "dynamics._lapack = Recorded\n"
        "grid = fc.build_koch(8)\n"
        "chart = fc.build_staircase(grid, math.log(4.0) / math.log(3.0))\n"
        "center = 0.5 * (chart.values[0] + chart.values[-1])\n"
        "potential = fc.PotentialOnCurve(fc.FieldOnCurve.from_chart_function(\n"
        "    grid, chart, lambda s: 0.5 * 137.0 ** 2 * (s - center) ** 2))\n"
        "gs = fc.stationary_ground_state(grid, chart, potential)\n"
        "assert calls[-1] == 'dpttrf', calls\n"
        "sys.stdout.buffer.write(gs.values.tobytes())\n")
    src = str(Path(dynamics.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert len(outputs[0]) == 16 * 65537 and outputs[0] == outputs[1]


def test_missing_lapack_extension_names_the_scipy_version(no_flapack):
    # no fallback to scipy.linalg: a scipy without the extension is an error
    with pytest.raises(SolverError, match=f"scipy {re.escape(version('scipy'))} "):
        dynamics._lapack()


def _free_cayley_exact(theta0, off, lam, steps, periodic):
    """n free Crank-Nicolson steps done exactly in H's eigenbasis.

    With V = 0 the periodic H is diagonal in the DFT basis, eigenvalue
    -2 off (1 - cos(2 pi k / n)) on mode k.  A Dirichlet state evolves
    as its odd extension [0, theta, 0, -reversed theta] on a periodic grid
    of 2 (n + 1) points, which is the DST-I through one FFT.
    """
    ext = theta0 if periodic else np.concatenate([[0.0], theta0, [0.0], -theta0[::-1]])
    h = -2.0 * off * (1.0 - np.cos(2.0 * np.pi * np.arange(len(ext)) / len(ext)))
    g = (1.0 - 1j * lam * h) / (1.0 + 1j * lam * h)
    out = np.fft.ifft(g ** steps * np.fft.fft(ext))
    return out if periodic else out[1:len(theta0) + 1]


@pytest.mark.parametrize("level,steps", [(5, 1000), (6, 1000), (7, 1000), (9, 100)])
def test_probability_drift_within_dispersion_bound(level, steps):
    # each step's roundoff grows with the dispersion number
    # r = hbar d_tau / (2 m min h^2), so N steps may drift by r N eps,
    # floored at 1e-12 (the form of perfbench's drift_bound).  The norm
    # cannot see a phase error, so the state itself must stay within
    # 8 r N eps max|theta| of the exact free steps of the uniform H, whose
    # spacing is the chart's span over its cells (measured: 0.13-0.37 at
    # levels 5-7, 0.6-0.7 at level 9)
    grid = fc.build_koch(level)
    chart = fc.build_staircase(grid, KOCH_DIM)
    total = chart.values[-1] - chart.values[0]
    dxi = total / (grid.node_count - 1)
    eps = np.finfo(float).eps
    for boundary in ("dirichlet", "periodic"):
        periodic = boundary == "periodic"
        psi = fc.gaussian_packet(grid, chart, center=chart.values[0] + 0.5 * total,
                                 sigma=total / 12.0, k0=6.0 * math.pi / total,
                                 periodic=periodic)
        ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-4, boundary=boundary)
        r = ev.dispersion_r
        p0 = fc.total_probability(ev.snapshot())
        dof = slice(None, -1) if periodic else slice(1, -1)
        theta0 = ev.snapshot().values[dof]
        off = -CONST.hbar ** 2 / (2.0 * CONST.mass * dxi ** 2)
        exact = _free_cayley_exact(theta0, off, ev.d_tau / (2.0 * CONST.hbar), steps, periodic)
        ev.step(steps)
        snap = ev.snapshot()
        drift = abs(fc.total_probability(snap) - p0)
        assert drift <= max(1e-12, r * steps * eps), (boundary, r, drift)
        err = np.max(np.abs(snap.values[dof] - exact)) / (r * steps * eps * np.max(np.abs(theta0)))
        assert err <= 8.0, (boundary, r, err)


def test_readme_quickstart_drift_within_dispersion_bound(capsys):
    # the block prints the drift of the total probability over its run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scope = {}
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), scope)
    drift = float(capsys.readouterr().out.split()[-1])
    assert drift == fc.total_probability(scope["out"]) - fc.total_probability(scope["psi"])
    r = fc.CrankNicolsonEvolver(scope["psi"], None, scope["d_tau"],
                                boundary="periodic").dispersion_r
    assert abs(drift) <= r * scope["steps"] * np.finfo(float).eps, (r, drift)


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


def _wrapped_image_sum(grid, chart, center, sigma, k0):
    """Reference only: the periodic packet as the CLI and the tests once built it."""
    s = chart.values
    total = chart.values[-1] - chart.values[0]
    vals = np.zeros(grid.node_count, dtype=complex)
    for j in (-1, 0, 1):
        vals += np.exp(-((s - center + j * total) ** 2) / (4.0 * sigma ** 2))
    vals *= np.exp(1j * k0 * s)
    return fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart)).normalized()


@pytest.mark.parametrize("center_frac,sigma_frac,k_periods",
                         [(0.5, 1.0 / 12.0, 1), (0.03, 0.2, -3), (0.91, 0.07, 5)],
                         ids=["middle", "left-seam", "right-seam"])
def test_periodic_gaussian_packet_equals_wrapped_image_sum(koch5, center_frac, sigma_frac,
                                                           k_periods):
    grid, chart = koch5
    total = chart.values[-1] - chart.values[0]
    center = chart.values[0] + center_frac * total
    sigma = sigma_frac * total
    k0 = 2.0 * math.pi * k_periods / total
    psi = fc.gaussian_packet(grid, chart, center, sigma, k0, periodic=True)
    ref = _wrapped_image_sum(grid, chart, center, sigma, k0)
    np.testing.assert_array_equal(psi.values, ref.values)


def test_gaussian_packet_rejects_degenerate_width_and_center(koch5):
    grid, chart = koch5
    for sigma in (0.0, -1.0, float("nan"), 1e200, 1e-200):
        with pytest.raises(ValueError, match="sigma"):
            fc.gaussian_packet(grid, chart, center=0.5, sigma=sigma)
    with pytest.raises(ValueError, match="squared norm 0"):
        fc.gaussian_packet(grid, chart, center=1e300, sigma=0.1, periodic=True)
    # a NaN state has no finite norm to divide by
    nan_state = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, complex("nan+nanj")))
    with pytest.raises(ValueError, match="squared norm nan"):
        nan_state.normalized()


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
    d_tau = 1e-3
    ev = fc.CrankNicolsonEvolver(gs, potential, d_tau=d_tau, boundary="dirichlet")
    # the evolver steps with the H that the ground state diagonalizes, so one
    # step multiplies it by g = (1 - i lam E) / (1 + i lam E), E the Rayleigh
    # quotient of an H built here from the chart
    phi = ev.phi.copy()
    kinetic, _ = _dense_kinetic(chart, periodic=False)
    h_phi = kinetic @ phi + vfield.values[1:-1] * phi
    energy = np.vdot(phi, h_phi).real / np.vdot(phi, phi).real
    lam = d_tau / (2.0 * CONST.hbar)
    ev.step()
    g = (1.0 - 1j * lam * energy) / (1.0 + 1j * lam * energy)
    assert np.linalg.norm(ev.phi - g * phi) <= 1e-13 * np.linalg.norm(phi)
    ev.step(int(round(2.0 * math.pi / omega / d_tau)) - 1)
    drift = np.max(np.abs(np.abs(ev.snapshot().values) - np.abs(gs.values)))
    assert drift <= 1e-6
    # the modulus drifts through the eigenvector's residual, whose low modes
    # dephase step by step; over 100 steps (every 10th checked, as in the
    # benchmark's continuity-l9) it stays within r N eps, the benchmark's
    # bound (measured 0.01-0.16 of it at Koch L6-L7)
    eps = np.finfo(float).eps
    for level in (6, 7):
        grid = fc.build_koch(level)
        chart = fc.build_staircase(grid, KOCH_DIM)
        center = 0.5 * (chart.values[0] + chart.values[-1])
        for omega in (60.0, 120.0, 200.0):
            potential = fc.PotentialOnCurve(fc.FieldOnCurve.from_chart_function(
                grid, chart, lambda s: 0.5 * CONST.mass * omega ** 2 * (s - center) ** 2))
            gs = fc.stationary_ground_state(grid, chart, potential)
            ev = fc.CrankNicolsonEvolver(gs, potential, d_tau=1e-4, boundary="dirichlet")
            r = ev.dispersion_r
            drift = 0.0
            for _ in range(10):
                ev.step(10)
                drift = max(drift, np.max(np.abs(np.abs(ev.snapshot().values) - np.abs(gs.values))))
            assert drift <= r * 100 * eps, (level, omega, drift / (r * 100 * eps))


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


def _check_kernel_multipliers(grid, chart, eps, eta):
    """kernel_step's multiplier on every mode, against the damped free propagator.

    The step is a circular convolution, so the DFT of its response to a
    unit impulse at node 0 is the multiplier mu_q of every mode q at once.
    Sampling the kernel at m points aliases mode q with its image, the
    wavenumber 2 pi (m - |q|) / span (Poisson summation), so mu_q may miss
    exp(-i hbar eps k^2 (1 - i eta) / (2 mass)) by twice the image's own
    damped modulus, plus 2e-12 of roundoff.  Checked on every mode whose
    exact |mu| is at least 1e-6.
    """
    m = grid.node_count - 1
    impulse = np.zeros(grid.node_count, dtype=complex)
    impulse[[0, -1]] = 1.0  # the seam node is node 0's wrap image
    out = fc.kernel_step(fc.WaveFunction(fc.FieldOnCurve(grid, impulse, chart)),
                         fc.KernelStep(epsilon=eps, damping_eta=eta))
    mu = np.fft.fft(out.values[:m])
    q = np.minimum(np.arange(m), m - np.arange(m))

    def exact(modes):
        k = 2.0 * math.pi * modes / chart.total
        return np.exp(-1j * CONST.hbar * eps * k * k * (1 - 1j * eta) / (2 * CONST.mass))

    checked = np.abs(exact(q)) >= 1e-6
    bound = 2e-12 + 2.0 * np.abs(exact(m - q))
    assert np.all(np.abs(mu - exact(q))[checked] <= bound[checked])


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

    # every mode: this line's images stay below roundoff up to mode 200 and
    # are as large as mu itself at 511; a finer line's never leave roundoff
    _check_kernel_multipliers(grid, chart, eps, eta)
    fine = fc.build_line((0, 0, 0), (1, 0, 0), 4096)
    _check_kernel_multipliers(fine, fc.build_staircase(fine, 1.0), 1e-3, 5e-4)


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


@pytest.mark.parametrize("eta", [1e-3, 1e-4, 1e-5])
def test_kernel_moments_raw_match_gaussian_integrals(eta):
    # independent oracle: int exp(b d^2) = sqrt(pi/-b), int (d^2/2) exp(b d^2) =
    # sqrt(pi/-b)/(-4b); eta = 1e-4 and 1e-5 sum the quadrature over several
    # panel blocks, the m2 bound of 2e-9 fails without the tail term, and the
    # m0 bound of 1e-12 fails with panel 0 quadrated as one 2 pi phase panel
    m2_rtol = 1e-7 if eta == 1e-5 else 2e-9
    step = fc.KernelStep(epsilon=1e-3, damping_eta=eta)
    b = 1j * CONST.mass / (2.0 * CONST.hbar * step.epsilon * (1.0 - 1j * eta))
    m0_expect = cmath.sqrt(math.pi / -b) / step.normalization
    m2_expect = m0_expect / (-4.0 * b)
    m0, m1, m2 = fc.kernel_moments(step, extrapolate=False)
    assert abs(m0 - m0_expect) <= 1e-12 * abs(m0_expect)
    assert m1 == 0
    assert abs(m2 - m2_expect) <= m2_rtol * abs(m2_expect)


def test_kernel_moments_extrapolated_at_smallest_damping():
    # the linear extrapolation from 2e-5 and 1e-5 leaves a bias of order eta^2
    step = fc.KernelStep(epsilon=1e-3, damping_eta=1e-5)
    m0, m1, m2 = fc.kernel_moments(step)
    m2_expect = 1j * CONST.hbar * step.epsilon / (2.0 * CONST.mass)
    assert abs(m0 - 1.0) <= 1e-9
    assert m1 == 0
    assert abs(m2 - m2_expect) <= 2e-7 * abs(m2)


def test_kernel_moments_refinement_guard(monkeypatch):
    # two nodes per panel cannot resolve one phase period; the check at
    # 8 eta against 4 more nodes per panel must catch it
    monkeypatch.setattr(dynamics, "_NODES_PER_PANEL", 2)
    step = fc.KernelStep(epsilon=1e-3, damping_eta=1e-4)
    with pytest.raises(QuadratureError) as info:
        fc.kernel_moments(step)
    diag = info.value.diagnostics
    assert {"coarse", "fine", "drift"} <= set(diag)
    assert diag["drift"] > 1e-8 * abs(diag["fine"][0])


def test_kernel_moments_memory_bounded():
    # the panel blocks bound the nodes alive at once: building all 4.8M
    # nodes of eta = 1e-5 at once would take tens of MB
    step = fc.KernelStep(epsilon=1e-3, damping_eta=1e-5)
    tracemalloc.start()
    try:
        fc.kernel_moments(step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


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
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    out = fc.evolve(psi, None, d_tau=1e-3, steps=50, boundary="periodic")
    t = ts.t_of(out.tau)
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


def test_potential_rejects_nonfinite_values(koch5):
    # a NaN potential would step to an all-NaN state without any error
    grid, chart = koch5
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            fc.PotentialOnCurve(fc.FieldOnCurve.constant(grid, chart, bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_modulation_raises_naming_tau(bad):
    # a NaN multiplier used to step Koch L3 to an all-NaN state without any error
    grid = fc.build_koch(3)
    chart = fc.build_staircase(grid, KOCH_DIM)
    potential = fc.PotentialOnCurve(fc.FieldOnCurve.constant(grid, chart, 1.0),
                                    time_dependence=lambda tau: bad if tau > 1.5e-3 else 1.0)
    psi = fc.gaussian_packet(grid, chart, center=0.5 * chart.total, sigma=0.1 * chart.total)
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-3, boundary="dirichlet")
    ev.step(2)  # the factors at tau = 0 and 1e-3 are finite
    with pytest.raises(ValueError, match=r"tau=0\.002"):
        ev.step(1)
    with pytest.raises(ValueError, match="time dependence"):
        potential.values_at(0.002)


def test_xi_points_may_only_restate_the_grids_count():
    # H lives on the nodes' own chart values, so the grid fixes the xi point
    # count: the node count, less the seam node on periodic grids
    grid = fc.build_koch(3)
    chart = fc.build_staircase(grid, KOCH_DIM)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0.0j))
    step = fc.KernelStep(epsilon=1e-2, damping_eta=1e-2)
    n = grid.node_count
    assert fc.kernel_step(psi, step, xi_points=np.int64(n - 1)).tau == step.epsilon
    assert fc.evolve(psi, None, 1e-3, 1, boundary="periodic", xi_points=n - 1).tau == 1e-3
    assert fc.evolve(psi, None, 1e-3, 1, xi_points=n).tau == 1e-3
    for bad in (0, 2, n - 2, n + 1, 2.9):
        with pytest.raises(ConjugacyError, match="the grid fixes"):
            fc.kernel_step(psi, step, xi_points=bad)
        with pytest.raises(ConjugacyError, match="the grid fixes"):
            fc.evolve(psi, None, 1e-3, 1, boundary="periodic", xi_points=bad)
    with pytest.raises(ConjugacyError):
        fc.evolve(psi, None, 1e-3, 1, boundary="dirichlet", xi_points=n - 1)


@pytest.mark.parametrize("values,node", [([0.0, 1.0, 1.0, 2.0, 3.0], 1), ([0.0] * 5, 0)],
                         ids=["plateau", "constant"])
def test_zero_chart_increment_raises_plateau_error(values, node):
    # a zero increment gives a node zero trapezoid weight and an infinite
    # coupling, so no H exists on the chart; nothing resamples around it
    grid = fc.build_line((0, 0, 0), (1, 0, 0), 4)
    chart = fc.Staircase(alpha=1.0, params=grid.params, values=np.array(values), p0=0.0)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    potential = fc.PotentialOnCurve(fc.FieldOnCurve.constant(grid, chart, 1.0))
    for run in (lambda: fc.CrankNicolsonEvolver(psi, None, 1e-3, boundary="periodic"),
                lambda: fc.CrankNicolsonEvolver(psi, potential, 1e-3, boundary="dirichlet"),
                lambda: fc.stationary_ground_state(grid, chart, potential),
                lambda: fc.kernel_step(psi, fc.KernelStep(epsilon=1e-3, damping_eta=1e-2))):
        with pytest.raises(PlateauError) as info:
            run()
        assert info.value.node_index == node


def test_kernel_step_needs_a_uniform_chart():
    # the FFT convolution needs a uniform xi grid: increments uniform to 1e-9
    # of their mean pass (Koch's cumsum-built chart spreads by about 5e-13 at
    # level 6), the uneven generator curve's do not
    grid, chart = uneven_curve(6)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    with pytest.raises(ConjugacyError, match="uniform chart"):
        fc.kernel_step(psi, fc.KernelStep(epsilon=1e-2, damping_eta=1e-2))
    grid = fc.build_koch(6)
    chart = fc.build_staircase(grid, KOCH_DIM)
    h = chart.increments
    assert 0 < h.max() - h.min() <= 1e-9 * h.mean()
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j))
    out = fc.kernel_step(psi, fc.KernelStep(epsilon=1e-2, damping_eta=1e-2))
    np.testing.assert_allclose(out.values, 1.0, atol=1e-13)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_probability_conserved_on_an_uneven_chart(boundary):
    # chart increments that spread 58x no longer cost conservation: H lives on
    # them, with nothing resampled, so 500 steps under a harmonic V drift by
    # roundoff only, within max(1e-12, r N eps) (measured 3.4e-14 and 3.9e-14
    # against a bound of 5e-10; an interpolating xi grid drifted by 3.8e-5)
    grid, chart = uneven_curve(10)
    total = chart.total
    psi = fc.gaussian_packet(grid, chart, center=0.5 * total, sigma=total / 12.0,
                             k0=6.0 * math.pi / total, periodic=boundary == "periodic")
    ev = fc.CrankNicolsonEvolver(psi, _harmonic(grid, chart), d_tau=1e-4,
                                 boundary=boundary)
    p0 = fc.total_probability(ev.snapshot())
    ev.step(500)
    drift = abs(fc.total_probability(ev.snapshot()) - p0)
    assert drift <= max(1e-12, ev.dispersion_r * 500 * np.finfo(float).eps), drift


def test_dispersion_r_uses_the_smallest_chart_increment():
    # the uneven chart's increments are its chord lengths 0.6^k 0.4^(6 - k),
    # the smallest 0.4^6, while the mean increment is 1 / 64
    grid, chart = uneven_curve(6)
    constants = fc.PhysicalConstants(hbar=2.0, mass=3.0)
    psi = fc.WaveFunction(fc.FieldOnCurve.constant(grid, chart, 1.0 + 0j), constants=constants)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3)
    assert ev.dispersion_r == pytest.approx(2.0 * 1e-3 / (2.0 * 3.0 * 0.4 ** 12), rel=1e-12)
    with pytest.raises(AttributeError):
        ev.dispersion_r = 1.0


def _named_curve(name):
    """Grid and chart of "koch<level>" (at the Koch dimension) or "uneven<level>"."""
    if name.startswith("uneven"):
        return uneven_curve(int(name[len("uneven"):]))
    grid = fc.build_koch(int(name[len("koch"):]))
    return grid, fc.build_staircase(grid, KOCH_DIM)


def _continuity_defect(theta0, theta1, chart, d_tau, periodic):
    """|theta'|^2 - |theta|^2 + d_tau (J_(j+1/2) - J_(j-1/2)) / w_j at each unknown.

    J_(j+1/2) = (hbar / (m h_j)) Im(conj(tb_j) tb_(j+1)) with tb the midpoint
    state; periodic grids wrap J at the seam, and Dirichlet ones hold
    theta = 0 at both ends.
    """
    h = chart.increments
    keep = slice(0, -1) if periodic else slice(None)
    bar = 0.5 * (theta0[keep] + theta1[keep])
    nxt = np.roll(bar, -1) if periodic else bar[1:]
    flux = (CONST.hbar / (CONST.mass * h)) * np.imag(np.conj(bar[:len(h)]) * nxt)
    if periodic:
        div = (flux - np.roll(flux, 1)) / (0.5 * (np.roll(h, 1) + h))
    else:
        div = np.diff(flux) / (0.5 * (h[:-1] + h[1:]))
        keep = slice(1, -1)
    return np.abs(theta1[keep]) ** 2 - np.abs(theta0[keep]) ** 2 + d_tau * div


@pytest.mark.parametrize("modulation", [None, lambda tau: 1.0 + 40.0 * tau],
                         ids=["static", "ramp"])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("curve", ["koch5", "koch7", "uneven10", "koch5-split",
                                   "uneven10-split"])
def test_cayley_step_obeys_the_discrete_continuity_law(curve, boundary, modulation,
                                                       monkeypatch):
    # theta' - theta = -i (d_tau / hbar) H tb with H real and tridiagonal, so
    # each step balances the density change at every node exactly against
    # the flux of the discrete current; each step takes V at its start tau,
    # so a time-dependent V drops out too.  What is left is roundoff,
    # within c eps r max|theta|^2 with c = 8 (measured up to 4.7).  Split
    # grids are stepped as two blocks, and the law holds at every node, the
    # cut nodes among them (koch7's 16384 periodic unknowns split as well)
    curve, split = curve.removesuffix("-split"), curve.endswith("-split")
    _split_at(monkeypatch, split)
    grid, chart = _named_curve(curve)
    periodic = boundary == "periodic"
    total = chart.total
    psi = fc.gaussian_packet(grid, chart, center=0.5 * total, sigma=total / 12.0,
                             k0=6.0 * math.pi / total, periodic=periodic)
    potential = fc.PotentialOnCurve(_harmonic(grid, chart).field,
                                    time_dependence=modulation)
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-4, boundary=boundary)
    assert len(ev._blocks) == 1 + (split or len(ev.phi) >= 1 << 14)
    bound = 8.0 * np.finfo(float).eps * ev.dispersion_r
    for _ in range(5):
        before = ev.snapshot().values
        after = ev.step().snapshot().values
        defect = _continuity_defect(before, after, chart, ev.d_tau, periodic)
        assert np.max(np.abs(defect)) <= bound * np.max(np.abs(before)) ** 2


def _energy(phi, diag, off, periodic):
    """E = phi^H H phi for H's diagonal and couplings (the corner's last if periodic)."""
    n = len(phi)
    h_phi = diag * phi
    h_phi[:-1] += off[:n - 1] * phi[1:]
    h_phi[1:] += off[:n - 1] * phi[:-1]
    if periodic:
        h_phi[0] += off[-1] * phi[-1]
        h_phi[-1] += off[-1] * phi[0]
    return np.vdot(phi, h_phi).real


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("curve", ["koch5", "uneven10", "koch5-split", "uneven10-split"])
def test_static_cayley_step_conserves_the_energy(curve, boundary, monkeypatch):
    # for a static H the Cayley map (I + i lam H)^-1 (I - i lam H) commutes
    # with H, so E = phi^H H phi is conserved up to roundoff: within
    # c eps |H| |phi|^2 with |H| = |d|_max + 2 |e|_max and c = 1 (measured up
    # to 0.14 over 500 steps, read every 50).  The packet is off centre and
    # moving, so E's kinetic and potential parts change; split and periodic
    # grids put the cut correction's terms c v v^T and M into every step
    curve, split = curve.removesuffix("-split"), curve.endswith("-split")
    _split_at(monkeypatch, split)
    grid, chart = _named_curve(curve)
    periodic = boundary == "periodic"
    total = chart.total
    psi = fc.gaussian_packet(grid, chart, center=0.3 * total, sigma=total / 12.0,
                             k0=6.0 * math.pi / total, periodic=periodic)
    potential = _harmonic(grid, chart)
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-4, boundary=boundary)
    assert len(ev._blocks) == 1 + split
    _, _, kinetic, off, v = dynamics._xi_hamiltonian(chart, CONST, potential, periodic)
    diag = kinetic + v[ev._dof]
    e0 = _energy(ev.phi, diag, off, periodic)
    scale = np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))) \
        * np.vdot(ev.phi, ev.phi).real
    worst = 0.0
    for _ in range(10):
        ev.step(50)
        worst = max(worst, abs(_energy(ev.phi, diag, off, periodic) - e0) / scale)
    assert worst <= 1.0, worst


@pytest.mark.parametrize("curve", ["koch5", "uneven10"])
def test_stepped_h_is_hamiltonian_apply(curve):
    # W^-1 K is calculus.laplacian's interior stencil times -hbar^2 / (2m), so
    # one Dirichlet step satisfies i hbar (psi' - psi) / d_tau = H psi_bar at
    # every interior node, with H the operator of hamiltonian_apply, to
    # within c eps (1 + r) max|psi| / d_tau with c = 8 (measured up to 5.2)
    grid, chart = _named_curve(curve)
    total = chart.total
    potential = _harmonic(grid, chart)
    psi = fc.gaussian_packet(grid, chart, center=0.5 * total, sigma=total / 12.0,
                             k0=6.0 * math.pi / total)
    ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-4, boundary="dirichlet")
    eps = np.finfo(float).eps
    for _ in range(5):
        before = ev.snapshot()
        after = ev.step().snapshot()
        mid = before.with_values(0.5 * (before.values + after.values))
        lhs = 1j * CONST.hbar * (after.values - before.values) / ev.d_tau
        rhs = fc.hamiltonian_apply(mid, potential).values
        bound = 8.0 * eps * (1.0 + ev.dispersion_r) * np.max(np.abs(before.values)) / ev.d_tau
        assert np.max(np.abs(lhs - rhs)[1:-1]) <= bound


def test_kernel_step_on_koch(koch5):
    grid, chart = koch5
    k = 2.0 * math.pi * 2.0 / chart.total
    psi = fc.plane_wave(fc.PlaneWaveParams.from_wavenumber(k), grid, chart)
    eps, eta = 1e-2, 2e-4
    out = fc.kernel_step(psi, fc.KernelStep(epsilon=eps, damping_eta=eta))
    phase_damped = np.exp(-1j * CONST.hbar * k * k * eps * (1 - 1j * eta) / (2 * CONST.mass))
    np.testing.assert_allclose(out.values[:-1], psi.values[:-1] * phase_damped, atol=1e-8)
    _check_kernel_multipliers(grid, chart, eps, eta)
