"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line and measured values for every criterion.
"""

import json
import math
import time

import numpy as np
import pytest

import fractalcurve as fc
from fractalcurve import cli, io

from conftest import CANTOR_DIM, KOCH_DIM, fit_slope, wrapped_gaussian

CONST = fc.PhysicalConstants()


def report(num, desc, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dimension_recovery():
    results = []
    for label, grids, target, tol in (
        ("koch", [fc.build_koch(l) for l in range(2, 8)], KOCH_DIM, 5e-3),
        ("cantor dust", [fc.build_cantor_dust(l) for l in range(2, 8)], CANTOR_DIM, 5e-3),
        ("line", [fc.build_line((0, 0, 0), (1, 0, 0), 2 ** l, level=l) for l in range(1, 7)],
         1.0, 1e-3),
    ):
        t0 = time.perf_counter()
        est = fc.estimate_gamma_dimension(grids, tol=1e-3)
        elapsed = time.perf_counter() - t0
        err = abs(est.alpha_star - target)
        results.append((label, err, tol, elapsed))
    ok = all(err <= tol and elapsed < 10.0 for _, err, tol, elapsed in results)
    detail = "; ".join(f"{lbl}: err={err:.2e} tol={tol:g} t={el:.2f}s"
                       for lbl, err, tol, el in results)
    report(1, "gamma-dimension recovery", ok, detail)


def test_criterion_02_constant_integral_identity():
    cases = []
    line = fc.build_line((0, 0, 0), (2, 0, 0), 500)
    cases.append((line, fc.build_staircase(line, 1.0)))
    koch = fc.build_koch(5)
    cases.append((koch, fc.build_staircase(koch, KOCH_DIM)))
    koch3 = fc.build_koch(3)
    cases.append((koch3, fc.build_staircase(koch3, 1.0, p0=0.5)))
    dust = fc.build_cantor_dust(6)
    cases.append((dust, fc.build_staircase(dust, CANTOR_DIM)))

    worst = 0.0
    for grid, chart in cases:
        one = fc.FieldOnCurve.constant(grid, chart, 1.0)
        n = grid.node_count
        for ia, ib in ((0, n - 1), (n // 3, n - 2), (1, n // 2)):
            a, b = grid.params[ia], grid.params[ib]
            got = fc.falpha_integral(one, a, b)
            expect = chart(b) - chart(a)
            if expect != 0.0:
                worst = max(worst, abs(got - expect) / abs(expect))
    ok = worst <= 1e-12
    report(2, "constant-function integral identity", ok, f"worst rel err={worst:.2e}")


def test_criterion_03_fundamental_theorem():
    k = 2.0 * math.pi
    cases = {"S": lambda s: s, "S^2": lambda s: s ** 2, "sin S": lambda s: np.sin(k * s)}
    exact = {"S": lambda s: s, "S^2": lambda s: s ** 2, "sin S": lambda s: np.sin(k * s)}
    details, ok = [], True
    for name, fn in cases.items():
        errs, hs = [], []
        for level in (5, 6, 7):
            grid = fc.build_koch(level)
            chart = fc.build_staircase(grid, KOCH_DIM)
            f = fc.FieldOnCurve.from_chart_function(grid, chart, fn)
            got = fc.falpha_integral(fc.falpha_derivative(f))
            expect = exact[name](chart.values[-1]) - exact[name](chart.values[0])
            errs.append(abs(got - expect))
            hs.append(float(np.max(chart.increments)))
        if max(errs) < 1e-12:
            case_ok = errs[-1] < 1e-3
            details.append(f"{name}: exact to roundoff ({max(errs):.1e})")
        else:
            slope = fit_slope(hs, errs)
            case_ok = slope >= 0.9 and errs[-1] < 1e-3
            details.append(f"{name}: slope={slope:.2f} lvl7 err={errs[-1]:.2e}")
        ok = ok and case_ok
    report(3, "fundamental theorem of staircase calculus", ok, "; ".join(details))


def test_criterion_04_laplacian_order():
    k = 2.0 * math.pi
    errs, hs = [], []
    for level in (5, 6, 7):
        grid = fc.build_koch(level)
        chart = fc.build_staircase(grid, KOCH_DIM)
        f = fc.FieldOnCurve.from_chart_function(grid, chart, lambda s: np.sin(k * s))
        got = fc.laplacian(f).values
        errs.append(float(np.max(np.abs(got + k * k * np.sin(k * chart.values)))))
        hs.append(float(np.max(chart.increments)))
    slope = fit_slope(hs, errs)
    ok = slope >= 1.9
    report(4, "Laplacian Richardson order", ok, f"slope={slope:.3f}")


def test_criterion_05_kernel_moment_identities():
    step = fc.KernelStep(epsilon=1e-3, damping_eta=1e-4)
    t0 = time.perf_counter()
    m0, m1, m2 = fc.kernel_moments(step)
    elapsed = time.perf_counter() - t0
    m2_expect = 1j * CONST.hbar * step.epsilon / (2.0 * CONST.mass)
    e0, e1 = abs(m0 - 1.0), abs(m1)
    e2 = abs(m2 - m2_expect) / abs(m2_expect)

    raw_errs = []
    for eta in (8e-4, 4e-4, 2e-4, 1e-4):
        r0, _, r2 = fc.kernel_moments(fc.KernelStep(epsilon=1e-3, damping_eta=eta),
                                      extrapolate=False)
        raw_errs.append(abs(r0 - 1.0))
    refining = all(a > b for a, b in zip(raw_errs, raw_errs[1:]))

    ok = e0 <= 1e-6 and e1 <= 1e-8 and e2 <= 1e-6 and refining and elapsed < 1.0
    report(5, "kernel normalization and moments", ok,
           f"|m0-1|={e0:.1e} |m1|={e1:.1e} m2 rel={e2:.1e} "
           f"eta-refinement={'monotone' if refining else 'NOT monotone'} t={elapsed:.2f}s")


def test_criterion_06_plane_wave_solution():
    errs, hs = [], []
    for level, dt in ((4, 4e-3), (5, 1e-3), (6, 2.5e-4)):
        grid = fc.build_koch(level)
        chart = fc.build_staircase(grid, KOCH_DIM)
        params = fc.PlaneWaveParams.from_wavenumber(2.0 * math.pi / chart.total)
        snaps = [fc.plane_wave(params, grid, chart, tau=t)
                 for t in (0.1 - dt, 0.1, 0.1 + dt)]
        errs.append(float(np.max(fc.schrodinger_residual(*snaps).values)))
        hs.append(float(np.max(chart.increments)))
    slope = fit_slope(hs, errs)

    grid = fc.build_koch(5)
    chart = fc.build_staircase(grid, KOCH_DIM)
    params = fc.PlaneWaveParams.from_wavenumber(2.0 * math.pi / chart.total)
    psi = fc.plane_wave(params, grid, chart)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="periodic")
    snaps = [ev.snapshot()]
    for _ in range(10):
        ev.step(20)
        snaps.append(ev.snapshot())
    beta = fc.fit_phase_rate(snaps)
    beta_expect = CONST.hbar * params.k ** 2 / (2.0 * CONST.mass)
    rel = abs(beta - beta_expect) / beta_expect

    ok = slope >= 1.9 and rel <= 1e-3
    report(6, "plane-wave solution", ok,
           f"residual slope={slope:.3f}; phase rel err={rel:.2e} at {len(ev.xi)} xi points")


def test_criterion_07_unitarity_conservation():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    vfield = fc.FieldOnCurve.from_chart_function(grid, chart,
                                                 lambda s: 0.5 * (s - 8.0) ** 2)
    harmonic = fc.PotentialOnCurve(vfield)
    drifts = []
    for label, potential, boundary in (
        ("free/dirichlet", None, "dirichlet"),
        ("free/periodic", None, "periodic"),
        ("harmonic/dirichlet", harmonic, "dirichlet"),
        ("harmonic/periodic", harmonic, "periodic"),
    ):
        psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=1.0,
                                 k0=2.0 * math.pi / 16.0)
        ev = fc.CrankNicolsonEvolver(psi, potential, d_tau=1e-3, boundary=boundary)
        p0 = fc.total_probability(ev.snapshot())
        ev.step(1000)
        drifts.append((label, abs(fc.total_probability(ev.snapshot()) - p0)))
    worst = max(d for _, d in drifts)
    ok = worst <= 1e-10
    report(7, "probability conservation over 1000 steps", ok,
           "; ".join(f"{lbl}: {d:.1e}" for lbl, d in drifts))


def test_criterion_08_continuity_convergence():
    errs, hs = [], []
    for level, dt in ((4, 8e-4), (5, 2e-4), (6, 5e-5)):
        grid = fc.build_koch(level)
        chart = fc.build_staircase(grid, KOCH_DIM)
        psi = wrapped_gaussian(grid, chart)
        ev = fc.CrankNicolsonEvolver(psi, None, d_tau=dt, boundary="periodic")
        ev.step(int(round(0.004 / dt)))
        a = ev.snapshot()
        ev.step(1)
        b = ev.snapshot()
        ev.step(1)
        c = ev.snapshot()
        errs.append(float(np.max(fc.continuity_residual(a, b, c).values)))
        hs.append(float(np.max(chart.increments)))
    slope = fit_slope(hs, errs)
    ok = slope >= 1.9
    report(8, "continuity residual convergence", ok,
           f"slope={slope:.3f} over 3 simultaneous (d_tau, dxi) refinements")


def test_criterion_09_kernel_crank_nicolson_crosscheck():
    eps_list = (1e-2, 3e-3, 1e-3, 3e-4)
    diffs = []
    for eps in eps_list:
        eta = 0.5 * eps
        m = max(512, 2 ** math.ceil(math.log2(1.6 / eps)))
        grid = fc.build_line((0, 0, 0), (1, 0, 0), m)
        chart = fc.build_staircase(grid, 1.0)
        s = chart.values
        vals = (np.exp(2j * np.pi * s) + 0.5j * np.exp(4j * np.pi * s)
                + 0.2 * np.exp(6j * np.pi * s))
        psi = fc.WaveFunction(fc.FieldOnCurve(grid, vals, chart))
        kern = fc.kernel_step(psi, fc.KernelStep(epsilon=eps, damping_eta=eta), xi_points=m)
        cn = fc.evolve(psi, None, d_tau=eps, steps=1, boundary="periodic", xi_points=m)
        diffs.append(float(np.max(np.abs(kern.values - cn.values))))
    slope = fit_slope(eps_list, diffs)
    ok = slope >= 1.8
    report(9, "kernel step vs Crank-Nicolson cross-check", ok,
           f"order={slope:.3f} over eps={list(eps_list)}")


def test_criterion_10_alpha1_gaussian_variance():
    grid = fc.build_line((0, 0, 0), (16, 0, 0), 1023)
    chart = fc.build_staircase(grid, 1.0)
    sigma0 = 1.0
    psi = fc.gaussian_packet(grid, chart, center=8.0, sigma=sigma0)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-3, boundary="dirichlet")
    s = chart.values
    worst = 0.0
    for _ in range(4):
        ev.step(250)
        snap = ev.snapshot()
        rho = np.abs(snap.values) ** 2
        z = fc.falpha_integral(snap.field.with_values(rho))
        mean = fc.falpha_integral(snap.field.with_values(rho * s)) / z
        var = fc.falpha_integral(snap.field.with_values(rho * s * s)) / z - mean ** 2
        expect = sigma0 ** 2 + (CONST.hbar * snap.tau / (2.0 * CONST.mass * sigma0)) ** 2
        worst = max(worst, abs(var - expect) / expect)
    ok = worst <= 0.01
    report(10, "alpha=1 free-Gaussian variance law", ok,
           f"worst rel err={worst:.2e} over tau in (0,1] at 1024 points")


def test_criterion_11_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "curve": {"kind": "koch", "level": 4},
        "alpha_space": "auto",
        "time_set": {"kind": "cantor", "T": 1.0, "level": 5},
        "run": {
            "d_tau": 1e-3, "steps": 30, "snapshot_stride": 10, "boundary": "periodic",
            "initial": {"kind": "plane_wave", "k_periods": 1},
        },
        "output": str(tmp_path / "unused"),
    }))
    checked = 0
    ok = True
    for sub in ("evolve", "dimension", "staircase"):
        if sub == "dimension":
            cfg = json.loads(cfg_path.read_text())
            cfg["dimension"] = {"levels": [2, 3, 4, 5], "tol": 1e-3}
            cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        assert cli.main([sub, str(cfg_path), "--output-dir", str(a)]) == 0
        assert cli.main([sub, str(cfg_path), "--output-dir", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        ok = ok and names == sorted(p.name for p in b.iterdir())
        for name in names:
            ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
            checked += 1
    report(11, "CLI determinism (byte-identical reruns)", ok and checked > 0,
           f"{checked} files compared across evolve/dimension/staircase")
