"""Configuration-driven command line front end.

One JSON config file describes an experiment; the subcommand selects
what to compute.  All numeric output is written through :mod:`.io` at 17
significant digits with no timestamps, so identical configs produce
byte-identical artifacts.  Exit codes: 0 success, 1 numerical failure,
2 config or usage error.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import sys
from collections import deque
from pathlib import Path

import numpy as np

from . import __version__, io
from .calculus import FieldOnCurve, falpha_derivative, falpha_integral
from .curves import DEFAULT_LEVEL_CAP, build_cantor_dust, build_cantor_time, build_koch, build_line
from .dynamics import (
    CrankNicolsonEvolver,
    PhysicalConstants,
    PlaneWaveParams,
    PotentialOnCurve,
    _phase_increment,
    gaussian_packet,
    plane_wave,
    stationary_ground_state,
)
from .errors import FractalCurveError
from .flow import continuity_residual, total_probability
from .measure import build_staircase, estimate_gamma_dimension, gamma_premeasure

OUTPUT_ROOT_ENV = "FRACTALCURVE_OUTPUT_ROOT"

# node budget of any grid a config asks for: the finest Koch curve's 4^cap segments
_MAX_SEGMENTS = 4 ** DEFAULT_LEVEL_CAP
_MAX_LEVEL = 2 * DEFAULT_LEVEL_CAP  # binary refinement (line, Cantor time set) to that budget


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if not _is_number(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    _require(not required, f"config is missing required key {key!r}")
    return default


def _checked(cfg, key, default, required, ok, what):
    value = _get(cfg, key, default, required)
    if value is None and default is None and not required:
        return None  # an optional key left unset
    _require(ok(value), f"{key} must be {what}")
    return value


def _number(cfg, key, default=None, required=False, positive=False) -> float | None:
    """A finite float (optionally > 0); None when an optional key is unset."""
    value = _checked(cfg, key, default, required,
                     lambda v: _finite(v) and (v > 0 or not positive),
                     "a positive finite number" if positive else "a finite number")
    return None if value is None else float(value)


def _int(cfg, key, default=None, required=False, minimum=0, maximum=math.inf) -> int | None:
    """An integer (not a bool) in [minimum, maximum]; None when an optional key is unset."""
    what = (f"an integer >= {minimum}" if maximum == math.inf
            else f"an integer in [{minimum}, {maximum}]")
    return _checked(cfg, key, default, required,
                    lambda v: _is_int(v) and minimum <= v <= maximum, what)


def _complex(cfg, key, default) -> complex:
    """A finite complex amplitude: a JSON number or a string such as "1+2j"."""
    value = _get(cfg, key, default)
    try:
        z = complex(value) if isinstance(value, str) or _is_number(value) else None
    except (ValueError, OverflowError):
        z = None
    _require(z is not None and cmath.isfinite(z), f"{key} must be a finite complex number")
    return z


def _point(cfg, key, default) -> list:
    """A point of R^3: three finite numbers."""
    return _checked(cfg, key, default, False,
                    lambda v: isinstance(v, list) and len(v) == 3 and all(map(_finite, v)),
                    "a list of three finite numbers")


def _section(cfg, key, default=None, required=False) -> dict:
    """A nested JSON object of the config."""
    value = _get(cfg, key, default, required)
    _require(isinstance(value, dict), f"{key!r} must be an object")
    return value


def load_config(path) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    _require(isinstance(cfg, dict), "config root must be a JSON object")
    return cfg


def config_sha256(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _build_curve(curve_cfg, level=None):
    _require(isinstance(curve_cfg, dict), "'curve' must be an object")
    kind = _get(curve_cfg, "kind", required=True)
    if kind == "koch":
        lvl = level if level is not None else _int(curve_cfg, "level", required=True)
        return build_koch(lvl)
    if kind == "cantor_dust":
        lvl = level if level is not None else _int(curve_cfg, "level", required=True)
        return build_cantor_dust(lvl, T=_number(curve_cfg, "T", 1.0, positive=True))
    if kind == "line":
        start = _point(curve_cfg, "start", [0.0, 0.0, 0.0])
        end = _point(curve_cfg, "end", [1.0, 0.0, 0.0])
        if level is not None:
            _require(level <= _MAX_LEVEL,
                     f"levels of a line must be <= {_MAX_LEVEL} (2^level segments)")
            return build_line(start, end, 2 ** level, level=level)
        n = _int(curve_cfg, "segments", required=True, minimum=1, maximum=_MAX_SEGMENTS)
        return build_line(start, end, n, level=_int(curve_cfg, "level", 0))
    raise ConfigError(f"unknown curve kind {kind!r}")


def _dimension_grids(curve_cfg, levels):
    _require(isinstance(levels, list), "dimension levels must be a list")
    _require(len(levels) >= 3, "dimension estimation needs at least 3 levels")
    _require(all(_is_int(l) and l >= 0 for l in levels), "levels must be integers >= 0")
    _require(list(levels) == sorted(set(levels)), "levels must be strictly increasing")
    return [_build_curve(curve_cfg, level=l) for l in levels]


def _resolve_alpha(cfg, grid):
    requested = _get(cfg, "alpha_space", 1.0)
    if requested == "auto":
        curve_cfg = cfg["curve"]
        kind = _get(curve_cfg, "kind", required=True)
        top = min(grid.level, 7) if kind != "line" else 6
        levels = list(range(max(1, top - 4), top + 1))
        if len(levels) < 3:
            levels = [1, 2, 3]
        est = estimate_gamma_dimension(_dimension_grids(curve_cfg, levels), tol=1e-3)
        return est.alpha_star
    return _number(cfg, "alpha_space", 1.0, positive=True)


def _physics(cfg) -> PhysicalConstants:
    phys = _section(cfg, "physics", {})
    return PhysicalConstants(hbar=_number(phys, "hbar", 1.0, positive=True),
                             mass=_number(phys, "mass", 1.0, positive=True))


def _time_chart(cfg):
    ts_cfg = _section(cfg, "time_set", {"kind": "full"})
    kind = _get(ts_cfg, "kind", "full")
    if kind == "full":
        return None, None
    if kind == "cantor":
        T = _number(ts_cfg, "T", 1.0, positive=True)
        ts = build_cantor_time(T, _int(ts_cfg, "level", required=True, maximum=_MAX_LEVEL))
        return ts, ts.time_staircase
    raise ConfigError(f"unknown time_set kind {kind!r}")


def _output_dir(cfg, override=None) -> Path:
    out = override if override is not None else _get(cfg, "output", required=True)
    _require(isinstance(out, str), "output must be a path string")
    path = Path(out)
    if not path.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(cfg, derived) -> dict:
    return {
        "config": cfg,
        "config_sha256": config_sha256(cfg),
        "package_version": __version__,
        "derived": derived,
    }


def _make_field(cfg, grid, chart) -> FieldOnCurve:
    fld = _section(cfg, "field", required=True)
    kind = _get(fld, "kind", required=True)
    s_total = chart.values[-1] - chart.values[0]
    if kind == "constant":
        return FieldOnCurve.constant(grid, chart, _number(fld, "value", 1.0))
    if kind == "staircase":
        return FieldOnCurve.from_chart_function(grid, chart, lambda s: s)
    if kind == "staircase_squared":
        return FieldOnCurve.from_chart_function(grid, chart, lambda s: s ** 2)
    if kind == "sin_staircase":
        q = _number(fld, "k_periods", 1.0)
        k = 2.0 * math.pi * q / s_total
        return FieldOnCurve.from_chart_function(grid, chart, lambda s: np.sin(k * s))
    raise ConfigError(f"unknown field kind {kind!r}")


def _initial_state(run_cfg, grid, chart, time_chart, constants, boundary, xi_points,
                   potential):
    init = _section(run_cfg, "initial", required=True)
    kind = _get(init, "kind", required=True)
    # Python floats: an overflow gives inf (checked below), not a numpy warning
    s0 = float(chart.values[0])
    s_total = float(chart.values[-1] - chart.values[0])
    if kind == "plane_wave":
        k = 2.0 * math.pi * _number(init, "k_periods", 1.0) / s_total
        A, B = _complex(init, "A", 1.0), _complex(init, "B", 0.0)
        try:  # |psi|^2 peaks at (|A| + |B|)^2, and the run squares psi
            peak = (abs(A) + abs(B)) ** 2
        except OverflowError:
            peak = math.inf
        _require(peak < math.inf, "A and B must keep the peak density (|A| + |B|)^2 finite")
        try:
            params = PlaneWaveParams.from_wavenumber(k, A=A, B=B, constants=constants)
        except ValueError:  # k, and so beta, beyond the float range
            params = None
        # the phase check divides by beta, so it must be finite and nonzero
        _require(params is not None and params.beta > 0,
                 "k_periods must give a finite, nonzero phase rate beta = hbar k^2 / (2 m)")
        return plane_wave(params, grid, chart, time_chart=time_chart, constants=constants), params
    if kind == "gaussian":
        center = s0 + _number(init, "center_frac", 0.5) * s_total
        sigma = _number(init, "sigma_frac", 1.0 / 12.0, positive=True) * s_total
        k0 = 2.0 * math.pi * _number(init, "k0_periods", 0.0) / s_total
        _require(math.isfinite(k0), "k0_periods must give a finite wavenumber")
        try:
            psi = gaussian_packet(grid, chart, center, sigma, k0, time_chart=time_chart,
                                  constants=constants, periodic=boundary == "periodic")
        except ValueError as exc:
            raise ConfigError(f"gaussian center_frac and sigma_frac give no packet: {exc}")
        return psi, None
    if kind == "harmonic_ground":
        _require(boundary == "dirichlet", "harmonic_ground requires dirichlet boundary")
        _require(potential is not None, "harmonic_ground requires a potential")
        psi = stationary_ground_state(grid, chart, potential, constants=constants,
                                      time_chart=time_chart, xi_points=xi_points)
        return psi, None
    raise ConfigError(f"unknown initial state kind {kind!r}")


def _potential(run_cfg, grid, chart, constants):
    pot = _section(run_cfg, "potential", {"kind": "none"})
    kind = _get(pot, "kind", "none")
    if kind == "none":
        return None
    if kind == "harmonic":
        omega = _number(pot, "omega", 1.0, positive=True)
        s0 = chart.values[0]
        s_total = chart.values[-1] - chart.values[0]
        center = s0 + _number(pot, "center_frac", 0.5) * s_total
        fld = FieldOnCurve.from_chart_function(
            grid, chart, lambda s: 0.5 * constants.mass * omega ** 2 * (s - center) ** 2)
        return PotentialOnCurve(fld)
    raise ConfigError(f"unknown potential kind {kind!r}")


def cmd_dimension(cfg, out_dir: Path) -> int:
    dim_cfg = _section(cfg, "dimension", required=True)
    levels = _get(dim_cfg, "levels", required=True)
    tol = _number(dim_cfg, "tol", 1e-3, positive=True)
    grids = _dimension_grids(_get(cfg, "curve", required=True), levels)
    est = estimate_gamma_dimension(grids, tol=tol)
    report = est.to_report_dict()
    report["premeasure_at_alpha"] = [gamma_premeasure(g, est.alpha_star).value for g in grids]
    io.write_json(out_dir / "dimension.json", report)
    io.write_json(out_dir / "manifest.json", _manifest(cfg, {"alpha_star": est.alpha_star}))
    return 0


def cmd_staircase(cfg, out_dir: Path) -> int:
    wrote = False
    derived = {}
    if "curve" in cfg:
        grid, alpha, chart = _field_context(cfg)
        io.write_staircase_csv(out_dir / "staircase.csv", chart)
        derived["alpha_space"] = alpha
        derived["staircase_total"] = chart.total
        wrote = True
    ts, time_chart = _time_chart(cfg)
    if ts is not None:
        io.write_staircase_csv(out_dir / "time_staircase.csv", time_chart)
        io.write_timeset_csv(out_dir / "timeset.csv", ts)
        derived["time_staircase_total"] = time_chart.total
        wrote = True
    _require(wrote, "staircase needs a 'curve' or a cantor 'time_set' section")
    io.write_json(out_dir / "manifest.json", _manifest(cfg, derived))
    return 0


def _field_context(cfg):
    """Curve grid, space exponent and staircase chart of the config."""
    grid = _build_curve(_get(cfg, "curve", required=True))
    alpha = _resolve_alpha(cfg, grid)
    p0 = _number(cfg, "p0")
    lo, hi = grid.param_domain
    _require(p0 is None or lo <= p0 <= hi, f"p0 must lie in the parameter domain [{lo}, {hi}]")
    return grid, alpha, build_staircase(grid, alpha, p0=p0)


def cmd_derive(cfg, out_dir: Path) -> int:
    grid, alpha, chart = _field_context(cfg)
    f = _make_field(cfg, grid, chart)
    df = falpha_derivative(f)
    io.write_field_csv(out_dir / "derive.csv", df)
    io.write_json(out_dir / "manifest.json", _manifest(cfg, {"alpha_space": alpha}))
    return 0


def cmd_integrate(cfg, out_dir: Path) -> int:
    grid, alpha, chart = _field_context(cfg)
    f = _make_field(cfg, grid, chart)
    rng = _section(cfg, "integrate", {})
    a = _number(rng, "a")
    b = _number(rng, "b")
    value = falpha_integral(f, a=a, b=b)
    report = {
        "value_re": float(np.real(value)),
        "value_im": float(np.imag(value)),
        # bounds as the config wrote them, so integer bounds stay integers
        "a": grid.params[0] if a is None else rng["a"],
        "b": grid.params[-1] if b is None else rng["b"],
    }
    io.write_json(out_dir / "integrate.json", report)
    io.write_json(out_dir / "manifest.json", _manifest(cfg, {"alpha_space": alpha}))
    return 0


def _run_evolution(cfg, out_dir: Path, write_snapshots: bool) -> int:
    run_cfg = _section(cfg, "run", required=True)
    d_tau = _number(run_cfg, "d_tau", required=True, positive=True)
    steps = _int(run_cfg, "steps", required=True, minimum=1)
    stride = _int(run_cfg, "snapshot_stride", max(1, steps // 10), minimum=1)
    boundary = _get(run_cfg, "boundary", "dirichlet")
    _require(boundary in ("dirichlet", "periodic"), "boundary must be dirichlet or periodic")
    xi_points = _int(run_cfg, "xi_points", minimum=1, maximum=_MAX_SEGMENTS + 1)

    grid, alpha, chart = _field_context(cfg)
    constants = _physics(cfg)
    ts, time_chart = _time_chart(cfg)
    potential = _potential(run_cfg, grid, chart, constants)
    psi0, pw_params = _initial_state(run_cfg, grid, chart, time_chart, constants, boundary,
                                     xi_points, potential)
    ground = _get(run_cfg["initial"], "kind") == "harmonic_ground"

    # one pass: each snapshot is written and folded into the checks, then
    # dropped once it leaves the window that the continuity rows need
    ev = CrankNicolsonEvolver(psi0, potential, d_tau, boundary=boundary, xi_points=xi_points)
    window = deque(maxlen=3)  # the last three (step, snapshot) pairs
    rows, drifts, phase, done = [], [], 0.0, 0
    while True:
        psi = ev.snapshot()
        if write_snapshots:
            io.write_snapshot_csv(out_dir / f"snapshot_{done:06d}.csv", psi)
        if pw_params is not None and window:
            phase += _phase_increment(window[-1][1], psi)
        if ground:
            drifts.append(float(np.max(np.abs(np.abs(psi.values) - np.abs(psi0.values)))))
        window.append((done, psi))
        if len(window) == 3 and window[1][0] - window[0][0] == done - window[1][0]:
            (_, pa), (_, pb), _ = window
            res = continuity_residual(pa, pb, psi).values
            l2 = math.sqrt(float(falpha_integral(pb.field.with_values(res.astype(float) ** 2))))
            rows.append((pb.tau, float(np.max(res)), l2, total_probability(pb)))
        if done == steps:
            break
        n = min(stride, steps - done)
        ev.step(n)
        done += n
    io.write_continuity_csv(out_dir / "continuity.csv", rows)

    derived = {
        "alpha_space": alpha,
        "staircase_total": chart.total,
        "node_count": grid.node_count,
        "xi_points": len(ev.xi),
        "final_tau": ev.tau,
        "final_total_probability": total_probability(psi),
    }
    if ts is not None:
        derived["final_wall_time"] = psi.wall_time()

    if pw_params is not None:
        beta_measured = -phase / (psi.tau - psi0.tau)
        beta_expected = pw_params.beta
        io.write_json(out_dir / "phase_check.json", {
            "beta_measured": beta_measured,
            "beta_expected": beta_expected,
            "relative_error": abs(beta_measured - beta_expected) / abs(beta_expected),
        })
    if ground:
        io.write_json(out_dir / "stationary_report.json", {"max_modulus_drift": max(drifts)})

    io.write_json(out_dir / "manifest.json", _manifest(cfg, derived))
    return 0


def cmd_evolve(cfg, out_dir: Path) -> int:
    return _run_evolution(cfg, out_dir, write_snapshots=True)


def cmd_continuity(cfg, out_dir: Path) -> int:
    return _run_evolution(cfg, out_dir, write_snapshots=False)


_COMMANDS = {
    "dimension": cmd_dimension,
    "staircase": cmd_staircase,
    "derive": cmd_derive,
    "integrate": cmd_integrate,
    "evolve": cmd_evolve,
    "continuity": cmd_continuity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalcurve",
        description="Staircase calculus and Schrodinger evolution on fractal curves.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to the experiment JSON config")
    parser.add_argument("--output-dir", default=None,
                        help="override the config's output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        out_dir = _output_dir(cfg, override=args.output_dir)
        # numpy raises on a float overflow, a division by zero or an invalid
        # operation, so these end the run as numerical failures (ArithmeticError)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FractalCurveError, ArithmeticError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        slopes = getattr(exc, "slopes", None)
        if slopes is not None:
            diag["slopes"] = list(map(float, slopes))
        try:
            io.write_json(_output_dir(cfg, override=args.output_dir) / "error.json", diag)
        except Exception:
            pass
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
