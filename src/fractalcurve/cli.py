"""Configuration-driven command line front end.

One JSON config file describes an experiment; the subcommand selects
what to compute.  A command first calls one reader per config section,
which checks every key of it and returns a builder of what it describes,
and only then builds: a config error comes before any build (but for the
keys the chart's span or the grid's nodes bound) and before any file is
written, and it leaves behind no output directory that the run made.
All numeric output goes through :mod:`.io` at 17 significant digits with
no timestamps, so identical configs produce byte-identical artifacts.
Exit codes: 0 success, 1 numerical or output failure, 2 config or usage
error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import sys
from collections import deque
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, io
from .calculus import FieldOnCurve, _node_index, falpha_derivative, falpha_integral
from .curves import (MAX_SEGMENTS, build_cantor_dust, build_cantor_time, build_koch,
                     build_line, level_cap)
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
from .errors import AlignmentError, FractalCurveError
from .flow import continuity_residual, total_probability
from .measure import build_staircase, estimate_gamma_dimension, gamma_premeasure

OUTPUT_ROOT_ENV = "FRACTALCURVE_OUTPUT_ROOT"

# the builders' level caps, checked here so a config fault exits 2 before any build;
# a line's level l means 2^l segments
_LEVEL_CAP = {"koch": level_cap(4), "cantor_dust": level_cap(2), "line": level_cap(2)}


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


def _curve(cfg, own=True):
    """Kind, level, p0 and builder ``grid_at(level=None)`` of the config's curve;
    ``grid_at(l)`` builds level l (2^l segments for a line).  ``own=False`` skips
    the curve's own level, segments and ``p0``: ``dimension`` sets the levels."""
    curve = _section(cfg, "curve", required=True)
    kind = _get(curve, "kind", required=True)
    _require(isinstance(kind, str) and kind in _LEVEL_CAP, f"unknown curve kind {kind!r}")
    level, p0, T = None, None, 1.0
    if kind == "line":
        start = _point(curve, "start", [0.0, 0.0, 0.0])
        end = _point(curve, "end", [1.0, 0.0, 0.0])
        if own:
            segments = _int(curve, "segments", required=True, minimum=1, maximum=MAX_SEGMENTS)
            level = _int(curve, "level", 0)
    else:
        if own:
            level = _int(curve, "level", required=True, maximum=_LEVEL_CAP[kind])
        if kind == "cantor_dust":
            T = _number(curve, "T", 1.0, positive=True)
    if own:
        p0 = _number(cfg, "p0")
        _require(p0 is None or 0.0 <= p0 <= T, f"p0 must lie in the parameter domain [0.0, {T}]")

    def grid_at(lvl=None):
        if kind == "line":
            n, lvl = (segments, level) if lvl is None else (2 ** lvl, lvl)
            return build_line(start, end, n, level=lvl)
        lvl = level if lvl is None else lvl
        return build_koch(lvl) if kind == "koch" else build_cantor_dust(lvl, T=T)

    return kind, level, p0, grid_at


def _field_context(cfg):
    """Builder of the curve grid, space exponent and staircase chart of the config."""
    kind, level, p0, grid_at = _curve(cfg)
    alpha = _get(cfg, "alpha_space", 1.0)
    if alpha == "auto":
        top = min(level, 7) if kind != "line" else 6
        levels = list(range(max(1, top - 4), top + 1)) if top >= 3 else [1, 2, 3]
    else:
        alpha = _number(cfg, "alpha_space", 1.0, positive=True)
        # a curve in R^3 has dimension at most 3 (Gamma(alpha + 1) overflows past ~170)
        _require(alpha <= 3.0, "alpha_space must lie in (0, 3], 3 being the dimension of R^3")

    def build():
        grid = grid_at()
        exponent = alpha if alpha != "auto" else estimate_gamma_dimension(
            [grid_at(l) for l in levels], tol=1e-3).alpha_star
        return grid, exponent, build_staircase(grid, exponent, p0=p0)

    return build


def _physics(cfg):
    """The config's constants, and a check ``(chart) -> None`` of H's largest coupling."""
    phys = _section(cfg, "physics", {})
    hbar = _number(phys, "hbar", 1.0, positive=True)
    mass = _number(phys, "mass", 1.0, positive=True)

    def check_couplings(chart):
        h = float(chart.increments.min())  # 0 on a plateau, which the evolver rejects
        _require(h == 0.0 or hbar * hbar / (2.0 * mass) / h / h <= math.sqrt(sys.float_info.max),
                 "hbar and mass must keep H's largest coupling hbar^2 / (2 mass h^2), h the "
                 "smallest chart increment, within the square root of the float range")

    return PhysicalConstants(hbar=hbar, mass=mass), check_couplings


def _time_set(cfg):
    """Builder of the config's Cantor time set, or None for full time."""
    ts_cfg = _section(cfg, "time_set", {"kind": "full"})
    kind = _get(ts_cfg, "kind", "full")
    if kind == "full":
        return None
    _require(kind == "cantor", f"unknown time_set kind {kind!r}")
    T = _number(ts_cfg, "T", 1.0, positive=True)
    level = _int(ts_cfg, "level", required=True, maximum=level_cap(2))
    return lambda: build_cantor_time(T, level)


def _output_dir(cfg, override=None) -> Path:
    out = override if override is not None else _get(cfg, "output", required=True)
    _require(isinstance(out, str), "output must be a path string")
    path = Path(out)
    if not path.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    return path


def _manifest(cfg, derived) -> dict:
    return {
        "config": cfg,
        "config_sha256": config_sha256(cfg),
        "package_version": __version__,
        "derived": derived,
    }


def _field(cfg):
    """Builder ``(grid, chart) -> FieldOnCurve`` of the config's field."""
    fld = _section(cfg, "field", required=True)
    kind = _get(fld, "kind", required=True)
    if kind == "constant":
        value = _number(fld, "value", 1.0)
        return lambda grid, chart: FieldOnCurve.constant(grid, chart, value)
    if kind == "sin_staircase":
        q = _number(fld, "k_periods", 1.0)

        def sin_field(grid, chart):
            k = 2.0 * math.pi * q / chart.total  # a Python float: overflow gives inf
            _require(math.isfinite(k), "k_periods must give a finite wavenumber")
            return FieldOnCurve.from_chart_function(grid, chart, lambda s: np.sin(k * s))

        return sin_field
    _require(kind in ("staircase", "staircase_squared"), f"unknown field kind {kind!r}")
    shape = (lambda s: s) if kind == "staircase" else (lambda s: s ** 2)
    return lambda grid, chart: FieldOnCurve.from_chart_function(grid, chart, shape)


def _initial_state(run_cfg, constants, boundary, has_potential):
    """Kind and builder ``(grid, chart, potential) -> (psi0, plane-wave params or None)``;
    the builder checks the keys the chart's span bounds (see README)."""
    init = _section(run_cfg, "initial", required=True)
    kind = _get(init, "kind", required=True)
    if kind == "plane_wave":
        q = _number(init, "k_periods", 1.0)
        A, B = _complex(init, "A", 1.0), _complex(init, "B", 0.0)
        try:  # |psi|^2 peaks at (|A| + |B|)^2, and the run squares psi
            peak = (abs(A) + abs(B)) ** 2
        except OverflowError:
            peak = math.inf
        _require(peak < math.inf, "A and B must keep the peak density (|A| + |B|)^2 finite")

        # chart.total is a Python float: an overflow gives inf, not a numpy warning
        def build(grid, chart, potential):
            k = 2.0 * math.pi * q / chart.total
            try:
                params = PlaneWaveParams.from_wavenumber(k, A=A, B=B, constants=constants)
            except ValueError:  # k, and so beta, beyond the float range
                params = None
            # the phase check divides by beta, so it must be finite and nonzero
            _require(params is not None and params.beta > 0,
                     "k_periods must give a finite, nonzero phase rate beta = hbar k^2 / (2 m)")
            return plane_wave(params, grid, chart), params
    elif kind == "gaussian":
        center_frac = _number(init, "center_frac", 0.5)
        sigma_frac = _number(init, "sigma_frac", 1.0 / 12.0, positive=True)
        k0_periods = _number(init, "k0_periods", 0.0)

        def build(grid, chart, potential):
            s0, s_total = float(chart.values[0]), chart.total
            k0 = 2.0 * math.pi * k0_periods / s_total
            _require(math.isfinite(k0), "k0_periods must give a finite wavenumber")
            try:
                psi = gaussian_packet(grid, chart, s0 + center_frac * s_total,
                                      sigma_frac * s_total, k0, constants=constants,
                                      periodic=boundary == "periodic")
            except ValueError as exc:
                raise ConfigError(f"gaussian center_frac and sigma_frac give no packet: {exc}")
            return psi, None
    else:
        _require(kind == "harmonic_ground", f"unknown initial state kind {kind!r}")
        _require(boundary == "dirichlet", "harmonic_ground requires dirichlet boundary")
        _require(has_potential, "harmonic_ground requires a potential")

        def build(grid, chart, potential):
            return stationary_ground_state(grid, chart, potential, constants=constants), None
    return kind, build


def _potential(run_cfg, constants):
    """Builder ``(grid, chart) -> PotentialOnCurve`` of the run's potential, or None."""
    pot = _section(run_cfg, "potential", {"kind": "none"})
    kind = _get(pot, "kind", "none")
    if kind == "none":
        return None
    _require(kind == "harmonic", f"unknown potential kind {kind!r}")
    omega = _number(pot, "omega", 1.0, positive=True)
    center_frac = _number(pot, "center_frac", 0.5)
    try:  # V = stiffness (S - center)^2
        stiffness = 0.5 * constants.mass * omega ** 2
    except OverflowError:
        stiffness = math.inf
    _require(stiffness < math.inf, "omega must keep 0.5 m omega^2 finite")

    def build(grid, chart):
        s0, s1 = map(float, chart.values[[0, -1]])  # V peaks at an end of the chart
        center = s0 + center_frac * (s1 - s0)
        reach = max(abs(s0 - center), abs(s1 - center))
        _require(math.isfinite(stiffness * (reach * reach)),
                 "center_frac must keep the peak of V, 0.5 m omega^2 max|S - center|^2, finite")
        return PotentialOnCurve(FieldOnCurve.from_chart_function(
            grid, chart, lambda s: stiffness * (s - center) ** 2))

    return build


def cmd_dimension(cfg, out_dir: Path) -> int:
    dim_cfg = _section(cfg, "dimension", required=True)
    levels = _get(dim_cfg, "levels", required=True)
    tol = _number(dim_cfg, "tol", 1e-3, positive=True)
    kind, _, _, grid_at = _curve(cfg, own=False)
    _require(isinstance(levels, list), "dimension levels must be a list")
    _require(len(levels) >= 3, "dimension estimation needs at least 3 levels")
    cap = _LEVEL_CAP[kind]
    _require(all(_is_int(l) and 0 <= l <= cap for l in levels),
             f"levels of a {kind} curve must be integers in [0, {cap}]")
    _require(levels == sorted(set(levels)), "levels must be strictly increasing")
    grids = [grid_at(l) for l in levels]
    est = estimate_gamma_dimension(grids, tol=tol)
    report = est.to_report_dict()
    report["premeasure_at_alpha"] = [gamma_premeasure(g, est.alpha_star).value for g in grids]
    io.write_json(out_dir / "dimension.json", report)
    io.write_json(out_dir / "manifest.json", _manifest(cfg, {"alpha_star": est.alpha_star}))
    return 0


def cmd_staircase(cfg, out_dir: Path) -> int:
    field_context = _field_context(cfg) if "curve" in cfg else None
    time_set = _time_set(cfg)
    _require(field_context or time_set, "staircase needs a 'curve' or a cantor 'time_set' section")
    derived = {}
    if field_context:
        grid, alpha, chart = field_context()
        io.write_staircase_csv(out_dir / "staircase.csv", chart)
        derived["alpha_space"] = alpha
        derived["staircase_total"] = chart.total
    if time_set:
        ts = time_set()
        io.write_staircase_csv(out_dir / "time_staircase.csv", ts.time_staircase)
        io.write_timeset_csv(out_dir / "timeset.csv", ts)
        derived["time_staircase_total"] = ts.time_staircase.total
    io.write_json(out_dir / "manifest.json", _manifest(cfg, derived))
    return 0


def cmd_derive(cfg, out_dir: Path) -> int:
    field_context, field = _field_context(cfg), _field(cfg)
    grid, alpha, chart = field_context()
    io.write_field_csv(out_dir / "derive.csv", falpha_derivative(field(grid, chart)))
    io.write_json(out_dir / "manifest.json", _manifest(cfg, {"alpha_space": alpha}))
    return 0


def cmd_integrate(cfg, out_dir: Path) -> int:
    field_context, field = _field_context(cfg), _field(cfg)
    rng = _section(cfg, "integrate", {})
    a = _number(rng, "a")
    b = _number(rng, "b")
    _require(a is None or b is None or a <= b, "integrate bounds must satisfy a <= b")
    grid, alpha, chart = field_context()
    for key, p in (("a", a), ("b", b)):
        try:
            if p is not None:
                _node_index(grid, p)
        except AlignmentError as exc:
            raise ConfigError(f"integrate {key}: {exc}")
    value = falpha_integral(field(grid, chart), a=a, b=b)
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


def _write_piped_snapshots(grid, chart, source_fd: int, report_fd: int) -> None:
    """The writer child: write each snapshot read from ``source_fd`` until EOF.

    A failure is sent to ``report_fd`` as ``"Type: message"``.  The child
    always leaves by ``os._exit``, so it never returns into the parent's
    stack, runs no exit handlers and flushes none of the parent's buffers.
    """
    code = 1
    try:
        # Ctrl-C ends the parent, which then closes the pipe and waits here
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        write = None
        with os.fdopen(source_fd, "rb") as source:
            while True:
                try:
                    path, values = pickle.load(source)
                except EOFError:
                    break
                # built after the first read: a snapshot can fill the pipe, and the
                # parent's first send would wait while the v,S fields are formatted
                write = write or io.field_writer(grid, chart)
                write(path, values)
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.write(report_fd, f"{type(exc).__name__}: {exc}".encode())
    finally:
        os._exit(code)


@contextlib.contextmanager
def _snapshot_writer(grid, chart):
    """``write(path, values)`` for evolve's snapshot CSVs, run in a forked child.

    Formatting a snapshot costs about as much as stepping to the next one,
    so a child process writes each with one :func:`io.field_writer` on the
    run's grid and chart while the parent steps.  The path and values go
    through a pipe (pickle), whose backpressure bounds what is in flight to
    about one snapshot in the pipe and one in the child.  On leaving, the
    pipe is closed and the child waited for, whatever happened; a failure of
    the child is raised as a :class:`FractalCurveError` naming its
    exception.  Without ``os.fork`` (Windows) the same writer runs in-process.
    """
    if not hasattr(os, "fork"):
        yield io.field_writer(grid, chart)
        return
    source_fd, sink_fd = os.pipe()
    report_r, report_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(sink_fd)
        os.close(report_r)
        _write_piped_snapshots(grid, chart, source_fd, report_w)
    os.close(source_fd)
    os.close(report_w)
    sink = os.fdopen(sink_fd, "wb")

    def write(path, values):
        # a child that has left makes this raise BrokenPipeError, and the
        # report read below replaces it
        pickle.dump((path, values), sink, pickle.HIGHEST_PROTOCOL)
        sink.flush()

    try:
        yield write
    finally:
        with contextlib.suppress(BrokenPipeError):
            sink.close()
        with os.fdopen(report_r, "rb") as fh:
            report = fh.read().decode(errors="replace")
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if report or status:
            raise FractalCurveError(
                f"snapshot writer failed: {report or f'exit status {status}'}")


def _run_evolution(cfg, out_dir: Path, write_snapshots: bool) -> int:
    run_cfg = _section(cfg, "run", required=True)
    d_tau = _number(run_cfg, "d_tau", required=True, positive=True)
    steps = _int(run_cfg, "steps", required=True, minimum=1)
    stride = _int(run_cfg, "snapshot_stride", max(1, steps // 10), minimum=1)
    boundary = _get(run_cfg, "boundary", "dirichlet")
    _require(boundary in ("dirichlet", "periodic"), "boundary must be dirichlet or periodic")
    # H lives on the nodes' own chart values, so the grid fixes the xi points;
    # ignoring the key would run another grid than the config asks for
    _require("xi_points" not in run_cfg,
             "xi_points is no longer a run key: the evolver steps on the curve's nodes")
    field_context = _field_context(cfg)
    constants, check_couplings = _physics(cfg)
    time_set = _time_set(cfg)
    potential_at = _potential(run_cfg, constants)
    kind, initial_at = _initial_state(run_cfg, constants, boundary, potential_at is not None)

    grid, alpha, chart = field_context()
    check_couplings(chart)
    ts = time_set() if time_set else None
    potential = potential_at(grid, chart) if potential_at else None
    psi0, pw_params = initial_at(grid, chart, potential)
    ground = kind == "harmonic_ground"

    # one pass: each snapshot is sent to the writer (evolve only) and folded
    # into the checks, then dropped once it leaves the window that the
    # continuity rows need; of psi0 only its tau and, for the ground state's
    # drift, its modulus are kept
    ev = CrankNicolsonEvolver(psi0, potential, d_tau, boundary=boundary)
    tau0, modulus0 = psi0.tau, (np.abs(psi0.values) if ground else None)
    del psi0
    window = deque(maxlen=3)  # the last three (step, snapshot) pairs
    rows, drifts, phase, done = [], [], 0.0, 0
    writer = _snapshot_writer(grid, chart) if write_snapshots else contextlib.nullcontext()
    with writer as write:
        while True:
            psi = ev.snapshot()
            if write is not None:
                write(out_dir / f"snapshot_{done:06d}.csv", psi.values)
            if pw_params is not None and window:
                phase += _phase_increment(window[-1][1], psi)
            if ground:
                drifts.append(float(np.max(np.abs(np.abs(psi.values) - modulus0))))
            window.append((done, psi))
            if len(window) == 3 and window[1][0] - window[0][0] == done - window[1][0]:
                (_, pa), (_, pb), _ = window
                res = continuity_residual(pa, pb, psi).values
                l2 = math.sqrt(float(falpha_integral(pb.field.with_values(res ** 2))))
                rows.append((pb.tau, float(np.max(res)), l2, total_probability(pb)))
                del res  # its memory is free for the next snapshot
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
        derived["final_wall_time"] = float(ts.t_of(ev.tau))

    if pw_params is not None:
        beta_measured = -phase / (psi.tau - tau0)
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


_COMMANDS = {
    "dimension": cmd_dimension,
    "staircase": cmd_staircase,
    "derive": cmd_derive,
    "integrate": cmd_integrate,
    "evolve": partial(_run_evolution, write_snapshots=True),
    "continuity": partial(_run_evolution, write_snapshots=False),
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
    made = []  # the directories this run creates, deepest first
    try:
        cfg = load_config(args.config)
        out_dir = _output_dir(cfg, override=args.output_dir)
        made = list(itertools.takewhile(lambda p: not p.exists(), (out_dir, *out_dir.parents)))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
        # numpy raises on a float overflow, a division by zero or an invalid
        # operation, so these end the run as numerical failures (ArithmeticError);
        # an output that cannot be written (OSError) ends it the same way
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        # a config fault leaves no directory behind that this run made
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FractalCurveError, ArithmeticError, OSError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        slopes = getattr(exc, "slopes", None)
        if slopes is not None:
            diag["slopes"] = list(map(float, slopes))
        try:
            io.write_json(out_dir / "error.json", diag)
        except Exception:
            pass
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
