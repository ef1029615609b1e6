import contextlib
import importlib.metadata
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
import weakref
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcurve as fc
from fractalcurve import cli, dynamics, io
from fractalcurve.errors import EstimationFailureError, SolverError

from conftest import KOCH_DIM


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return path


# what a command builds, as cli calls it; a config error comes before all of them
_BUILDERS = ("build_koch", "build_line", "build_cantor_dust", "build_cantor_time",
             "build_staircase", "estimate_gamma_dimension", "CrankNicolsonEvolver")
# keys whose range the chart's span decides, and the integrate bounds, which must
# be nodes of the grid: checked once the chart is built, and still before the evolver
_CHART_RELATIVE = ("k_periods", "k0_periods", "center_frac", "integrate a", "integrate b",
                   "hbar", "mass")


def count_builds(monkeypatch):
    """The list of cli builders called, by name, from now on."""
    calls = []
    for name in _BUILDERS:
        def counted(*args, _name=name, _build=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def assert_built_nothing(calls, err):
    """A config error comes before any build, or before the evolver if it names
    a key that the chart's span or the grid's nodes bound."""
    if any(key in err for key in _CHART_RELATIVE):
        assert "CrankNicolsonEvolver" not in calls
    else:
        assert calls == []


def test_dimension_koch(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch"},
        "dimension": {"levels": [2, 3, 4, 5, 6, 7], "tol": 1e-3},
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["dimension", cfg]) == 0
    report = json.loads((tmp_path / "out" / "dimension.json").read_text())
    assert abs(report["alpha_star"] - KOCH_DIM) < 5e-3
    assert len(report["slopes_per_level"]) == 5
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_sha256"] == cli.config_sha256(json.loads(cfg.read_text()))


def test_dimension_line_and_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "line.json", {
        "curve": {"kind": "line"},
        "dimension": {"levels": [1, 2, 3, 4, 5, 6], "tol": 1e-4},
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["dimension", cfg]) == 0
    report = json.loads((tmp_path / "out" / "dimension.json").read_text())
    assert abs(report["alpha_star"] - 1.0) < 1e-3

    short = write_cfg(tmp_path / "short.json", {
        "curve": {"kind": "koch"},
        "dimension": {"levels": [0]},
        "output": str(tmp_path / "o2"),
    })
    assert run_cli(["dimension", short]) == 2

    # 2^200 segments: beyond the node budget of the finest Koch curve (4^10)
    fine = write_cfg(tmp_path / "fine.json", {
        "curve": {"kind": "line"},
        "dimension": {"levels": [1, 2, 200]},
        "output": str(tmp_path / "o3"),
    })
    capsys.readouterr()
    assert run_cli(["dimension", fine]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "levels" in err
    assert not (tmp_path / "o3" / "error.json").exists()


def test_staircase_space_and_time(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 4},
        "alpha_space": "auto",
        "time_set": {"kind": "cantor", "T": 1.0, "level": 5},
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["staircase", cfg]) == 0
    stair = io.read_staircase_csv(tmp_path / "out" / "staircase.csv")
    assert np.all(np.diff(stair["S"]) >= 0)
    # auto alpha lands near the similarity dimension, so S(1) ~ 1/Gamma(1+dim)
    expect = 1.0 / math.gamma(1.0 + KOCH_DIM)
    assert abs(stair["S"][-1] - expect) < 1e-2

    tstair = io.read_staircase_csv(tmp_path / "out" / "time_staircase.csv")
    dS = np.diff(tstair["S"])
    assert np.all(dS >= 0) and np.any(dS == 0)  # devil's staircase has plateaus
    ts = io.read_timeset_csv(tmp_path / "out" / "timeset.csv")
    assert len(ts["lo"]) == 2 ** 5


def test_derive_and_integrate(tmp_path):
    base = {
        "curve": {"kind": "line", "segments": 128},
        "alpha_space": 1.0,
        "field": {"kind": "staircase"},
        "output": str(tmp_path / "out"),
    }
    cfg = write_cfg(tmp_path / "cfg.json", base)
    assert run_cli(["derive", cfg]) == 0
    data = io.read_field_csv(tmp_path / "out" / "derive.csv")
    np.testing.assert_allclose(data["re"], 1.0, atol=1e-12)
    np.testing.assert_array_equal(data["im"], 0.0)

    base2 = dict(base, field={"kind": "constant", "value": 1.0},
                 integrate={"a": 0.25, "b": 0.75})
    cfg2 = write_cfg(tmp_path / "cfg2.json", base2)
    assert run_cli(["integrate", cfg2]) == 0
    result = json.loads((tmp_path / "out" / "integrate.json").read_text())
    assert result["value_re"] == pytest.approx(0.5, rel=1e-12)


def logged_writers(monkeypatch, log):
    """Make each ``io.field_writer`` log its build and each file it writes to ``log``.

    The writer runs in a forked child, so the log is a file.
    """
    make = io.field_writer

    def logged(grid, chart):
        write = make(grid, chart)

        def logged_write(path, values):
            with open(log, "a") as fh:
                fh.write(Path(path).name + "\n")
            write(path, values)

        with open(log, "a") as fh:
            fh.write("built\n")
        return logged_write

    monkeypatch.setattr(io, "field_writer", logged)


def test_evolve_artifacts_and_roundtrip(tmp_path, monkeypatch):
    # one writer is built, and it writes each snapshot once, in order
    written = tmp_path / "written.txt"
    logged_writers(monkeypatch, written)
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 4},
        "alpha_space": KOCH_DIM,
        "run": {
            "d_tau": 1e-3, "steps": 40, "snapshot_stride": 10, "boundary": "periodic",
            "initial": {"kind": "plane_wave", "k_periods": 1},
            "potential": {"kind": "none"},
        },
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["evolve", cfg]) == 0
    out = tmp_path / "out"
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert [s.name for s in snaps] == [f"snapshot_{i:06d}.csv" for i in (0, 10, 20, 30, 40)]
    assert written.read_text().splitlines() == ["built"] + [s.name for s in snaps]

    phase = json.loads((out / "phase_check.json").read_text())
    assert phase["relative_error"] < 1e-3

    cont = io.read_continuity_csv(out / "continuity.csv")
    assert len(cont["tau"]) == 3
    np.testing.assert_allclose(cont["total_probability"],
                               cont["total_probability"][0], rtol=1e-12)

    # snapshot files round-trip the binary doubles exactly
    data = io.read_snapshot_csv(snaps[0])
    grid = fc.build_koch(4)
    chart = fc.build_staircase(grid, KOCH_DIM)
    psi0 = fc.plane_wave(
        fc.PlaneWaveParams.from_wavenumber(2 * math.pi / chart.total), grid, chart)
    np.testing.assert_array_equal(data["v"], grid.params)
    snap0 = fc.CrankNicolsonEvolver(psi0, None, 1e-3, boundary="periodic").snapshot()
    np.testing.assert_array_equal(data["re"], np.real(snap0.values))
    np.testing.assert_array_equal(data["im"], np.imag(snap0.values))
    # the evolver holds sqrt(w) psi, so the first snapshot is psi0 to 2 ulp;
    # the seam node is the wrap image of the first node under periodic runs
    np.testing.assert_array_max_ulp(data["re"][:-1], np.real(psi0.values)[:-1], 2)
    np.testing.assert_array_max_ulp(data["im"][:-1], np.imag(psi0.values)[:-1], 2)
    assert data["re"][-1] == data["re"][0] and data["im"][-1] == data["im"][0]


@pytest.mark.parametrize("steps,stride", [(50, 25), (55, 10)])
def test_evolve_harmonic_ground_report(tmp_path, steps, stride):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "line", "segments": 511, "end": [16.0, 0.0, 0.0]},
        "alpha_space": 1.0,
        "run": {
            "d_tau": 1e-3, "steps": steps, "snapshot_stride": stride, "boundary": "dirichlet",
            "initial": {"kind": "harmonic_ground"},
            "potential": {"kind": "harmonic", "omega": 1.0},
        },
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["evolve", cfg]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "stationary_report.json").read_text())
    assert report["max_modulus_drift"] < 1e-8
    # a short last stride still yields a snapshot, but no continuity row
    marks = list(range(0, steps, stride)) + [steps]
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == \
        [f"snapshot_{i:06d}.csv" for i in marks]
    cont = io.read_continuity_csv(out / "continuity.csv")
    np.testing.assert_allclose(cont["tau"], 1e-3 * np.arange(stride, steps - stride + 1, stride),
                               rtol=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["derived"]["final_tau"] == pytest.approx(1e-3 * steps, rel=1e-12)


@pytest.mark.parametrize("initial", [{"kind": "plane_wave"}, {"kind": "harmonic_ground"}],
                         ids=["plane_wave", "harmonic_ground"])
def test_evolution_holds_a_three_snapshot_window(tmp_path, monkeypatch, initial):
    # every snapshot leaves memory once it drops out of the window of three
    live = weakref.WeakSet()
    counts = []
    take = fc.CrankNicolsonEvolver.snapshot

    def counted(self):
        psi = take(self)
        live.add(psi)
        counts.append(len(live))
        return psi

    monkeypatch.setattr(fc.CrankNicolsonEvolver, "snapshot", counted)
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 3},
        "alpha_space": KOCH_DIM,
        "run": {"d_tau": 1e-3, "steps": 100, "snapshot_stride": 10,
                "initial": initial, "potential": {"kind": "harmonic", "omega": 5.0}},
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["evolve", cfg]) == 0
    assert len(counts) == 11 and max(counts) <= 4


def test_run_memory_does_not_grow_with_the_step_count(tmp_path):
    # only a few floats per snapshot accumulate (its continuity row and
    # modulus drift, and at the end their CSV text): measured about 400 B
    # per extra snapshot, against 16.4 KB for one snapshot's values at Koch
    # level 5, so keeping even a tenth of the snapshots would break the bound
    def traced_peak(steps):
        cfg = write_cfg(tmp_path / f"cfg{steps}.json", {
            "curve": {"kind": "koch", "level": 5},
            "alpha_space": KOCH_DIM,
            "run": {"d_tau": 1e-4, "steps": steps, "snapshot_stride": 1,
                    "initial": {"kind": "harmonic_ground"},
                    "potential": {"kind": "harmonic", "omega": 60.0}},
            "output": str(tmp_path / f"out{steps}"),
        })
        tracemalloc.start()
        try:
            assert run_cli(["continuity", cfg]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(20)  # loads LAPACK and fills the caches outside the comparison
    short, long = traced_peak(20), traced_peak(200)
    assert long - short <= (200 - 20) * 1024, (short, long)


def test_continuity_subcommand_writes_no_snapshots(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "line", "segments": 255, "end": [16.0, 0.0, 0.0]},
        "alpha_space": 1.0,
        "run": {
            "d_tau": 1e-3, "steps": 30, "snapshot_stride": 10, "boundary": "dirichlet",
            "initial": {"kind": "gaussian", "sigma_frac": 0.0625, "k0_periods": 1},
        },
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["continuity", cfg]) == 0
    out = tmp_path / "out"
    assert not list(out.glob("snapshot_*.csv"))
    cont = io.read_continuity_csv(out / "continuity.csv")
    assert len(cont["tau"]) == 2
    drift = np.abs(cont["total_probability"] - cont["total_probability"][0])
    assert np.max(drift) < 1e-10


def test_one_step_evolve_continuity_csv_reads_empty(tmp_path):
    # fewer than three equally spaced snapshots leave continuity.csv header-only
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 3},
        "run": {"d_tau": 1e-3, "steps": 1, "boundary": "periodic",
                "initial": {"kind": "plane_wave"}},
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["evolve", cfg]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cont = io.read_continuity_csv(tmp_path / "out" / "continuity.csv")
    assert set(cont) == {"tau", "residual_max", "residual_l2", "total_probability"}
    assert all(col.shape == (0,) for col in cont.values())


def test_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 3},
        "alpha_space": "auto",
        "time_set": {"kind": "cantor", "T": 1.0, "level": 4},
        "run": {
            "d_tau": 2e-3, "steps": 20, "snapshot_stride": 5, "boundary": "periodic",
            "initial": {"kind": "gaussian", "k0_periods": 1},
        },
        "output": str(tmp_path / "default_out"),
    })
    for sub in ("evolve", "staircase"):
        a, b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        assert run_cli([sub, cfg, "--output-dir", a]) == 0
        assert run_cli([sub, cfg, "--output-dir", b]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir()) and files_a
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_error_paths(tmp_path):
    missing = tmp_path / "missing.json"
    assert run_cli(["evolve", missing]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli(["evolve", bad]) == 2

    nocurve = write_cfg(tmp_path / "nocurve.json", {
        "run": {"d_tau": 1e-3, "steps": 5, "initial": {"kind": "plane_wave"}},
        "output": str(tmp_path / "o"),
    })
    assert run_cli(["evolve", nocurve]) == 2

    badkind = write_cfg(tmp_path / "badkind.json", {
        "curve": {"kind": "sierpinski", "level": 2},
        "dimension": {"levels": [2, 3, 4]},
        "output": str(tmp_path / "o"),
    })
    assert run_cli(["dimension", badkind]) == 2

    assert run_cli(["unknown-command", nocurve]) == 2


_RUN = {"d_tau": 1e-3, "steps": 5, "initial": {"kind": "plane_wave"}}


# one malformed value per case, named by its key
_FAULTS = {
    "xi_points": {"run": {**_RUN, "xi_points": "x"}},
    # the grid fixes the xi points, so even Koch L3's node count is refused
    # rather than ignored
    "xi_points-node_count": {"run": {**_RUN, "xi_points": 65}},
    "A": {"run": {**_RUN, "initial": {"kind": "plane_wave", "A": "z"}}},
    "sigma_frac": {"run": {**_RUN, "initial": {"kind": "gaussian", "sigma_frac": "a"}}},
    "p0": {"p0": 5.0},
    "T": {"curve": {"kind": "cantor_dust", "level": 3, "T": -1}},
    "alpha_space": {"alpha_space": True},
    "level": {"curve": {"kind": "koch", "level": True}},
    "run": {"run": [1]},
    "physics": {"physics": [1]},
    "start": {"curve": {"kind": "line", "segments": 16, "start": "x"}},
    "kind-unhashable": {"curve": {"kind": ["koch"], "level": 3}},
    "center_frac": {"run": {**_RUN, "initial": {"kind": "gaussian", "center_frac": 1e3}}},
    "output": {"output": 5},
    "k_periods": {"run": {**_RUN, "initial": {"kind": "plane_wave", "k_periods": 1e300}}},
    "k0_periods": {"run": {**_RUN, "initial": {"kind": "gaussian", "k0_periods": 1e308}}},
    # finite, but its square, the peak density, is not
    "A-huge": {"run": {**_RUN, "initial": {"kind": "plane_wave", "A": 1e300}}},
    "steps-str": {"run": {**_RUN, "steps": "10"}},
    "d_tau-str": {"run": {**_RUN, "d_tau": "abc"}},
    "steps-bool": {"run": {**_RUN, "steps": True}},
    "d_tau-inf": {"run": {**_RUN, "d_tau": float("inf")}},
    "omega": {"run": {**_RUN, "potential": {"kind": "harmonic", "omega": "x"}}},
    "level-time_set": {"time_set": {"kind": "cantor", "level": "x"}},
    # beyond the level caps, which bound every grid by the Koch L10 node budget
    "level-koch_11": {"curve": {"kind": "koch", "level": 11}},
    "level-dust_21": {"curve": {"kind": "cantor_dust", "level": 21}},
    # a dust's parameter domain is [0, T]
    "p0-dust": {"curve": {"kind": "cantor_dust", "level": 3, "T": 2}, "p0": 2.5},
    # 0.5 m omega^2 overflows; the peak of V at center_frac lies beyond the float range
    "omega-huge": {"run": {**_RUN, "potential": {"kind": "harmonic", "omega": 1e200}}},
    "center_frac-potential": {"run": {**_RUN, "potential": {"kind": "harmonic",
                                                            "center_frac": 1e300}}},
    "harmonic_ground-periodic": {"run": {**_RUN, "boundary": "periodic",
                                         "initial": {"kind": "harmonic_ground"},
                                         "potential": {"kind": "harmonic"}}},
}


@pytest.mark.parametrize("case", list(_FAULTS))
def test_evolve_config_faults_exit_2(tmp_path, capsys, monkeypatch, case):
    # each fault is reported against its own key (the case name up to any
    # "-") before anything is built or written
    key = case.split("-")[0]
    out = tmp_path / "o" / "nested"
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 3},
        "run": _RUN,
        "output": str(out),
        **_FAULTS[case],
    })
    calls = count_builds(monkeypatch)
    assert run_cli(["evolve", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert_built_nothing(calls, err)
    # neither the output directory nor its parent, both made by the run, is left
    assert not (tmp_path / "o").exists()


_KOCH3 = {"curve": {"kind": "koch", "level": 3}}


@pytest.mark.parametrize("command,cfg,key", [
    ("staircase", {**_KOCH3, "time_set": {"kind": "cantor", "level": "x"}}, "level"),
    ("dimension", {"curve": {"kind": "koch"}, "dimension": {"levels": [8, 9, 10, 11]}},
     "levels"),
    # finite, but 2 pi k_periods over the chart's span is not
    ("derive", {**_KOCH3, "field": {"kind": "sin_staircase", "k_periods": 1e308}},
     "k_periods"),
    ("continuity", {**_KOCH3, "run": {**_RUN, "potential": {"kind": "harmonic",
                                                            "omega": 1e200}}}, "omega"),
    # a curve in R^3 has dimension at most 3 (Gamma(alpha + 1) overflows past ~170)
    ("derive", {**_KOCH3, "alpha_space": 1e300, "field": {"kind": "constant"}},
     "alpha_space"),
    # Koch L3 has its nodes at v = j / 64
    ("integrate", {**_KOCH3, "field": {"kind": "constant"}, "integrate": {"a": 0.3}},
     "integrate a"),
    ("integrate", {**_KOCH3, "field": {"kind": "constant"},
                   "integrate": {"a": 0.75, "b": 0.25}}, "a <= b"),
], ids=["staircase-time_set", "dimension-levels", "derive-k_periods", "continuity-omega",
        "derive-alpha_space", "integrate-a_off_node", "integrate-a_above_b"])
def test_config_faults_exit_2_before_any_build(tmp_path, capsys, monkeypatch, command, cfg,
                                               key):
    out = tmp_path / "o"
    path = write_cfg(tmp_path / "cfg.json", {**cfg, "output": str(out)})
    calls = count_builds(monkeypatch)
    assert run_cli([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert_built_nothing(calls, err)
    assert not out.exists()


_GROUND_RUN = {**_KOCH3, "alpha_space": KOCH_DIM,
               "run": {**_RUN, "initial": {"kind": "harmonic_ground"},
                       "potential": {"kind": "harmonic", "omega": 3.0}}}


@pytest.mark.parametrize("key,value", [("hbar", 1e300), ("mass", 1e-300)])
def test_physics_that_overflows_h_exits_2(tmp_path, capfd, monkeypatch, key, value):
    # hbar^2 overflows; with mass 1e-300, hbar^2 / (2 m) = 5e299 is finite, but
    # H's largest coupling on Koch L3's chart, 2.7e303, has no finite square
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path / "cfg.json",
                    {**_GROUND_RUN, "physics": {key: value}, "output": str(out)})
    calls = count_builds(monkeypatch)
    assert run_cli(["continuity", cfg]) == 2
    err = capfd.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert_built_nothing(calls, err)
    assert not out.exists()


def test_non_finite_ground_state_exits_1(tmp_path, capfd, monkeypatch):
    # a NaN vector from the certified path's solve falls back to the
    # Gershgorin bisection, whose dstein returns a NaN vector with info 0
    # where its scaling overflows (H's norm near 1e152); both faked here,
    # since the configs known to overflow dstein are certified without it,
    # and so that the test does not depend on one LAPACK build
    lapack = dynamics._lapack()
    called = []

    class NaNVectors:
        def __getattr__(self, name):
            return getattr(lapack, name)

        def dpttrs(self, *args, **kwargs):
            called.append("dpttrs")
            x, info = lapack.dpttrs(*args, **kwargs)
            return np.full_like(x, np.nan), info

        def dstein(self, *args):
            called.append("dstein")
            vecs, info = lapack.dstein(*args)
            return np.full_like(vecs, np.nan), info

    monkeypatch.setattr(dynamics, "_lapack", NaNVectors)
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path / "cfg.json", {**_GROUND_RUN, "output": str(out)})
    assert run_cli(["continuity", cfg]) == 1
    assert called == ["dpttrs"] * dynamics._START_SOLVES + ["dstein"]
    assert json.loads((out / "error.json").read_text())["error"] == "SolverError"
    assert "Traceback" not in capfd.readouterr().err


def test_config_fault_keeps_an_existing_output_directory(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    cfg = write_cfg(tmp_path / "cfg.json", {**_KOCH3, "run": [1], "output": str(out)})
    assert run_cli(["evolve", cfg]) == 2
    assert out.is_dir() and list(out.iterdir()) == []
    # an output path that names a file is a config fault, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run_cli(["evolve", cfg, "--output-dir", blocker / "o"]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == "x"


def test_dust_p0_lies_in_zero_to_T(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "cantor_dust", "level": 3, "T": 2},
        "p0": 1.5,
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["staircase", cfg]) == 0
    stair = io.read_staircase_csv(tmp_path / "out" / "staircase.csv")
    assert stair["S"][0] < 0 < stair["S"][-1]


def run_python(script):
    """stdout of ``script`` run in a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_commands_without_time_stepping_do_not_load_scipy_linalg(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch"},
        "dimension": {"levels": [2, 3, 4]},
        "output": str(tmp_path / "out"),
    })
    script = ("import sys\n"
              "import fractalcurve.cli as cli\n"
              f"assert cli.main(['dimension', {str(cfg)!r}]) == 0\n"
              "print('scipy.linalg' in sys.modules)\n")
    assert run_python(script) == "False"


def test_solving_commands_do_not_load_scipy_linalg(tmp_path):
    # the solves load only scipy's LAPACK extension, and a later import of
    # scipy.linalg in the same process takes that module over and still works
    evolve = write_cfg(tmp_path / "evolve.json", {
        **_KOCH3, "run": {**_RUN, "boundary": "periodic"}, "output": str(tmp_path / "e")})
    continuity = write_cfg(tmp_path / "continuity.json", {
        **_KOCH3, "run": {"d_tau": 1e-3, "steps": 4, "snapshot_stride": 2,
                          "initial": {"kind": "harmonic_ground"},
                          "potential": {"kind": "harmonic"}},
        "output": str(tmp_path / "c")})
    script = ("import sys\n"
              "import numpy as np\n"
              "import fractalcurve.cli as cli\n"
              f"assert cli.main(['evolve', {str(evolve)!r}]) == 0\n"
              f"assert cli.main(['continuity', {str(continuity)!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
              "import scipy.linalg\n"
              "from fractalcurve.dynamics import _lapack\n"
              "band = np.full(7, -1.0 + 0.5j)\n"
              "for lapack in (scipy.linalg.lapack, _lapack()):\n"
              "    *_, info = lapack.zgttrf(band, np.full(8, 4.0 + 0j), band)\n"
              "    print(info)\n"
              "w = scipy.linalg.eigh_tridiagonal(np.full(8, 2.0), np.full(7, -1.0),\n"
              "                                  eigvals_only=True, select='i',\n"
              "                                  select_range=(0, 0))\n"
              "print(abs(w[0] - 2.0 + 2.0 * np.cos(np.pi / 9.0)) < 1e-14)\n")
    assert run_python(script).splitlines() == [
        "['scipy.linalg._flapack']", "0", "0", "True"]


def test_missing_lapack_extension_is_a_numerical_failure(tmp_path, no_flapack):
    cfg = write_cfg(tmp_path / "cfg.json", {**_KOCH3, "run": _RUN, "output": str(tmp_path / "o")})
    assert run_cli(["evolve", cfg]) == 1
    diag = json.loads((tmp_path / "o" / "error.json").read_text())
    assert diag["error"] == "SolverError"
    assert f"scipy {importlib.metadata.version('scipy')} " in diag["message"]


@pytest.mark.parametrize("run", [
    {"boundary": "periodic", "initial": {"kind": "plane_wave"}},
    {"initial": {"kind": "harmonic_ground"}, "potential": {"kind": "harmonic"}},
], ids=["periodic-plane_wave", "dirichlet-harmonic_ground"])
def test_two_point_periodic_grid_is_a_numerical_failure(tmp_path, run):
    # a 2-segment line leaves fewer than the 3 unknowns that the discrete H
    # needs (2 periodic xi points, 1 interior node), on either boundary, for
    # the evolver and the ground state alike
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "line", "segments": 2},
        "run": {"d_tau": 1e-3, "steps": 5, **run},
        "output": str(tmp_path / "o"),
    })
    assert run_cli(["evolve", cfg]) == 1
    diag = json.loads((tmp_path / "o" / "error.json").read_text())
    assert diag["error"] == "SolverError"


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise EstimationFailureError("no dichotomy", alpha=1.0, slopes=[0.1, -0.2])

    monkeypatch.setattr(cli, "estimate_gamma_dimension", boom)
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch"},
        "dimension": {"levels": [2, 3, 4]},
        "output": str(tmp_path / "out"),
    })
    assert run_cli(["dimension", cfg]) == 1
    diag = json.loads((tmp_path / "out" / "error.json").read_text())
    assert diag["error"] == "EstimationFailureError"
    assert diag["slopes"] == [0.1, -0.2]


@pytest.mark.parametrize("command,cfg", [
    ("dimension", {"curve": {"kind": "line", "end": [1e-110, 0, 0]},
                   "dimension": {"levels": [1, 2, 3, 4]}}),
    ("staircase", {"curve": {"kind": "line", "segments": 8, "end": [1e-110, 0, 0]},
                   "alpha_space": "auto"}),
], ids=["dimension", "staircase-auto-alpha"])
def test_underflowing_premeasure_exits_1_without_traceback(tmp_path, capfd, command, cfg):
    # chords of 1e-110 / 2^L: the pre-measure at alpha = 3 is below the
    # smallest float, and its log does not exist
    out = tmp_path / "out"
    assert run_cli([command, write_cfg(tmp_path / "cfg.json", {**cfg, "output": str(out)})]) == 1
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] == "EstimationFailureError" and "alpha=3.0" in diag["message"]
    assert "Traceback" not in capfd.readouterr().err


# an evolve run with five snapshots, the first at step 0
_SNAPSHOT_RUN = {**_KOCH3, "alpha_space": KOCH_DIM,
                 "run": {"d_tau": 1e-3, "steps": 20, "snapshot_stride": 5,
                         "boundary": "periodic", "initial": {"kind": "gaussian"}}}


def assert_no_child_process():
    # every child this process started has been waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command,blocked,fork", [
    ("evolve", "snapshot_000000.csv", True),
    ("evolve", "snapshot_000000.csv", False),
    ("continuity", "continuity.csv", True),
], ids=["evolve-forked", "evolve-in-process", "continuity"])
def test_unwritable_output_exits_1_without_traceback(tmp_path, capfd, monkeypatch,
                                                     command, blocked, fork):
    # an output file that is a directory cannot be written, in the forked
    # writer or in this process
    if not fork:
        monkeypatch.delattr(os, "fork")
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_cfg(tmp_path / "cfg.json", {**_SNAPSHOT_RUN, "output": str(out)})
    assert run_cli([command, cfg]) == 1
    diag = json.loads((out / "error.json").read_text())
    assert "IsADirectoryError" in f"{diag['error']}: {diag['message']}"
    assert blocked in diag["message"]
    assert "Traceback" not in capfd.readouterr().err
    assert not (out / "manifest.json").exists()
    assert_no_child_process()


@pytest.mark.parametrize("outcome", ["success", "config_fault", "writer_failure",
                                     "solver_failure"])
def test_no_writer_process_outlives_the_cli(tmp_path, monkeypatch, outcome):
    out = tmp_path / "out"
    run = dict(_SNAPSHOT_RUN["run"])
    if outcome == "config_fault":
        run["d_tau"] = "x"
    elif outcome == "writer_failure":
        (out / "snapshot_000010.csv").mkdir(parents=True)
    elif outcome == "solver_failure":
        def failing_step(self, n=1):  # first called after the first snapshot
            raise SolverError("step failed")

        monkeypatch.setattr(fc.CrankNicolsonEvolver, "step", failing_step)
    cfg = write_cfg(tmp_path / "cfg.json", {**_SNAPSHOT_RUN, "run": run, "output": str(out)})
    code = run_cli(["evolve", cfg])
    assert code == {"success": 0, "config_fault": 2}.get(outcome, 1)
    if code == 1:
        diag = json.loads((out / "error.json").read_text())
        assert diag["error"] == ("SolverError" if outcome == "solver_failure"
                                 else "FractalCurveError")
        # the writer finished what it was sent before the parent went on
        snap = io.read_snapshot_csv(out / "snapshot_000000.csv")
        assert len(snap["re"]) == fc.build_koch(3).node_count
    assert_no_child_process()


def test_in_process_writes_match_forked_writes(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json", {**_SNAPSHOT_RUN, "output": str(tmp_path / "x")})
    forked, in_process = tmp_path / "forked", tmp_path / "in_process"
    assert run_cli(["evolve", cfg, "--output-dir", forked]) == 0

    # without os.fork the same writer writes each snapshot in this process
    monkeypatch.delattr(os, "fork")
    written = tmp_path / "written.txt"
    logged_writers(monkeypatch, written)
    assert run_cli(["evolve", cfg, "--output-dir", in_process]) == 0
    assert written.read_text().splitlines() == ["built"] + [
        f"snapshot_{i:06d}.csv" for i in range(0, 21, 5)]
    names = sorted(p.name for p in forked.iterdir())
    assert names == sorted(p.name for p in in_process.iterdir())
    for name in names:
        assert (forked / name).read_bytes() == (in_process / name).read_bytes()


def test_evolve_forks_its_writer_while_no_stepping_thread_is_alive(tmp_path, monkeypatch):
    # a split evolver's second thread lives inside one step(n) call only, so
    # the snapshot writer is forked, and every step call returns, with this
    # thread alone
    monkeypatch.setattr(dynamics, "_N_SPLIT", 16)
    at_fork, after_steps = [], []
    fork = os.fork

    def counted_fork():
        at_fork.append(threading.active_count())
        return fork()

    step = dynamics.CrankNicolsonEvolver.step

    def counted_step(self, n=1):
        assert len(self._blocks) == 2
        step(self, n)
        after_steps.append(threading.active_count())
        return self

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(dynamics.CrankNicolsonEvolver, "step", counted_step)
    cfg = write_cfg(tmp_path / "cfg.json", {**_SNAPSHOT_RUN, "output": str(tmp_path / "out")})
    assert run_cli(["evolve", cfg]) == 0
    assert at_fork == [1]
    assert after_steps == [1] * 4
    assert_no_child_process()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_split_continuity_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    # Koch L8 has 65535 Dirichlet unknowns, stepped as two blocks on two
    # threads; pinned to one CPU the threads take turns, and the block
    # count, hence every output byte, stays the same
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "koch", "level": 8}, "alpha_space": KOCH_DIM,
        "run": {"d_tau": 1e-4, "steps": 20, "snapshot_stride": 5, "boundary": "dirichlet",
                "initial": {"kind": "harmonic_ground"},
                "potential": {"kind": "harmonic", "omega": 90.0, "center_frac": 0.5}}})
    outputs = {}
    for pinned in (True, False):
        out = tmp_path / ("pinned" if pinned else "free")
        pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if pinned else ""
        cpus = run_python(f"import os\n{pin}from fractalcurve.cli import main\n"
                          f"assert main(['continuity', {str(cfg)!r}, '--output-dir', "
                          f"{str(out)!r}]) == 0\nprint(len(os.sched_getaffinity(0)))")
        assert not pinned or cpus == "1"
        outputs[pinned] = {p.name: p.read_bytes() for p in out.iterdir()}
    # the xi points are the 65537 nodes, the Dirichlet ends among them
    assert json.loads(outputs[True]["manifest.json"])["derived"]["xi_points"] - 2 \
        >= dynamics._N_SPLIT
    assert outputs[True] == outputs[False]


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    cfg = write_cfg(tmp_path / "cfg.json", {
        "curve": {"kind": "line", "segments": 16},
        "alpha_space": 1.0,
        "field": {"kind": "constant", "value": 2.0},
        "output": "nested/out",
    })
    assert run_cli(["integrate", cfg]) == 0
    assert (tmp_path / "root" / "nested" / "out" / "integrate.json").exists()


# JSON values that a malformed config may hold where a number or a name is expected
_JUNK = st.one_of(
    st.sampled_from([1e300, -1e300, 1.7e308, 10 ** 30, -(10 ** 30), 0, 0.0, -1, -0.5,
                     "nan", "NaN", "inf", "-Infinity", "1e999", "", "x",
                     True, False, None, [], [1.0], {}, "periodic", "gaussian"]),
    st.integers(-1000, 1000),
    st.floats(),
)
# (section, key) pairs a fuzzed config may spoil; `steps` and the curve `level`
# are left alone, since a huge value there asks for a huge but valid run
_SPOIL = [("run", "d_tau"), ("run", "snapshot_stride"), ("run", "xi_points"),
          ("run", "boundary"), ("initial", "kind"), ("initial", "k_periods"),
          ("initial", "A"), ("initial", "center_frac"), ("initial", "sigma_frac"),
          ("initial", "k0_periods"), ("potential", "omega"), ("physics", "hbar"),
          ("physics", "mass")]


@st.composite
def _fuzzed_run(draw):
    run = {
        "d_tau": draw(st.sampled_from([1e-4, 1e-3, 2e-2])),
        "steps": draw(st.integers(1, 4)),
        "snapshot_stride": draw(st.integers(1, 4)),
        "boundary": draw(st.sampled_from(["dirichlet", "periodic"])),
        "initial": {"kind": draw(st.sampled_from(["plane_wave", "gaussian",
                                                  "harmonic_ground"]))},
        "potential": {"kind": "harmonic", "omega": 3.0},
    }
    sections = {"run": run, "initial": run["initial"], "potential": run["potential"],
                "physics": {}}
    for section, key in draw(st.lists(st.sampled_from(_SPOIL), min_size=1, max_size=3,
                                      unique=True)):
        sections[section][key] = draw(_JUNK)
    cfg = {"curve": {"kind": "koch", "level": draw(st.integers(1, 3))},
           "alpha_space": KOCH_DIM, "run": run, "physics": sections["physics"]}
    return draw(st.sampled_from(["evolve", "continuity"])), cfg


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_fuzzed_run())
def test_cli_fuzzed_evolution_configs_never_crash(case):
    # any exception escaping cli.main fails the example, RuntimeWarnings included;
    # a config error comes before any build
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp) / "out"
        path = write_cfg(Path(tmp) / "cfg.json", {**cfg, "output": str(out)})
        calls = count_builds(mp)
        err = StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli([command, path])
        assert code in (0, 1, 2)
        assert (code == 1) == (out / "error.json").exists()
        if code == 2:
            assert_built_nothing(calls, err.getvalue())
            assert not out.exists()
