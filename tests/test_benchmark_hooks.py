"""The package surface that the benchmark in ``perfbench/`` relies on.

The benchmark wraps package functions by name and runs a library body
against the package, so renaming or deleting one of them breaks its
traced passes.  These tests read the benchmark's own tables and run its
library body at smoke size, so such a change fails here instead.  They
only import from ``perfbench/``; nothing there is modified.
"""

import importlib
import random
from pathlib import Path

import pytest

import fractalcurve as fc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """Import ``perfbench`` modules by name, as its own scripts do."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:  # a method is rebound on its class, from the class __dict__
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def test_every_traced_and_probed_attribute_resolves(bench):
    tracing, passrun = bench("tracing"), bench("passrun")
    hooks = ([(m, a) for m, a, _, _ in tracing.SPANS] + [(m, a) for m, a, _ in tracing.COUNTS]
             + list(passrun.PROBES.values()))
    assert len(hooks) > 20
    for module, attr in hooks:
        assert callable(_resolve(module, attr)), (module, attr)


def test_evolver_exposes_what_the_step_and_snapshot_counts_read(bench):
    tracing = bench("tracing")
    grid = fc.build_koch(3)
    chart = fc.build_staircase(grid, 1.0)
    psi = fc.gaussian_packet(grid, chart, center=0.5 * chart.total, sigma=0.1 * chart.total)
    ev = fc.CrankNicolsonEvolver(psi, None, d_tau=1e-4)
    for module, attr, _, work in tracing.SPANS:
        if attr in ("CrankNicolsonEvolver.step", "CrankNicolsonEvolver.snapshot"):
            counts = work(ev)
            assert counts and all(v > 0 for v in counts.values()), attr


def test_library_workload_runs_and_passes_its_checks(bench):
    libruns, workloads = bench("libruns"), bench("workloads")
    inputs = workloads._kernel_inputs(random.Random(7), smoke=True)
    result = libruns.run_kernel(inputs)
    failures, _ = workloads.check_kernel(inputs, result)
    assert failures == []
