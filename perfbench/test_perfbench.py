"""Tests of the benchmark itself, on every workload at smoke size.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    return bench.run(request.param, seed=7, seconds=0, trace=True, smoke=True)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result, _ = bench.run(name, seed=7, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced_run):
    result, _ = traced_run
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_self_times_sum_to_traced_wall_minus_unattributed(traced_run):
    _, report = traced_run
    traced = [p for p in report["passes"] if p["trace"]]
    assert traced
    for p in traced:
        m = tracing.layer_metrics(p["record"], p["wall_s"])
        self_total = sum(v for k, v in m.items() if _is_seconds(k))
        unattributed = m["trace.unattributed_frac"] * p["wall_s"]
        assert self_total == pytest.approx(p["wall_s"] - unattributed, rel=1e-9, abs=1e-9)
        assert all(m[k] >= 0 for k in m if _is_seconds(k))
        assert 0 < m["package.import_s"] < p["wall_s"]


def _is_seconds(name):
    return tracing.PER_LAYER_UNITS[name] == "s"


BROKEN = {
    # a config the CLI rejects with exit 2 after about half a second
    "evolve-l6": lambda cfg: cfg["run"].pop("d_tau"),
    # a kernel step the library rejects with an exception
    "kernel-dim": lambda p: p.update(eps=-1.0),
    # a run that exits 0 but fails a check: Cantor dust has dimension log2/log3
    "continuity-l9": lambda cfg: cfg["curve"].update(kind="cantor_dust"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_input_counts_as_failed(name):
    result, report = bench.run(name, seed=7, seconds=0, trace=False, smoke=True,
                               corrupt=BROKEN[name])
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"] and report["failures"]
