import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcurve as fc
from fractalcurve import io

from conftest import KOCH_DIM

SNAPSHOT_HEADER = "v,S,re,im"

# floats whose text form is easy to get wrong: signed zeros, subnormals,
# infinities, NaN and the ends of the float range
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf,
                     math.nan, 1.7e308, -1.7e308, 1.0, -1.0, 0.1, 1e16, 1e-5])


def reference_write_table(path, header, columns):
    """Row by row, one ``format`` per float: the writer's independent oracle."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def reference_snapshot(path, psi):
    reference_write_table(path, SNAPSHOT_HEADER, (psi.grid.params, psi.space_chart.values,
                                                  np.real(psi.values), np.imag(psi.values)))


def _column(rng, rows):
    """Random bit patterns (every class of double) with special values mixed in."""
    col = rng.integers(0, 2 ** 64, size=rows, dtype=np.uint64).view(np.float64)
    pick = rng.random(rows) < 0.3
    col[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    return col


# row counts at the edges of the writer's 1024-row blocks
@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.sampled_from([0, 1, 1023, 1024, 1025, 3000]), ncols=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_table_matches_row_by_row_reference(rows, ncols, seed):
    rng = np.random.default_rng(seed)
    columns = [_column(rng, rows) for _ in range(ncols)]
    header = ",".join(f"c{j}" for j in range(ncols))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        io._write_table(got, header, columns)
        reference_write_table(want, header, columns)
        assert got.read_bytes() == want.read_bytes()


def _random_state(grid, chart, rng):
    values = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(grid.node_count)
    values[:3] = [0.0, -0.0 + 5e-324j, 1e-310 - 0.0j]  # signed zeros and subnormals
    return fc.WaveFunction(fc.FieldOnCurve(grid, values, chart))


def test_snapshot_prefix_cache_follows_grid_and_chart(tmp_path):
    # each file's "v,S" fields are its own grid's and chart's, whatever came before
    rng = np.random.default_rng(7)
    grid, coarse = fc.build_koch(3), fc.build_koch(2)
    koch_chart, unit_chart = fc.build_staircase(grid, KOCH_DIM), fc.build_staircase(grid, 1.0)
    equal_chart = fc.build_staircase(grid, KOCH_DIM)
    assert equal_chart.values is not koch_chart.values
    np.testing.assert_array_equal(equal_chart.values, koch_chart.values)
    states = [_random_state(grid, koch_chart, rng), _random_state(grid, unit_chart, rng),
              _random_state(grid, koch_chart, rng), _random_state(grid, unit_chart, rng),
              _random_state(coarse, fc.build_staircase(coarse, KOCH_DIM), rng),
              _random_state(grid, equal_chart, rng), _random_state(grid, koch_chart, rng)]
    for i, psi in enumerate(states):
        got, want = tmp_path / f"got_{i}.csv", tmp_path / f"want_{i}.csv"
        io.write_snapshot_csv(got, psi)
        reference_snapshot(want, psi)
        assert got.read_bytes() == want.read_bytes(), f"snapshot {i}"


def test_writers_on_different_grids_used_alternately_write_what_write_snapshot_csv_writes(
        tmp_path):
    # each writer holds its own grid's "v,S" fields, whatever the other writes between
    rng = np.random.default_rng(11)
    fine, coarse = fc.build_koch(3), fc.build_koch(2)
    charts = {fine: fc.build_staircase(fine, KOCH_DIM), coarse: fc.build_staircase(coarse, 1.0)}
    writers = {grid: io.field_writer(grid, chart) for grid, chart in charts.items()}
    for i, grid in enumerate([fine, coarse, fine, coarse, coarse, fine]):
        psi = _random_state(grid, charts[grid], rng)
        got, want = tmp_path / f"got_{i}.csv", tmp_path / f"want_{i}.csv"
        writers[grid](got, psi.values)
        io.write_snapshot_csv(want, psi)
        assert got.read_bytes() == want.read_bytes(), f"snapshot {i}"


def test_snapshot_roundtrip_is_bit_exact(tmp_path):
    grid = fc.build_koch(4)
    chart = fc.build_staircase(grid, KOCH_DIM)
    rng = np.random.default_rng(3)
    psi = _random_state(grid, chart, rng)
    psi = psi.with_values(psi.values * 10.0 ** rng.integers(-150, 150, grid.node_count))
    path = tmp_path / "snap.csv"
    io.write_snapshot_csv(path, psi)
    data = io.read_snapshot_csv(path)
    re, im = np.real(psi.values), np.imag(psi.values)
    for name, want in [("v", grid.params), ("S", chart.values), ("re", re), ("im", im)]:
        np.testing.assert_array_equal(data[name].view(np.uint64), want.view(np.uint64),
                                      err_msg=name)


def test_empty_continuity_csv_is_its_header(tmp_path):
    path = tmp_path / "continuity.csv"
    io.write_continuity_csv(path, [])
    assert path.read_bytes() == b"tau,residual_max,residual_l2,total_probability\n"


def test_header_only_csv_reads_as_empty_columns(tmp_path):
    path = tmp_path / "continuity.csv"
    io.write_continuity_csv(path, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cont = io.read_continuity_csv(path)
    assert list(cont) == ["tau", "residual_max", "residual_l2", "total_probability"]
    for col in cont.values():
        assert col.dtype == np.float64 and col.shape == (0,)


def test_csv_with_wrong_column_count_is_rejected(tmp_path):
    path = tmp_path / "continuity.csv"
    path.write_text("tau,residual_max,residual_l2,total_probability\n1,2\n")
    with pytest.raises(ValueError):
        io.read_continuity_csv(path)
