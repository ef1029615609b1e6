"""Spans and counts recorded around the public functions the pipeline calls.

Nothing under ``src/`` knows about tracing: the wrappers are installed
from outside by rebinding every attribute of a ``fractalcurve`` module
(or class) that refers to a wrapped function.  Spans and counts stay in
memory in a :class:`Tracer` and are returned as plain data when the pass
ends; the parent process turns them into per-layer metrics with
:func:`layer_metrics`.

This module imports nothing heavy, so a pass can time the package import
itself.
"""

from __future__ import annotations

import functools
import sys
import time


def now() -> float:
    """Seconds on CLOCK_MONOTONIC.

    The clock is system-wide, so the parent's spawn timestamp and the
    timestamps taken inside a pass lie on one time axis.
    """
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span and count recorder for one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def add_top_span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, None])

    def wrap(self, name: str, fn, work=None):
        """``fn`` recorded as a span ``name``; ``work(*args)`` adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add(name)
            if work is not None:
                for key, amount in work(*args, **kwargs).items():
                    self.add(key, amount)
            record = [name, None, None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        """``fn`` counted under ``name`` without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def first_entry_probe(fn, marks: dict, key: str):
    """``fn`` that stores the time of its first call in ``marks[key]``."""

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        if key not in marks:
            marks[key] = now()
        return fn(*args, **kwargs)

    return probed


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fractalcurve" or name.startswith("fractalcurve."))]


def rebind(module: str, attr: str, make):
    """Replace ``module.attr`` by ``make(original)`` everywhere the package refers to it.

    ``attr`` may be ``"Class.method"``; a method is replaced on its class,
    which every caller reaches through attribute lookup.
    """
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    original = getattr(owner, attr)
    replacement = make(original)
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


# --- what each wrapper counts -------------------------------------------------

def _evolver_bytes(ev) -> int:
    """Computed per-step working set: the evolver's per-node arrays and factors."""
    n = len(ev.xi) - 2
    total = 0
    for value in vars(ev).values():
        if hasattr(value, "nbytes") and getattr(value, "size", 0) >= n:
            total += value.nbytes
        elif hasattr(value, "L") and hasattr(value, "U"):  # sparse LU factor
            for mat in (value.L, value.U):
                total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
            total += value.perm_c.nbytes + value.perm_r.nbytes
    return total


def _step_work(ev, n=1):
    return {"dynamics.cn_steps": n,
            "dynamics.cn_node_steps": n * len(ev.xi),
            "dynamics.cn_step_bytes": n * _evolver_bytes(ev)}


def _snapshot_work(ev):
    return {"dynamics.snapshot_nodes": ev.template.grid.node_count}


def _continuity_work(psi_prev, psi_mid, psi_next):
    return {"flow.continuity_nodes": psi_mid.grid.node_count}


def _snapshot_write_work(path, psi):
    return {"io.floats_written": 5 * psi.grid.node_count}


# (module, attribute, span name, work); the span's self time is reported as
# the per-layer metric "<span name>_s".
SPANS = [
    ("fractalcurve.cli", "main", "cli.self", None),
    ("fractalcurve.curves", "build_koch", "curves.build", None),
    ("fractalcurve.curves", "build_line", "curves.build", None),
    ("fractalcurve.curves", "build_cantor_dust", "curves.build", None),
    ("fractalcurve.curves", "build_cantor_time", "curves.build", None),
    ("fractalcurve.measure", "build_staircase", "measure.staircase", None),
    ("fractalcurve.measure", "estimate_gamma_dimension", "measure.dimension", None),
    ("fractalcurve.dynamics", "stationary_ground_state", "dynamics.ground_state", None),
    ("fractalcurve.dynamics", "CrankNicolsonEvolver.__init__", "dynamics.cn_setup", None),
    ("fractalcurve.dynamics", "CrankNicolsonEvolver.step", "dynamics.cn_step", _step_work),
    ("fractalcurve.dynamics", "CrankNicolsonEvolver.snapshot", "dynamics.snapshot",
     _snapshot_work),
    ("fractalcurve.dynamics", "kernel_moments", "dynamics.kernel_moments", None),
    ("fractalcurve.dynamics", "kernel_step", "dynamics.kernel_step", None),
    ("fractalcurve.flow", "continuity_residual", "flow.continuity", _continuity_work),
    ("fractalcurve.flow", "total_probability", "flow.total_probability", None),
    ("fractalcurve.calculus", "falpha_derivative", "calculus.derivative", None),
    ("fractalcurve.calculus", "falpha_integral", "calculus.integral", None),
    ("fractalcurve.calculus", "FieldOnCurve.__post_init__", "calculus.field_check", None),
    ("fractalcurve.io", "write_snapshot_csv", "io.snapshot_write", _snapshot_write_work),
    ("fractalcurve.io", "write_json", "io.other_write", None),
    ("fractalcurve.io", "write_continuity_csv", "io.other_write", None),
]
COUNTS = [("fractalcurve.measure", "gamma_premeasure", "measure.premeasure")]
IMPORT_SPAN = "package.import"


def install(tracer: Tracer) -> None:
    """Wrap every loaded function of :data:`SPANS` and :data:`COUNTS`."""
    for module, attr, name, work in SPANS:
        if module in sys.modules:
            rebind(module, attr, lambda fn, name=name, work=work: tracer.wrap(name, fn, work))
    for module, attr, name in COUNTS:
        if module in sys.modules:
            rebind(module, attr, lambda fn, name=name: tracer.count(name, fn))


# --- per-layer metrics ----------------------------------------------------------

TIME_METRICS = sorted({IMPORT_SPAN} | {name for _, _, name, _ in SPANS})

# name -> unit, in report order
PER_LAYER_UNITS = {f"{name}_s": "s" for name in TIME_METRICS}
PER_LAYER_UNITS.update({
    "curves.builds": "count",
    "measure.premeasure_calls": "count",
    "dynamics.cn_steps": "count",
    "dynamics.cn_step_ns_per_node": "ns/node",
    "dynamics.cn_step_bytes_per_node": "B/node",
    "dynamics.snapshot_us_per_node": "us/node",
    "dynamics.kernel_moments_calls": "count",
    "dynamics.dispersion_r": "1",
    "dynamics.norm_drift": "1",
    "flow.continuity_us_per_node": "us/node",
    "calculus.field_checks": "count",
    "io.snapshot_us_per_float": "us/float",
    "io.floats_written": "count",
    "io.bytes_written": "B",
    "trace.unattributed_frac": "1",
    "trace.overhead_frac": "1",
})


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(record: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose spawn-to-exit time is ``wall_s``.

    Every span's self time goes to exactly one ``*_s`` metric, so those
    metrics sum to ``wall_s`` minus the unattributed remainder.
    """
    spans, counts = record["spans"], record["counts"]
    c = lambda key: counts.get(key, 0)  # noqa: E731
    out = {f"{name}_s": 0.0 for name in TIME_METRICS}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        out[f"{name}_s"] += own
    covered = sum(end - start for _, start, end, parent in spans if parent is None)
    out.update({
        "curves.builds": c("curves.build"),
        "measure.premeasure_calls": c("measure.premeasure"),
        "dynamics.cn_steps": c("dynamics.cn_steps"),
        "dynamics.cn_step_ns_per_node": _ratio(out["dynamics.cn_step_s"],
                                               c("dynamics.cn_node_steps"), 1e9),
        "dynamics.cn_step_bytes_per_node": _ratio(c("dynamics.cn_step_bytes"),
                                                  c("dynamics.cn_node_steps")),
        "dynamics.snapshot_us_per_node": _ratio(out["dynamics.snapshot_s"],
                                                c("dynamics.snapshot_nodes"), 1e6),
        "dynamics.kernel_moments_calls": c("dynamics.kernel_moments"),
        "flow.continuity_us_per_node": _ratio(out["flow.continuity_s"],
                                              c("flow.continuity_nodes"), 1e6),
        "calculus.field_checks": c("calculus.field_check"),
        "io.snapshot_us_per_float": _ratio(out["io.snapshot_write_s"],
                                           c("io.floats_written"), 1e6),
        "io.floats_written": c("io.floats_written"),
        "trace.unattributed_frac": (wall_s - covered) / wall_s,
    })
    return out
