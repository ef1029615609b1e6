"""One measured pass of a workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/passrun.py MODE PROBE INPUTS OUT_DIR RECORD TRACE

MODE is ``cli:<subcommand>`` (INPUTS is the config) or ``lib:<name>``
(a body in ``libruns.py`` that reads INPUTS).  The pass imports the
package from ``src/`` (recorded as the ``package.import`` span when TRACE
is 1), installs the first-entry probe on PROBE (``step`` or
``kernel_moments``, the workload's first time-stepping call) and, with
TRACE 1, the span wrappers; runs the workload; then writes the probe
time, spans, counts and library results to RECORD as JSON.  The exit
code is the CLI's, 0 for a library body, or 1 on an uncaught exception.

Only ``tracing`` is imported before the package, so the import span
holds what a user of the package pays.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

PROBES = {
    "step": ("fractalcurve.dynamics", "CrankNicolsonEvolver.step"),
    "kernel_moments": ("fractalcurve.dynamics", "kernel_moments"),
}


def main(argv: list[str]) -> int:
    mode, probe, inputs_path, out_dir, record_path, trace = argv
    kind, name = mode.split(":")
    tracer = tracing.Tracer() if trace == "1" else None

    t0 = tracing.now()
    import fractalcurve  # noqa: F401
    if kind == "cli":
        import fractalcurve.cli
    if tracer is not None:
        tracer.add_top_span(tracing.IMPORT_SPAN, t0, tracing.now())
        tracing.install(tracer)
    marks: dict[str, float] = {}
    tracing.rebind(*PROBES[probe], lambda fn: tracing.first_entry_probe(fn, marks, "first_step"))

    import json

    result = None
    if kind == "cli":
        code = fractalcurve.cli.main([name, inputs_path, "--output-dir", out_dir])
    else:
        import libruns
        result = getattr(libruns, name)(json.loads(Path(inputs_path).read_text()))
        code = 0

    record = {"marks": marks, "result": result}
    if tracer is not None:
        record.update(tracer.record())
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
