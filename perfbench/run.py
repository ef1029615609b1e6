"""Benchmark of the fractalcurve pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Writes the seeded inputs of workload NAME, then runs measured passes,
one at a time, each in a fresh interpreter (``passrun.py``), until S
seconds are used (at least three passes).  Every pass is checked; a
non-zero exit, an exception or a failed check counts it as failed, and
failed passes are left out of the timings.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics (medians over passes): ``wall_s`` from spawn to exit,
``setup_s`` from spawn to the first time-stepping call, and
``peak_rss_mb`` of the pass process.  With ``--trace 1`` traced and
untraced passes alternate; the last line reports the per-layer metrics
(medians over traced passes) and the tracing overhead.  The line before
it is a report with the environment, sample counts and check failures;
the same report, with every span, is written under ``.perfbench_out/``.

``--smoke`` runs every workload at a tiny size, for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
MIN_PASSES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# --- environment ------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str | None:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _llc() -> str | None:
    """Size of the highest cache level of cpu0, from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        size = _read(str(index / "size")).strip()
        if level.isdigit() and size and (best is None or int(level) > best[0]):
            best = (int(level), size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = _read(str(git / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(str(git / ref)).strip()
    if sha:
        return sha
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def blas_threads(nproc: int) -> int:
    """Requested BLAS threads (OPENBLAS/OMP env, default nproc), capped at nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), nproc)
    return nproc


def environment(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "blas_threads": blas_threads(nproc),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# --- one pass -----------------------------------------------------------------

def _tree_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workload, inputs_path: Path, pass_dir: Path, trace: bool, env: dict) -> dict:
    """Spawn one pass and return its timings, record and exit code."""
    out_dir = pass_dir / "out"
    out_dir.mkdir(parents=True)
    record_path = pass_dir / "record.json"
    mode = f"cli:{workload.cli_command}" if workload.cli_command else f"lib:{workload.run}"
    cmd = [sys.executable, str(HERE / "passrun.py"), mode, workload.probe, str(inputs_path),
           str(out_dir), str(record_path), "1" if trace else "0"]
    with open(pass_dir / "stdout.txt", "wb") as out, open(pass_dir / "stderr.txt", "wb") as err:
        t0 = tracing.now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=pass_dir)
        try:
            # wait4 gives the rusage, hence the peak RSS, of this one child
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = tracing.now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else None
    return {"trace": trace, "t0": t0, "wall_s": t1 - t0, "exit": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "record": record,
            "out_dir": out_dir, "stderr": pass_dir / "stderr.txt"}


def check_pass(workload, inputs: dict, p: dict, reference_digest: str | None) -> list[str]:
    """Failures of one pass; fills ``p["info"]`` and ``p["digest"]``."""
    p["info"] = {}
    if p["exit"] != 0:
        tail = p["stderr"].read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {p['exit']}: {' '.join(tail)}"]
    record = p["record"]
    if record is None or "first_step" not in record["marks"]:
        return ["pass never reached its first time-stepping call"]
    try:
        if workload.cli_command:
            failures, p["info"] = workload.check(inputs, p["out_dir"])
            p["digest"] = _tree_digest(p["out_dir"])
            if reference_digest is not None and p["digest"] != reference_digest:
                failures.append("outputs differ from the first pass with the same seed")
        else:
            failures, p["info"] = workload.check(inputs, record["result"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return failures


# --- a run --------------------------------------------------------------------

def pass_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        corrupt=None) -> tuple[dict, dict]:
    """Run one benchmark run; return (result line, report).

    ``corrupt``, if given, edits the generated inputs before they are
    written, to check that broken inputs are counted as failures.
    """
    workload = WORKLOADS[workload_name]
    env_record = environment(seed)
    inputs = workload.make_inputs(random.Random(seed), smoke)
    if corrupt is not None:
        corrupt(inputs)
    run_dir = OUT_ROOT / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs_path = run_dir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=2, sort_keys=True))
    env = pass_env(env_record["blas_threads"])

    passes, failures = [], []
    reference = None
    start = tracing.now()
    while True:
        traced = trace and len(passes) % 2 == 0
        p = run_pass(workload, inputs_path, run_dir / f"pass{len(passes):03d}", traced, env)
        errs = check_pass(workload, inputs, p, reference)
        p["bytes_written"] = sum(f.stat().st_size for f in p["out_dir"].rglob("*") if f.is_file())
        if reference is None and not errs:
            reference = p.get("digest")
        p["ok"] = not errs
        failures += [f"pass {len(passes)}: {e}" for e in errs]
        shutil.rmtree(p["out_dir"], ignore_errors=True)
        passes.append(p)
        elapsed = tracing.now() - start
        typical = statistics.median(q["wall_s"] for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break

    good = [p for p in passes if p["ok"]]
    untraced = [p for p in good if not p["trace"]]
    traced = [p for p in good if p["trace"]]
    metrics = None
    if untraced and (traced or not trace):
        values, units = (per_layer(traced, untraced) if trace
                         else (end_to_end(untraced), END_TO_END_UNITS))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": len(passes),
              "failed": len(passes) - len(good), "metrics": metrics}
    report = {
        "workload": workload_name,
        "environment": env_record,
        "trace": trace,
        "smoke": smoke,
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "failures": failures,
        "passes": [{key: p.get(key) for key in ("trace", "ok", "exit", "t0", "wall_s",
                                                 "peak_rss_mb", "info", "record")}
                   for p in passes],
    }
    (OUT_ROOT / f"{run_dir.name}.json").write_text(json.dumps(report))
    shutil.rmtree(run_dir, ignore_errors=True)
    return result, report


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(p["record"]["marks"]["first_step"] - p["t0"]
                                     for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Medians over traced passes, and the tracing overhead against untraced ones."""
    per_pass = []
    for p in traced:
        m = tracing.layer_metrics(p["record"], p["wall_s"])
        m.update(p["info"])
        m["io.bytes_written"] = p["bytes_written"]
        per_pass.append(m)
    values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    values["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return values, tracing.PER_LAYER_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fractalcurve" / "__init__.py").is_file():
        print(f"no fractalcurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         smoke=args.smoke)
    if result["metrics"] is None:
        print("no pass succeeded:", *report["failures"], sep="\n  ", file=sys.stderr)
        return 1
    summary = {k: v for k, v in report.items() if k != "passes"}
    print(json.dumps({"report": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
