"""The benchmark's workloads: seeded inputs and checks.

Each workload fixes its cost; the seed only draws values that do not
change it (packet centre, width and momentum, oscillator frequency,
kernel epsilon).  ``make_inputs`` runs in the parent and
produces what the program receives: a CLI config or a library-script
input dict.  A library workload names its body in ``libruns.py``, which
runs inside a pass and returns raw numbers.  ``check`` runs in the parent
and compares those numbers, or the pass's output files, with independent
oracles where one exists.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from libruns import MODES, XI_POINTS

KOCH_DIM = math.log(4.0) / math.log(3.0)
DUST_DIM = math.log(2.0) / math.log(3.0)
EPS = sys.float_info.epsilon


def drift_bound(r: float, steps: int) -> float:
    """Allowed probability drift of ``steps`` unitary Crank-Nicolson steps.

    Each step's roundoff grows with the dispersion number r, so the bound
    is r * steps * machine epsilon, floored at 1e-12.
    """
    return max(1e-12, r * steps * EPS)


def dispersion_r(d_tau: float, dxi: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    return hbar * d_tau / (2.0 * mass * dxi ** 2)


@dataclass(frozen=True)
class Workload:
    name: str
    cli_command: str | None  # CLI subcommand, or None for a library script
    probe: str  # first time-stepping call: "step" or "kernel_moments"
    make_inputs: Callable[[random.Random, bool], dict]
    check: Callable[..., tuple[list[str], dict]]
    run: str | None = None  # library body in libruns.py


# --- evolve-l6: CLI evolve, small periodic grid, snapshot CSVs ----------------

def _evolve_inputs(rng: random.Random, smoke: bool) -> dict:
    return {
        "curve": {"kind": "koch", "level": 3 if smoke else 6},
        "alpha_space": KOCH_DIM,
        "run": {
            "d_tau": 1e-4,
            "steps": 20 if smoke else 2000,
            "snapshot_stride": 5 if smoke else 100,
            "boundary": "periodic",
            "initial": {
                "kind": "gaussian",
                "center_frac": rng.uniform(0.3, 0.7),
                "sigma_frac": rng.uniform(1.0 / 16.0, 1.0 / 10.0),
                "k0_periods": rng.randint(1, 6),
            },
        },
        "output": "evolve",
    }


# --- continuity-l9: CLI continuity, large Dirichlet grid, no snapshot files ---

def _continuity_inputs(rng: random.Random, smoke: bool) -> dict:
    return {
        "curve": {"kind": "koch", "level": 3 if smoke else 9},
        "alpha_space": "auto",
        "time_set": {"kind": "cantor", "T": 1.0, "level": 2 if smoke else 6},
        "run": {
            "d_tau": 1e-4,
            "steps": 4 if smoke else 100,
            "snapshot_stride": 2 if smoke else 10,
            "boundary": "dirichlet",
            "initial": {"kind": "harmonic_ground"},
            "potential": {"kind": "harmonic", "omega": rng.uniform(60.0, 200.0),
                          "center_frac": 0.5},
        },
        "output": "continuity",
    }


def _read_continuity_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_cli(cfg: dict, out_dir: Path, snapshots: bool) -> tuple[list[str], dict]:
    """Checks of an ``evolve`` (``snapshots``) or ``continuity`` run from its output files."""
    run = cfg["run"]
    manifest = json.loads((out_dir / "manifest.json").read_text())["derived"]
    rows = _read_continuity_csv(out_dir / "continuity.csv")
    periodic = run["boundary"] == "periodic"
    cells = manifest["xi_points"] if periodic else manifest["xi_points"] - 1
    r = dispersion_r(run["d_tau"], manifest["staircase_total"] / cells)
    probs = [row["total_probability"] for row in rows] + [manifest["final_total_probability"]]
    drift = max(abs(p - 1.0) for p in probs)
    failures = []
    if not drift <= drift_bound(r, run["steps"]):
        failures.append(f"probability drift {drift:.3e} above {drift_bound(r, run['steps']):.3e}")
    stride = run["snapshot_stride"]
    if len(rows) != run["steps"] // stride - 1:
        failures.append(f"{len(rows)} continuity rows for {run['steps']} steps")
    if cfg["alpha_space"] == "auto" and not abs(manifest["alpha_space"] - KOCH_DIM) <= 1e-3:
        failures.append(f"auto alpha {manifest['alpha_space']!r} is not log4/log3")
    if run["initial"]["kind"] == "harmonic_ground":
        # the ground state is an exact eigenvector of the CN operator, so its
        # modulus moves only by solver roundoff
        mod = json.loads((out_dir / "stationary_report.json").read_text())["max_modulus_drift"]
        if not mod <= drift_bound(r, run["steps"]):
            failures.append(f"modulus drift {mod:.3e} above {drift_bound(r, run['steps']):.3e}")
    got = len(list(out_dir.glob("snapshot_*.csv")))
    expected = run["steps"] // stride + 1 if snapshots else 0
    if got != expected:
        failures.append(f"{got} snapshot files, expected {expected}")
    return failures, {"dynamics.dispersion_r": r, "dynamics.norm_drift": drift}


# --- kernel-dim: kernel moments, dimension estimates, kernel vs CN ------------

def _kernel_inputs(rng: random.Random, smoke: bool) -> dict:
    return {
        "eps": rng.uniform(5e-4, 2e-3),
        "eta": 1e-3 if smoke else 1e-5,  # sets the panel count, hence the cost
        "raw_eta": 1e-3 if smoke else 1e-4,
        "koch_levels": list(range(2, 5) if smoke else range(3, 10)),
        "dust_levels": list(range(2, 6) if smoke else range(4, 16)),
        "tol": 1e-9,
    }


def damped_moments(eps: float, eta: float):
    """Closed forms of the damped kernel moments (weights 1, delta, delta^2/2).

    With b = i m / (2 hbar eps (1 - i eta)) the integral of e^{b d^2} is
    sqrt(pi/-b) and that of (d^2/2) e^{b d^2} is sqrt(pi/-b)/(-4b), both
    divided by the kernel normalization sqrt(2 i pi hbar eps / m)
    (hbar = m = 1).
    """
    b = 1j / (2.0 * eps * (1.0 - 1j * eta))
    m0 = cmath.sqrt(math.pi / -b) / cmath.sqrt(2j * math.pi * eps)
    return m0, 0.0, m0 / (-4.0 * b)


def kernel_cn_bound(eps: float) -> float:
    """Twice the expected gap between one kernel step and one CN step.

    Per mode of energy E: CN's phase error (E eps)^3 / 12, plus the decay
    E eps eta of the damped kernel (eta = eps / 2).
    """
    energies = [(abs(c), 0.5 * (2.0 * math.pi * j) ** 2) for j, c in MODES]
    return 2.0 * sum(a * ((e * eps) ** 3 / 12.0 + e * eps * 0.5 * eps) for a, e in energies)


def check_kernel(p: dict, result: dict) -> tuple[list[str], dict]:
    eps = p["eps"]
    failures = []
    m0, m1, m2 = (complex(*z) for z in result["moments"])
    m2_limit = 0.5j * eps
    # extrapolation to zero damping leaves a bias of order eta^2
    if not (abs(m0 - 1.0) <= max(1e-9, p["eta"] ** 2) and abs(m1) <= 1e-12
            and abs(m2 - m2_limit) <= 1e-5 * abs(m2_limit)):
        failures.append(f"extrapolated moments {m0}, {m1}, {m2} miss 1, 0, {m2_limit}")
    exact = damped_moments(eps, p["raw_eta"])
    for k, z in enumerate(complex(*z) for z in result["raw_moments"]):
        if not abs(z - exact[k]) <= 1e-7 * abs(exact[2 if k == 2 else 0]):
            failures.append(f"raw moment {k} = {z} differs from closed form {exact[k]}")
    if not abs(result["koch_alpha"] - KOCH_DIM) <= 1e-8:
        failures.append(f"Koch dimension {result['koch_alpha']!r} is not log4/log3")
    if not abs(result["dust_alpha"] - DUST_DIM) <= 1e-8:
        failures.append(f"dust dimension {result['dust_alpha']!r} is not log2/log3")
    if not result["kernel_cn_diff"] <= kernel_cn_bound(eps):
        failures.append(f"kernel vs CN differ by {result['kernel_cn_diff']:.3e}, "
                        f"above {kernel_cn_bound(eps):.3e}")
    p0, p1 = result["cn_probabilities"]
    drift = abs(p1 - p0) / p0
    r = dispersion_r(eps, 1.0 / XI_POINTS)
    if not drift <= drift_bound(r, 1):
        failures.append(f"one-step CN drift {drift:.3e} above {drift_bound(r, 1):.3e}")
    return failures, {"dynamics.dispersion_r": r, "dynamics.norm_drift": drift}


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("evolve-l6", "evolve", "step", _evolve_inputs, partial(check_cli, snapshots=True)),
    Workload("continuity-l9", "continuity", "step", _continuity_inputs,
             partial(check_cli, snapshots=False)),
    Workload("kernel-dim", None, "kernel_moments", _kernel_inputs, check_kernel, "run_kernel"),
]}
