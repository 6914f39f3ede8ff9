"""The three workloads: their configuration documents and their output checks.

Each workload is one ``ksbcfd`` CLI invocation, run in-process.  One
operation is one grid run; ``check`` reads the files the run wrote, applies
the checks of ``checks.py`` to every grid run that did not fail, and returns
(attempted, failed).  A grid run fails when its solver raises
``StepSolveError``: the CLI then exits with 1 and, for a sweep, marks the row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import CheckError

TAU = 1e-3

# Corner blow-up study: corner-refined m x m, tau = 1e-3, halt at 1e7.  The
# README's study uses m = 200 (about 80 s); 180 halts at the same step with
# the same checks in about 60 s.
CORNER_M = 180
CORNER_GAUSSIAN = dict(amp=1000.0, k=100.0, x0=0.15, y0=0.15, domain=(-0.5, 0.5, -0.5, 0.5))

# Uniform accuracy sweep of the manufactured problem, tau = 1/M.
SWEEP_M = [10, 20, 40, 80, 160]

# Subcritical mass run: uniform 80 x 80, tau = 1e-3, 1000 steps, CSV
# snapshots of rho and c every SNAPSHOT_CADENCE steps.
SUB_M = 80
SUB_STEPS = 1000
SNAPSHOT_CADENCE = 100
SUB_GAUSSIAN = dict(amp=50.0, k=5.0, x0=0.5, y0=0.5, domain=(0.0, 1.0, 0.0, 1.0))


@dataclass(frozen=True)
class Workload:
    command: str                                   # ksbcfd sub-command
    config: Callable[[int], dict]                  # seed -> configuration document
    check: Callable[[int, Path, dict], tuple[int, int]]  # (exit code, out dir, config)


def corner_config(seed: int) -> dict:
    # the seed places the second VTK snapshot on a step in [100, 150]
    return {
        "problem": "blowup_corner",
        "mode": "blowup",
        "grid": {"family": "corner", "m": CORNER_M},
        "tau": TAU,
        "t_final": 0.18,
        "blowup_threshold": 1e7,
        "outputs": {"snapshot_times": [0.0, (100 + seed % 51) * TAU], "snapshot_format": "vtk"},
    }


def sweep_config(seed: int) -> dict:
    return {
        "problem": "mms_accuracy",
        "mode": "convergence",
        "grid": {"family": "uniform", "m_values": SWEEP_M},
        "t_final": 1.0,
    }


def subcritical_config(seed: int) -> dict:
    # the seed sets the phase of the snapshot cadence, a step in [1, 99], so
    # that no seed moves a snapshot into the set-up before the first step
    phase = 1 + seed % (SNAPSHOT_CADENCE - 1)
    times = [(phase + k * SNAPSHOT_CADENCE) * TAU for k in range(SUB_STEPS // SNAPSHOT_CADENCE)]
    return {
        "problem": "global_existence",
        "mode": "run",
        "grid": {"family": "uniform", "m": SUB_M},
        "tau": TAU,
        "t_final": SUB_STEPS * TAU,
        "outputs": {"snapshot_times": times, "snapshot_format": "csv"},
    }


# ---------------------------------------------------------------------------
# readers of the files the CLI writes


def read_diagnostics(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def read_snapshot(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """Cell values ``[i, j]`` from a CSV (i,j,x,y,value) or legacy VTK snapshot."""
    nx, ny = shape
    if path.suffix == ".csv":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        values = np.full(shape, np.nan)
        values[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 4]
    else:
        lines = path.read_text(encoding="utf-8").splitlines()
        start = lines.index("LOOKUP_TABLE default") + 1
        flat = np.array([float(v) for v in lines[start:start + nx * ny]])
        values = flat.reshape((ny, nx)).T  # written with i varying fastest
    if values.shape != shape or not np.all(np.isfinite(values)):
        raise CheckError(f"{path.name} does not hold {nx * ny} finite cell values")
    return values


def snapshot_steps(cfg: dict) -> list[int]:
    return [round(t / cfg["tau"]) for t in cfg["outputs"]["snapshot_times"]]


def widths(family: str, m: int, lo: float, hi: float) -> np.ndarray:
    return np.diff(checks.primal_points(family, m, lo, hi))


# ---------------------------------------------------------------------------
# per-workload checks


def _check_mass_run(out_dir: Path, cfg: dict, gaussian: dict) -> dict[str, np.ndarray]:
    """Checks shared by the corner and subcritical runs: initial mass against
    the exact integral, mass drift, and the mass of every density snapshot."""
    family, m = cfg["grid"]["family"], cfg["grid"]["m"]
    x_lo, x_hi, y_lo, y_hi = gaussian["domain"]
    wx, wy = widths(family, m, x_lo, x_hi), widths(family, m, y_lo, y_hi)
    d = read_diagnostics(out_dir / "diagnostics.csv")
    checks.check_initial_mass(d["mass"][0], h_max=max(wx.max(), wy.max()), **gaussian)
    checks.check_mass_drift(d["mass"])
    fmt = cfg["outputs"]["snapshot_format"]
    for n in snapshot_steps(cfg):
        rho = read_snapshot(out_dir / f"snapshot_rho_{n:06d}.{fmt}", (m, m))
        read_snapshot(out_dir / f"snapshot_c_{n:06d}.{fmt}", (m, m))
        if n == 0:  # the diagnostics start at step 1; mass is conserved to the drift bound
            checks.check_snapshot_mass(rho, wx, wy, d["mass"][0], tol=checks.MASS_DRIFT_TOL)
        else:
            if not math.isclose(d["t"][n - 1], n * cfg["tau"], rel_tol=1e-12):
                raise CheckError(f"diagnostics row {n - 1} is not step {n}")
            checks.check_snapshot_mass(rho, wx, wy, d["mass"][n - 1])
    return d


def _single_run_outcome(code: int) -> bool:
    """True when the grid run failed in its solver (exit 1)."""
    if code not in (0, 1):
        raise CheckError(f"the CLI exited with {code}")
    return code == 1


def check_corner(code: int, out_dir: Path, cfg: dict) -> tuple[int, int]:
    if _single_run_outcome(code):
        return 1, 1
    d = _check_mass_run(out_dir, cfg, CORNER_GAUSSIAN)
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["steps"] != len(d["t"]):
        raise CheckError("summary.json and diagnostics.csv disagree on the step count")
    m = cfg["grid"]["m"]
    argmax = (int(d["argmax_i"][-1]), int(d["argmax_j"][-1]))
    checks.check_corner_halt(summary["blew_up"], d["t"], d["u_max"], argmax, (m, m))
    return 1, 0


def check_subcritical(code: int, out_dir: Path, cfg: dict) -> tuple[int, int]:
    if _single_run_outcome(code):
        return 1, 1
    d = _check_mass_run(out_dir, cfg, SUB_GAUSSIAN)
    if len(d["t"]) != SUB_STEPS:
        raise CheckError(f"{len(d['t'])} diagnostics rows, expected {SUB_STEPS}")
    checks.check_rise_then_decay(d["u_max"])
    checks.check_positivity(d["u_min"])
    return 1, 0


def read_sweep(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        rows.append({"m": int(cells["M"]), "e_rho": float(cells["e_rho"]),
                     "e_c": float(cells["e_c"]), "e_gradc": float(cells["e_gradc"]),
                     "failed": cells["failed"] == "1"})
    return rows


def check_sweep(code: int, out_dir: Path, cfg: dict) -> tuple[int, int]:
    if code not in (0, 1):
        raise CheckError(f"the CLI exited with {code}")
    rows = read_sweep(out_dir / "convergence.csv")
    if [r["m"] for r in rows] != cfg["grid"]["m_values"]:
        raise CheckError("convergence.csv does not hold one row per grid size")
    done = [r for r in rows if not r["failed"]]
    if (code == 1) != (len(done) < len(rows)):
        raise CheckError("the exit code disagrees with the failed rows")
    checks.check_sweep(done)
    return len(rows), len(rows) - len(done)


WORKLOADS = {
    "corner_blowup": Workload("blowup", corner_config, check_corner),
    "convergence_uniform": Workload("convergence", sweep_config, check_sweep),
    "subcritical_mass": Workload("run", subcritical_config, check_subcritical),
}
