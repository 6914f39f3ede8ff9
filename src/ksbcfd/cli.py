"""Experiment orchestration: single runs, convergence sweeps, blow-up studies.

Configuration is strict JSON (unknown keys are rejected with path-addressed
messages).  Schema:

    {
      "problem": "mms_accuracy",            # one of the built-in problems
      "mode": "run" | "convergence" | "blowup",
      "grid": {
        "family": "uniform" | "random" | "middle" | "corner",
        "m": 40,                 # run/blowup modes
        "m_values": [10, 20],    # convergence mode (tau is derived as h_fix)
        "beta": 0.2,             # random family only; 0 <= beta <= 0.5
        "seed": 0                # random family only; default 0
      },
      "tau": 0.025,              # run/blowup modes (forbidden in convergence)
      "t_final": 1.0,
      "solver_tol": 1e-12,       # default
      "blowup_threshold": 1e12,  # default
      "uniqueness_monitor": true,# default
      "outputs": {               # only the keys the mode reads:
        "diagnostics": "diagnostics.csv",   # run/blowup modes
        "snapshot_times": [],    # run/blowup modes; each on a step in [0, t_final]
        "snapshot_format": "csv" | "vtk",   # run/blowup modes
        "summary": "summary.json",          # blowup mode
        "table": "convergence.csv"          # convergence mode
      }
    }

Relative output paths resolve against --out-dir (or $KSBCFD_OUT_DIR when the
flag is absent).  Every invocation also writes ``meta.json`` recording the
effective configuration, including the PRNG seed and the per-axis sub-seeds
of random grids.  The paper's largest jitter, beta = 0.5, sits on the open
boundary of the admissible interval; it is accepted and evaluated at the
largest representable value below 0.5 (recorded as ``beta_effective``).

All output is deterministic: reruns with identical configuration produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .grid import (
    Axis1D,
    StaggeredGrid2D,
    axis_subseeds,
    build_corner_refined,
    build_middle_refined,
    build_random_perturbed,
    build_uniform,
    make_grid,
    remap_axis,
)
from .io import diagnostics_to_csv, field_to_csv, field_to_vtk
from .problems import ProblemSpec, get_problem
from .scheme import RunResult, SchemeConfig, State, StepSolveError, error_norms, run

__all__ = [
    "ConfigError",
    "RunConfig",
    "GridConfig",
    "OutputConfig",
    "ConvergenceRow",
    "parse_config",
    "build_grid",
    "run_single",
    "run_convergence",
    "run_blowup",
    "emit_table",
    "rows_to_csv",
    "rows_from_csv",
    "main",
]

GRID_FAMILIES = ("uniform", "random", "middle", "corner")
MODES = ("run", "convergence", "blowup")
ENV_OUT_DIR = "KSBCFD_OUT_DIR"


class ConfigError(ValueError):
    """Configuration rejection with the offending JSON path in the message."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class GridConfig:
    family: str
    m: int | None = None
    m_values: tuple[int, ...] | None = None
    beta: float | None = None
    seed: int = 0

    @property
    def beta_effective(self) -> float | None:
        if self.beta is None:
            return None
        # beta = 0.5 is admitted by the config for parity with published
        # tables but the monotonicity bound is open at 0.5; use the largest
        # representable value below it.
        return float(np.nextafter(0.5, 0.0)) if self.beta == 0.5 else self.beta


@dataclass(frozen=True)
class OutputConfig:
    diagnostics: str = "diagnostics.csv"
    table: str = "convergence.csv"
    summary: str = "summary.json"
    snapshot_times: tuple[float, ...] = ()
    snapshot_format: str = "csv"


@dataclass(frozen=True)
class RunConfig:
    problem: str
    mode: str
    grid: GridConfig
    t_final: float
    tau: float | None = None
    solver_tol: float = 1e-12
    blowup_threshold: float = 1e12
    uniqueness_monitor: bool = True
    outputs: OutputConfig = field(default_factory=OutputConfig)


def _expect(mapping: dict, path: str, allowed: dict) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _get(mapping: dict, path: str, key: str, types, required=False, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    value = mapping[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {types.__name__}")
    if not isinstance(value, types):
        name = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {name}, got {type(value).__name__}")
    return value


def _parse_grid(raw, mode: str) -> GridConfig:
    if not isinstance(raw, dict):
        raise ConfigError("grid", "expected an object")
    _expect(raw, "grid", {"family", "m", "m_values", "beta", "seed"})
    family = _get(raw, "grid", "family", str, required=True)
    if family not in GRID_FAMILIES:
        raise ConfigError("grid.family", f"must be one of {GRID_FAMILIES}")

    m = _get(raw, "grid", "m", int)
    m_values = raw.get("m_values")
    if mode == "convergence":
        if m is not None:
            raise ConfigError("grid.m", "convergence mode takes grid.m_values, not grid.m")
        if not isinstance(m_values, list) or not m_values or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in m_values
        ):
            raise ConfigError("grid.m_values", "expected a nonempty list of integers")
        m_values = tuple(m_values)
        for v in m_values:
            _check_m(family, v, "grid.m_values")
    else:
        if m_values is not None:
            raise ConfigError("grid.m_values", f"{mode} mode takes grid.m, not grid.m_values")
        if m is None:
            raise ConfigError("grid.m", "missing required key")
        _check_m(family, m, "grid.m")
        m_values = None

    beta = _get(raw, "grid", "beta", float)
    seed = _get(raw, "grid", "seed", int, default=0)
    if family == "random":
        if beta is None:
            raise ConfigError("grid.beta", "random grids need a jitter amplitude beta")
        if not 0.0 <= beta <= 0.5:
            raise ConfigError("grid.beta", f"must lie in [0, 0.5], got {beta}")
    else:
        if beta is not None:
            raise ConfigError("grid.beta", "only allowed with grid.family 'random'")
        if "seed" in raw:
            raise ConfigError("grid.seed", "only allowed with grid.family 'random'")
    return GridConfig(family=family, m=m, m_values=m_values, beta=beta, seed=seed)


def _check_m(family: str, m: int, path: str) -> None:
    if m < 4:
        raise ConfigError(path, f"need m >= 4, got {m}")
    if family == "middle" and m % 2 != 0:
        raise ConfigError(path, f"middle refinement needs even m, got {m}")


# the outputs keys each mode reads
_RUN_OUTPUTS = {"diagnostics", "snapshot_times", "snapshot_format"}
_OUTPUT_KEYS = {"convergence": {"table"}, "run": _RUN_OUTPUTS, "blowup": _RUN_OUTPUTS | {"summary"}}


def _parse_outputs(raw, mode: str) -> OutputConfig:
    if raw is None:
        return OutputConfig()
    if not isinstance(raw, dict):
        raise ConfigError("outputs", "expected an object")
    _expect(raw, "outputs", set().union(*_OUTPUT_KEYS.values()))
    for key in raw:
        if key not in _OUTPUT_KEYS[mode]:
            raise ConfigError(f"outputs.{key}", f"not read in {mode} mode")
    times = raw.get("snapshot_times", [])
    if not isinstance(times, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in times
    ):
        raise ConfigError("outputs.snapshot_times", "expected a list of numbers")
    fmt = _get(raw, "outputs", "snapshot_format", str, default="csv")
    if fmt not in ("csv", "vtk"):
        raise ConfigError("outputs.snapshot_format", "must be 'csv' or 'vtk'")
    return OutputConfig(
        diagnostics=_get(raw, "outputs", "diagnostics", str, default="diagnostics.csv"),
        table=_get(raw, "outputs", "table", str, default="convergence.csv"),
        summary=_get(raw, "outputs", "summary", str, default="summary.json"),
        snapshot_times=tuple(float(t) for t in times),
        snapshot_format=fmt,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "expected a JSON object")
    _expect(raw, "", {
        "problem", "mode", "grid", "tau", "t_final", "solver_tol",
        "blowup_threshold", "uniqueness_monitor", "outputs",
    })
    problem = _get(raw, "", "problem", str, required=True)
    spec = get_problem(problem)  # validates the name
    mode = _get(raw, "", "mode", str, required=True)
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}")
    if mode == "convergence" and spec.exact is None:
        raise ConfigError("problem", f"{problem!r} has no exact solution for a convergence sweep")
    grid = _parse_grid(raw.get("grid"), mode) if "grid" in raw else None
    if grid is None:
        raise ConfigError("grid", "missing required key")

    tau = _get(raw, "", "tau", float)
    if mode == "convergence":
        if tau is not None:
            raise ConfigError("tau", "convergence mode derives tau from the grid spacing")
    elif tau is None:
        raise ConfigError("tau", "missing required key")
    elif not 0.0 < tau < math.inf:
        raise ConfigError("tau", "must be positive and finite")

    t_final = _get(raw, "", "t_final", float, required=True)
    if not 0.0 < t_final < math.inf:
        raise ConfigError("t_final", "must be positive and finite")
    solver_tol = _get(raw, "", "solver_tol", float, default=1e-12)
    if solver_tol <= 0.0:
        raise ConfigError("solver_tol", "must be positive")
    blowup_threshold = _get(raw, "", "blowup_threshold", float, default=1e12)
    if blowup_threshold <= 0.0:
        raise ConfigError("blowup_threshold", "must be positive")
    uniqueness_monitor = _get(raw, "", "uniqueness_monitor", bool, default=True)
    outputs = _parse_outputs(raw.get("outputs"), mode)
    if mode != "convergence":
        n_steps = round(t_final / tau)
        for t in outputs.snapshot_times:
            if not (math.isfinite(t / tau) and 0 <= round(t / tau) <= n_steps):
                raise ConfigError("outputs.snapshot_times",
                                  f"time {t} is not on a step in [0, t_final]")
    return RunConfig(
        problem=problem,
        mode=mode,
        grid=grid,
        t_final=t_final,
        tau=tau,
        solver_tol=solver_tol,
        blowup_threshold=blowup_threshold,
        uniqueness_monitor=uniqueness_monitor,
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# grid construction


def _build_axis(family: str, m: int, lo: float, hi: float, beta, seed) -> Axis1D:
    if family == "uniform":
        return build_uniform(lo, hi, m)
    if family == "random":
        return build_random_perturbed(lo, hi, m, beta, seed)
    if family == "middle":
        axis = build_middle_refined(m)
        return axis if (lo, hi) == (0.0, 1.0) else remap_axis(axis, lo, hi)
    if family == "corner":
        axis = build_corner_refined(m)
        return axis if (lo, hi) == (-0.5, 0.5) else remap_axis(axis, lo, hi)
    raise ValueError(f"unknown grid family {family!r}")


def build_grid(problem: ProblemSpec, grid_cfg: GridConfig, m: int) -> StaggeredGrid2D:
    x_lo, x_hi, y_lo, y_hi = problem.domain
    if grid_cfg.family == "random":
        sx, sy = axis_subseeds(grid_cfg.seed)
        beta = grid_cfg.beta_effective
        ax = _build_axis("random", m, x_lo, x_hi, beta, sx)
        ay = _build_axis("random", m, y_lo, y_hi, beta, sy)
    else:
        ax = _build_axis(grid_cfg.family, m, x_lo, x_hi, None, None)
        ay = _build_axis(grid_cfg.family, m, y_lo, y_hi, None, None)
    return make_grid(ax, ay)


# ---------------------------------------------------------------------------
# convergence sweeps


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    e_rho: float
    e_c: float
    e_gradc: float
    order_rho: float | None = None
    order_c: float | None = None
    order_gradc: float | None = None
    failed: bool = False


def _observed_order(e_prev: float, e_curr: float, m_prev: int, m_curr: int) -> float:
    return math.log(e_prev / e_curr) / math.log(m_curr / m_prev)


def run_convergence(config: RunConfig) -> list[ConvergenceRow]:
    """One solver run per grid size, with orders between consecutive rows."""
    problem = get_problem(config.problem)
    if problem.exact is None:
        raise ConfigError("problem", f"{config.problem!r} has no exact solution for a convergence sweep")
    x_lo, x_hi = problem.domain[0], problem.domain[1]
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for m in config.grid.m_values:
        scheme_cfg = _scheme_config(config, problem, (x_hi - x_lo) / m)  # tau tied to the spacing
        grid = build_grid(problem, config.grid, m)
        try:
            result = run(problem, grid, scheme_cfg)
            e_rho, e_c, e_gradc = error_norms(result.state, problem)
        except StepSolveError:
            rows.append(ConvergenceRow(m=m, e_rho=math.nan, e_c=math.nan, e_gradc=math.nan,
                                       failed=True))
            prev = None
            continue
        row = ConvergenceRow(m=m, e_rho=e_rho, e_c=e_c, e_gradc=e_gradc)
        if prev is not None:
            row = ConvergenceRow(
                m=m, e_rho=e_rho, e_c=e_c, e_gradc=e_gradc,
                order_rho=_observed_order(prev.e_rho, e_rho, prev.m, m),
                order_c=_observed_order(prev.e_c, e_c, prev.m, m),
                order_gradc=_observed_order(prev.e_gradc, e_gradc, prev.m, m),
            )
        rows.append(row)
        prev = row
    return rows


def emit_table(rows: list[ConvergenceRow]) -> str:
    """Aligned plain-text table: errors in 3-significant-digit scientific
    notation, orders with 2 decimals, '--' where no order exists."""
    header = ("M", "rho_error", "order", "c_error", "order", "gradc_error", "order")
    body = []
    for r in rows:
        if r.failed:
            body.append((str(r.m), "FAILED", "--", "FAILED", "--", "FAILED", "--"))
        else:
            body.append((
                str(r.m),
                f"{r.e_rho:.2e}",
                "--" if r.order_rho is None else f"{r.order_rho:.2f}",
                f"{r.e_c:.2e}",
                "--" if r.order_c is None else f"{r.order_c:.2f}",
                f"{r.e_gradc:.2e}",
                "--" if r.order_gradc is None else f"{r.order_gradc:.2f}",
            ))
    widths = [max(len(header[k]), *(len(row[k]) for row in body)) if body else len(header[k])
              for k in range(len(header))]
    lines = ["  ".join(h.rjust(widths[k]) for k, h in enumerate(header))]
    for row in body:
        lines.append("  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[ConvergenceRow]) -> str:
    out = ["M,e_rho,order_rho,e_c,order_c,e_gradc,order_gradc,failed"]
    for r in rows:
        cells = [str(r.m)]
        for v in (r.e_rho, r.order_rho, r.e_c, r.order_c, r.e_gradc, r.order_gradc):
            if v is None:
                cells.append("")
            else:
                cells.append(f"{v:.17g}")
        cells.append(str(int(r.failed)))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def rows_from_csv(text: str) -> list[ConvergenceRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "M,e_rho,order_rho,e_c,order_c,e_gradc,order_gradc,failed":
        raise ValueError("unrecognized convergence CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 8:
            raise ValueError(f"malformed convergence CSV row: {ln!r}")
        opt = lambda s: None if s == "" else float(s)
        rows.append(ConvergenceRow(
            m=int(cells[0]),
            e_rho=float(cells[1]),
            order_rho=opt(cells[2]),
            e_c=float(cells[3]),
            order_c=opt(cells[4]),
            e_gradc=float(cells[5]),
            order_gradc=opt(cells[6]),
            failed=bool(int(cells[7])),
        ))
    return rows


# ---------------------------------------------------------------------------
# single runs and blow-up studies


def _scheme_config(config: RunConfig, problem: ProblemSpec, tau: float) -> SchemeConfig:
    return SchemeConfig(
        lam=problem.lam,
        tau=tau,
        t_final=config.t_final,
        solver_tol=config.solver_tol,
        blowup_threshold=config.blowup_threshold,
        uniqueness_monitor=config.uniqueness_monitor,
    )


def _snapshot_steps(config: RunConfig) -> dict[int, float]:
    steps = {}
    for t in config.outputs.snapshot_times:
        steps[round(t / config.tau)] = t
    return steps


def _snapshot_writer(config: RunConfig, out_dir: Path):
    wanted = _snapshot_steps(config)
    fmt = config.outputs.snapshot_format

    def on_step(state: State) -> None:
        if state.n in wanted:
            for name, f in (("rho", state.u_curr), ("c", state.z_curr)):
                path = out_dir / f"snapshot_{name}_{state.n:06d}.{fmt}"
                if fmt == "vtk":
                    field_to_vtk(f, path, name=name)
                else:
                    field_to_csv(f, path)

    return on_step


def run_single(config: RunConfig, out_dir: Path) -> RunResult:
    """March the configured problem, writing snapshots and diagnostics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = get_problem(config.problem)
    grid = build_grid(problem, config.grid, config.grid.m)
    result = run(problem, grid, _scheme_config(config, problem, config.tau),
                 on_step=_snapshot_writer(config, out_dir))
    diagnostics_to_csv(result.diagnostics, out_dir / config.outputs.diagnostics)
    return result


def run_blowup(config: RunConfig, out_dir: Path) -> dict:
    """Full diagnostics time series plus a summary record."""
    result = run_single(config, out_dir)
    d = result.diagnostics
    peak_idx = max(range(len(d)), key=lambda k: d[k].u_max)
    mass0 = d[0].mass
    drift = max(abs(x.mass - mass0) for x in d) / abs(mass0) if mass0 else 0.0
    summary = {
        "problem": config.problem,
        "blew_up": result.blew_up,
        "blow_up_time": result.blow_up_time,
        "t_halt": d[-1].t,
        "steps": len(d),
        "peak_u_max": d[peak_idx].u_max,
        "t_peak": d[peak_idx].t,
        "u_min_overall": min(x.u_min for x in d),
        "max_relative_mass_drift": drift,
        "argmax_first": [d[0].argmax_i, d[0].argmax_j],
        "argmax_last": [d[-1].argmax_i, d[-1].argmax_j],
    }
    with open(out_dir / config.outputs.summary, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def _write_meta(config: RunConfig, out_dir: Path) -> None:
    grid_meta: dict = {"family": config.grid.family}
    if config.grid.m is not None:
        grid_meta["m"] = config.grid.m
    if config.grid.m_values is not None:
        grid_meta["m_values"] = list(config.grid.m_values)
    if config.grid.family == "random":
        sx, sy = axis_subseeds(config.grid.seed)
        grid_meta.update(
            beta=config.grid.beta,
            beta_effective=config.grid.beta_effective,
            seed=config.grid.seed,
            subseed_x=sx,
            subseed_y=sy,
        )
    meta = {
        "version": __version__,
        "problem": config.problem,
        "mode": config.mode,
        "grid": grid_meta,
        "tau": config.tau,
        "t_final": config.t_final,
        "solver_tol": config.solver_tol,
        "blowup_threshold": config.blowup_threshold,
        "uniqueness_monitor": config.uniqueness_monitor,
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap() -> None:
    """Keep the memory a time step frees for the next step (glibc only).

    Each step allocates and frees megabytes of numpy temporaries.  Under
    glibc's default, adaptive thresholds the top of the heap goes back to
    the kernel once more than twice the largest block freed so far is free
    there, so a run can fault its temporaries in anew every step: about
    1 300 page faults a step, 0.7 s of system time in 13 s, on the 180 x 180
    corner blow-up.  Fixed thresholds (blocks up to 32 MB from the heap,
    trimmed above 64 MB free) keep those pages mapped.  Elsewhere this does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ksbcfd",
        description="Mass-conservative block-centered finite difference solver "
                    "for the 2D Keller-Segel chemotaxis system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "march one configured problem and write diagnostics"),
        ("convergence", "sweep grid sizes and tabulate error norms and orders"),
        ("blowup", "march a blow-up study and write diagnostics plus a summary"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out-dir", default=None, help="directory for output files "
                       f"(default: ${ENV_OUT_DIR} or the current directory)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if config.mode != args.command:
            raise ConfigError("mode", f"config says {config.mode!r} but the "
                              f"{args.command!r} command was invoked")
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir or os.environ.get(ENV_OUT_DIR) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_meta(config, out_dir)
    _retain_freed_heap()

    try:
        if config.mode == "convergence":
            rows = run_convergence(config)
            (out_dir / config.outputs.table).write_text(rows_to_csv(rows), encoding="utf-8")
            if not args.quiet:
                print(emit_table(rows), end="")
            return 1 if any(r.failed for r in rows) else 0
        if config.mode == "blowup":
            summary = run_blowup(config, out_dir)
            if not args.quiet:
                status = "blow-up detected" if summary["blew_up"] else "reached t_final"
                print(f"{status}: t_halt={summary['t_halt']:.6g} "
                      f"peak_u_max={summary['peak_u_max']:.6g} at t={summary['t_peak']:.6g}")
            return 0
        result = run_single(config, out_dir)
        if not args.quiet:
            last = result.diagnostics[-1]
            print(f"finished at t={last.t:.6g}: mass={last.mass:.9g} "
                  f"u_max={last.u_max:.6g} blew_up={result.blew_up}")
        return 0
    except (StepSolveError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
