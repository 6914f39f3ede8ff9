"""Experiment orchestration: marches and convergence sweeps.

A configuration is one strict JSON object.  Its keys are the fields of
``RunConfig``, its ``grid`` object's those of ``GridConfig`` and its
``outputs`` object's those of ``OutputConfig``; a key left out takes the
field's default, and any other key is rejected with a path-addressed
message.  A corner blow-up study, a march that halts on its threshold, for
example:

    {
      "problem": "blowup_corner",
      "mode": "run",
      "grid": {"family": "corner", "m": 200},
      "tau": 1e-3,
      "t_final": 0.18,
      "blowup_threshold": 1e7,
      "outputs": {"snapshot_times": [0.0, 0.15], "snapshot_format": "vtk"}
    }

Each snapshot time must lie on a step: a whole multiple of tau in
[0, t_final].  ``parse_config`` also builds the ``SchemeConfig`` of every
grid run the document implies, so every configuration error is found before
a run starts or a file is written.

Every file goes into --out-dir (the working directory when the flag is
absent), under a fixed name: ``meta.json`` always, ``convergence.csv`` for a
sweep, and for a march ``diagnostics.csv``, ``summary.json`` and the
snapshots ``snapshot_{rho,c}_<step>.<csv|vtk>``.  Only a march reads
``outputs``.  The ``blowup`` mode and sub-command are another name for
``run``: they march by the same code and write the same files, and are
kept only because the benchmark's corner workload invokes ``blowup``.
``meta.json`` holds the parsed configuration without ``outputs``, plus the
per-axis sub-seeds of random grids.  The paper's largest jitter, beta =
0.5, sits on the open boundary of the admissible interval; it is accepted
and evaluated at the largest representable value below 0.5 (recorded as
``beta_effective``).

All output is deterministic: reruns with identical configuration produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
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
from .scheme import SchemeConfig, State, StepSolveError, error_norms, run, step_of

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
    "emit_table",
    "rows_to_csv",
    "main",
]

GRID_FAMILIES = ("uniform", "random", "middle", "corner")
MODES = ("run", "convergence", "blowup")


class ConfigError(ValueError):
    """Configuration rejection with the offending JSON path in the message."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class GridConfig:
    family: str                              # one of GRID_FAMILIES
    m: int | None = None                     # a march: cells per axis
    m_values: tuple[int, ...] | None = None  # convergence mode: distinct sizes
    beta: float | None = None                # random family only; 0 <= beta <= 0.5
    seed: int | None = 0                     # random family only; None off it

    @property
    def sizes(self) -> tuple[int, ...]:
        """The grid size of each grid run."""
        return self.m_values or (self.m,)

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
    """The snapshots of a march; a sweep that sets any key is rejected."""

    snapshot_times: tuple[float, ...] = ()  # each a time on a step in [0, t_final]
    snapshot_format: str = "csv"             # csv or vtk


@dataclass(frozen=True)
class RunConfig:
    problem: str                             # a name in problems.PROBLEMS
    mode: str                                # one of MODES
    grid: GridConfig
    t_final: float
    tau: float | None = None                 # a march; a sweep takes its spacing
    blowup_threshold: float = SchemeConfig.blowup_threshold
    outputs: OutputConfig = field(default_factory=OutputConfig)


# the field types of a config dataclass, evaluated once from their annotation strings
_field_types = functools.cache(typing.get_type_hints)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _typed(value, hint, path: str):
    """value as the field type hint: an int is taken as a float, a list as a tuple."""
    if isinstance(hint, types.UnionType):  # T | None, where None is a default, not a JSON value
        hint = typing.get_args(hint)[0]
    if is_dataclass(hint):
        return _parse(hint, value, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {type(value).__name__}")
        return tuple(_typed(item, typing.get_args(hint)[0], path) for item in value)
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(path, f"expected {hint.__name__}, got {type(value).__name__}")
    return value


def _parse(cls, raw, path: str = ""):
    """The config dataclass cls from a JSON object: the fields of cls are the
    keys it accepts, and their defaults fill in the keys it leaves out."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<document>", "expected a JSON object")
    hints = _field_types(cls)
    for key in raw:
        if key not in hints:
            raise ConfigError(_at(path, key), "unknown key")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(_at(path, f.name), "missing required key")
    return cls(**{key: _typed(value, hints[key], _at(path, key)) for key, value in raw.items()})


def _checked_grid(grid: GridConfig, raw: dict, mode: str) -> GridConfig:
    """grid after the rules between its keys and the mode, with seed None off
    the random family."""
    if grid.family not in GRID_FAMILIES:
        raise ConfigError("grid.family", f"must be one of {GRID_FAMILIES}")
    if mode == "convergence":
        path = "grid.m_values"
        if grid.m is not None:
            raise ConfigError("grid.m", "convergence mode takes grid.m_values, not grid.m")
        if not grid.m_values:
            raise ConfigError(path, "expected a nonempty list of integers")
        if len(set(grid.m_values)) < len(grid.m_values):
            raise ConfigError(path, "the grid sizes must be distinct")
    else:
        path = "grid.m"
        if grid.m_values is not None:
            raise ConfigError("grid.m_values", f"{mode} mode takes grid.m, not grid.m_values")
        if grid.m is None:
            raise ConfigError(path, "missing required key")
    for m in grid.sizes:
        if m < 4:
            raise ConfigError(path, f"need m >= 4, got {m}")
        if grid.family == "middle" and m % 2 != 0:
            raise ConfigError(path, f"middle refinement needs even m, got {m}")

    if grid.family == "random":
        if grid.beta is None:
            raise ConfigError("grid.beta", "random grids need a jitter amplitude beta")
        if not 0.0 <= grid.beta <= 0.5:
            raise ConfigError("grid.beta", f"must lie in [0, 0.5], got {grid.beta}")
        if grid.seed < 0:
            raise ConfigError("grid.seed", f"must be >= 0, got {grid.seed}")
        return grid
    if grid.beta is not None:
        raise ConfigError("grid.beta", "only allowed with grid.family 'random'")
    if "seed" in raw:
        raise ConfigError("grid.seed", "only allowed with grid.family 'random'")
    return replace(grid, seed=None)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document, including the
    ``SchemeConfig`` of each grid run it implies."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    config = _parse(RunConfig, raw)
    mode = config.mode
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}")
    try:
        problem = get_problem(config.problem)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None
    if mode == "convergence" and problem.exact is None:
        raise ConfigError("problem", f"{config.problem!r} has no exact solution "
                                     "for a convergence sweep")
    config = replace(config, grid=_checked_grid(config.grid, raw["grid"], mode))

    if mode == "convergence":
        if config.tau is not None:
            raise ConfigError("tau", "convergence mode derives tau from the grid spacing")
    elif config.tau is None:
        raise ConfigError("tau", "missing required key")
    outputs = raw.get("outputs", {})
    if mode == "convergence" and outputs:
        raise ConfigError(f"outputs.{next(iter(outputs))}", "not read in convergence mode")
    if config.outputs.snapshot_format not in ("csv", "vtk"):
        raise ConfigError("outputs.snapshot_format", "must be 'csv' or 'vtk'")

    for m in config.grid.sizes:
        try:
            scheme = _scheme_config(config, problem, m)
        except ValueError as exc:
            key, _, reason = str(exc).partition(" ")  # the message starts with the field's name
            where = f" on the grid of size {m}" if mode == "convergence" else ""
            raise ConfigError(key, reason + where) from None
    # a sweep has no snapshot times; a run has one grid
    for t in config.outputs.snapshot_times:
        n = step_of(t, scheme.tau)
        if n is None or not 0 <= n <= scheme.n_steps:
            raise ConfigError("outputs.snapshot_times",
                              f"time {t} is not on a step in [0, t_final]")
    return config


# ---------------------------------------------------------------------------
# grid construction


def _build_axis(family: str, m: int, lo: float, hi: float, beta, seed) -> Axis1D:
    if family == "uniform":
        return build_uniform(lo, hi, m)
    if family == "random":
        return build_random_perturbed(lo, hi, m, beta, seed)
    if family == "middle":
        return remap_axis(build_middle_refined(m), lo, hi)
    if family == "corner":
        return remap_axis(build_corner_refined(m), lo, hi)
    raise ValueError(f"unknown grid family {family!r}")


def build_grid(problem: ProblemSpec, grid_cfg: GridConfig, m: int) -> StaggeredGrid2D:
    x_lo, x_hi, y_lo, y_hi = problem.domain
    family, beta = grid_cfg.family, grid_cfg.beta_effective
    sx, sy = axis_subseeds(grid_cfg.seed) if family == "random" else (None, None)
    return make_grid(_build_axis(family, m, x_lo, x_hi, beta, sx),
                     _build_axis(family, m, y_lo, y_hi, beta, sy))


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
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for m in config.grid.m_values:
        grid = build_grid(problem, config.grid, m)
        try:
            result = run(problem, grid, _scheme_config(config, problem, m))
            e_rho, e_c, e_gradc = error_norms(result.state, problem)
        except StepSolveError:
            rows.append(ConvergenceRow(m=m, e_rho=math.nan, e_c=math.nan, e_gradc=math.nan,
                                       failed=True))
            prev = None
            continue
        orders = {} if prev is None else {
            "order_rho": _observed_order(prev.e_rho, e_rho, prev.m, m),
            "order_c": _observed_order(prev.e_c, e_c, prev.m, m),
            "order_gradc": _observed_order(prev.e_gradc, e_gradc, prev.m, m),
        }
        row = ConvergenceRow(m=m, e_rho=e_rho, e_c=e_c, e_gradc=e_gradc, **orders)
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


# ---------------------------------------------------------------------------
# marches


def _scheme_config(config: RunConfig, problem: ProblemSpec, m: int) -> SchemeConfig:
    """The scheme settings of the grid run of size m; a sweep ties tau to the spacing."""
    x_lo, x_hi = problem.domain[:2]
    tau = config.tau if config.mode != "convergence" else (x_hi - x_lo) / m
    return SchemeConfig(tau=tau, t_final=config.t_final, blowup_threshold=config.blowup_threshold)


def _snapshot_steps(config: RunConfig) -> dict[int, float]:
    return {step_of(t, config.tau): t for t in config.outputs.snapshot_times}


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


def run_single(config: RunConfig, out_dir: Path) -> dict:
    """March the configured problem, writing snapshots, diagnostics (of the
    steps before the failure when a solve fails) and ``summary.json``, and
    return the summary; the mass drift is measured from the level-0 mass."""
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = get_problem(config.problem)
    grid = build_grid(problem, config.grid, config.grid.m)
    try:
        result = run(problem, grid, _scheme_config(config, problem, config.grid.m),
                     on_step=_snapshot_writer(config, out_dir))
    except StepSolveError as failure:
        diagnostics_to_csv(failure.diagnostics, out_dir / "diagnostics.csv")
        raise
    d = result.diagnostics
    diagnostics_to_csv(d, out_dir / "diagnostics.csv")
    peak_idx = max(range(len(d)), key=lambda k: d[k].u_max)
    mass0 = result.initial_mass
    drift = max(abs(x.mass - mass0) for x in d) / abs(mass0) if mass0 else 0.0
    summary = {
        "problem": config.problem,
        "blew_up": result.blew_up,
        "blow_up_time": result.state.t if result.blew_up else None,
        "t_halt": d[-1].t,
        "steps": len(d),
        "peak_u_max": d[peak_idx].u_max,
        "t_peak": d[peak_idx].t,
        "u_min_overall": min(x.u_min for x in d),
        "max_relative_mass_drift": drift,
        "argmax_first": [d[0].argmax_i, d[0].argmax_j],
        "argmax_last": [d[-1].argmax_i, d[-1].argmax_j],
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary


def _write_meta(config: RunConfig, out_dir: Path) -> None:
    """meta.json: the parsed configuration without its outputs and the grid
    keys it leaves unset, plus the sub-seeds a random grid draws from."""
    meta = asdict(config)
    del meta["outputs"]
    grid = {key: value for key, value in meta["grid"].items() if value is not None}
    if config.grid.family == "random":
        grid["subseed_x"], grid["subseed_y"] = axis_subseeds(config.grid.seed)
        grid["beta_effective"] = config.grid.beta_effective
    meta.update(version=__version__, grid=grid)
    with open(out_dir / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# the free memory a command leaves mapped at the top of the heap when it returns
_TRIM_PAD = 4 << 20


def _glibc():
    """The C library's ``mallopt`` and ``malloc_trim``, or None off glibc."""
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    except (AttributeError, OSError, TypeError):
        return None
    libc.mallopt.restype = libc.malloc_trim.restype = ctypes.c_int
    return libc


@contextlib.contextmanager
def _retain_freed_heap():
    """Keep the memory a time step frees for the next step while the body
    runs, and give the free heap back to the kernel when it ends (glibc only).

    Each step allocates and frees megabytes of numpy temporaries.  Under
    glibc's default, adaptive thresholds the top of the heap goes back to
    the kernel once more than twice the largest block freed so far is free
    there, so a run can fault its temporaries in anew every step.  Fixed
    thresholds (blocks up to 32 MB from the heap, trimmed above 64 MB free)
    keep those pages mapped: on the 180 x 180 corner blow-up (164 steps, one
    command process, one BLAS thread, a 2-core Xeon) they cut minor page
    faults from 65 000-72 000 to about 15 700 and system time from
    0.17-0.24 s to 0.06-0.08 s.

    The thresholds hold for the whole process, so on every way out of the
    body, a return or an exception, ``malloc_trim`` unmaps the heap left
    free; otherwise a caller that runs commands in-process would keep it
    until it exits (15 MB after that corner run, on which reading its two
    snapshots back would stack).  It keeps ``_TRIM_PAD`` at the top of the
    heap: the set-up of the next command in the same process reuses it (a
    set-up leaves 2.8 MB free there on the uniform sweep, 3.6 MB on that
    corner run) instead of faulting in 830-930 pages anew, which made the
    sweep's set-up about a fifth slower.  Elsewhere this does nothing.
    """
    libc = _glibc()
    if libc is None:
        yield
        return
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    try:
        yield
    finally:
        libc.malloc_trim(_TRIM_PAD)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ksbcfd",
        description="Mass-conservative block-centered finite difference solver "
                    "for the 2D Keller-Segel chemotaxis system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "march one configured problem and write diagnostics and a summary"),
        ("convergence", "sweep grid sizes and tabulate error norms and orders"),
        ("blowup", "another name for run, kept only for the benchmark's corner workload"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out-dir", default=".", help="directory for output files "
                       "(default: the current directory)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if config.mode != args.command:
            raise ConfigError("mode", f"config says {config.mode!r} but the "
                              f"{args.command!r} command was invoked")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_meta(config, out_dir)
    except (OSError, ConfigError) as exc:  # exit 1 is a solver failure's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _retain_freed_heap():
        return _run_command(config, out_dir, args.quiet)


def _run_command(config: RunConfig, out_dir: Path, quiet: bool) -> int:
    """The exit code of the parsed command: 0, or 1 on a solver failure.
    Its own frame, so that the run's result is freed before ``main`` gives
    the heap back."""
    try:
        if config.mode == "convergence":
            rows = run_convergence(config)
            (out_dir / "convergence.csv").write_text(rows_to_csv(rows), encoding="utf-8")
            if not quiet:
                print(emit_table(rows), end="")
            return 1 if any(r.failed for r in rows) else 0
        summary = run_single(config, out_dir)
        if not quiet:
            status = "blow-up detected" if summary["blew_up"] else "reached t_final"
            print(f"{status}: t_halt={summary['t_halt']:.6g} "
                  f"peak_u_max={summary['peak_u_max']:.6g} at t={summary['t_peak']:.6g}")
        return 0
    except (StepSolveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
