"""Benchmark: paper experiments run through the ksbcfd CLI, timed and checked.

    python3 bench/run.py --workload corner_blowup --seed 1 --seconds 10 --trace 0

Run from the repository root.  One process runs one workload: it times
``ksbcfd.cli.main`` in-process on the workload's configuration, in whole
rounds until ``--seconds`` have passed (at least one round), checks every
round's output files, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps each module's public
functions in spans and reports per-layer metrics instead (README.md).
Exits 1 when a check fails and 2 when ksbcfd cannot be found.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the solvers' long-vector
# dot products and norms otherwise run threaded, and the thread count
# changes the corner run's iterates (README.md, "Thread pin").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402  (bench/ is on sys.path as the script's directory)
import spans  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 8  # set-up-only CLI calls per run, half before and half after the rounds


def import_ksbcfd():
    """Import ksbcfd from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "ksbcfd" / "__init__.py").is_file():
        print(f"error: no ksbcfd sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ksbcfd
    import ksbcfd.cli  # noqa: F401  (loads every module the CLI uses)
    if Path(ksbcfd.__file__).resolve().parent != (src / "ksbcfd").resolve():
        print(f"error: ksbcfd was imported from {ksbcfd.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return ksbcfd


def environment_stamp() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    stamp = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    stamp.update({v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    return stamp


def openblas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Marks:
    """Entry times of each grid's set-up and first step, and the steps each
    grid run completed.  Two timestamps and a counter per call, so these
    wrappers stay on in untraced runs."""

    def __init__(self, ksbcfd, clock):
        self.ksbcfd, self.clock = ksbcfd, clock
        self.grids: list[dict] = []
        self.abort_at_first_step = False

    def install(self, stack):
        cli, scheme = self.ksbcfd.cli, self.ksbcfd.scheme
        build_grid, first_step, step_cn = cli.build_grid, scheme.first_step, scheme.step_cn

        def marked_build_grid(*args, **kwargs):
            record = {"start": self.clock(), "first_step": None, "steps": 0}
            self.grids.append(record)
            grid = build_grid(*args, **kwargs)
            record["cells"] = grid.nx * grid.ny
            return grid

        def counted(step):
            def run_step(*args, **kwargs):
                try:
                    result = step(*args, **kwargs)
                except scheme.BlowUpDetected:  # the halting step completed its solves
                    self.grids[-1]["steps"] += 1
                    raise
                self.grids[-1]["steps"] += 1
                return result
            return run_step

        counted_first = counted(first_step)

        def marked_first_step(*args, **kwargs):
            self.grids[-1]["first_step"] = self.clock()
            if self.abort_at_first_step:
                # a set-up probe: end this grid run as a solver failure, which
                # the CLI reports and a sweep skips on to its next grid
                raise scheme.StepSolveError(
                    0, "set-up probe", self.ksbcfd.linalg.SolveReport(False, 0, 1.0, "breakdown"))
            return counted_first(*args, **kwargs)

        spans.install(stack, cli, "build_grid", marked_build_grid)
        spans.install(stack, scheme, "first_step", marked_first_step)
        spans.install(stack, scheme, "step_cn", counted(step_cn))

    def setup_seconds(self, main_start: float) -> float:
        """First grid from the CLI call, later grids from their build."""
        total = 0.0
        for k, g in enumerate(self.grids):
            total += g["first_step"] - (main_start if k == 0 else g["start"])
        return total

    def cell_steps(self) -> int:
        return sum(g["cells"] * g["steps"] for g in self.grids)


def run_cli(ksbcfd, marks, workload, cfg, out_dir, clock):
    """One CLI invocation; returns (exit code, wall seconds, set-up seconds)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    marks.grids.clear()
    t0 = clock()
    code = ksbcfd.cli.main([workload.command, "--config", str(config_path),
                            "--out-dir", str(out_dir), "--quiet"])
    wall = clock() - t0
    return code, wall, marks.setup_seconds(t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ksbcfd = import_ksbcfd()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    print("env: " + json.dumps(environment_stamp(), sort_keys=True), flush=True)

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    clock = spans.clock
    marks = Marks(ksbcfd, clock)
    probe_setups: list[float] = []
    setups: list[float] = []
    walls: list[float] = []
    rates: list[float] = []
    attempted = failed = 0
    correct = True
    tracer = spans.Tracer()
    with contextlib.ExitStack() as stack:
        marks.install(stack)

        def probe_setup():
            # a set-up probe: a CLI call that stops where its first time step starts
            marks.abort_at_first_step = True
            with contextlib.redirect_stderr(io.StringIO()):
                _, _, setup = run_cli(ksbcfd, marks, workload, cfg, run_dir / "probe", clock)
            marks.abort_at_first_step = False
            probe_setups.append(setup)

        for _ in range(SETUP_PROBES // 2):
            probe_setup()
        with contextlib.ExitStack() as traced:
            if args.trace:
                layers.install_layers(traced, tracer, ksbcfd)
            start = clock()
            rounds = 0
            while rounds == 0 or clock() - start < args.seconds:
                out_dir = run_dir / f"round{rounds}"
                code, wall, setup = run_cli(ksbcfd, marks, workload, cfg, out_dir, clock)
                rounds += 1
                try:
                    n, bad = workload.check(code, out_dir, cfg)
                except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                    print(f"check failed: {args.workload} round {rounds}: {exc}", file=sys.stderr)
                    correct = False
                    n, bad = 1, 0
                attempted += n
                failed += bad
                walls.append(wall)
                setups.append(setup)
                rates.append(marks.cell_steps() / (wall - setup))
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):  # half before the rounds, half after
            probe_setup()

    wall = statistics.median(walls)
    setup = statistics.median(probe_setups + setups)
    if args.trace:
        metrics = layers.layer_metrics(tracer, rounds)
        cost = spans.span_cost()
        metrics["trace.spans"] = (len(tracer) / rounds, "count")
        metrics["trace.overhead_s"] = (cost * len(tracer) / rounds, "s")
        metrics["trace.wall_s"] = (wall, "s")
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "cell_steps_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
