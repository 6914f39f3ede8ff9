"""Which ksbcfd functions each layer's spans wrap, and the per-layer metrics.

Layers are ksbcfd's modules.  Every span wraps a public function (or a
``Workspace`` method) from outside the program:

    cli.main                    the CLI entry point (root span)
    grid.build                  the grid module's builders
    scheme.run                  scheme.run
    scheme.workspace            Workspace.__init__ (constant-operator assembly)
    scheme.step                 first_step, step_cn
    scheme.u_system             Workspace.u_system (density matrix assembly)
    scheme.rhs                  apply_laplacian, apply_chemotaxis
    scheme.error_norms          error_norms
    fields.grad                 fields.grad
    linalg.cg / .bicgstab / .lu cg, bicgstab, sparse_lu_solve
    problems.forcing            the manufactured forcing callables
    io.snapshot / .diagnostics  field_to_csv, field_to_vtk / diagnostics_to_csv
"""

from __future__ import annotations

import contextlib
import dataclasses
import os

import numpy as np

from spans import Tracer, install

GRID_BUILDERS = ("build_uniform", "build_random_perturbed", "build_middle_refined",
                 "build_corner_refined", "remap_axis", "make_grid")


def _solve_attrs(result, args):
    report = result[1]
    return {"iters": report.iterations, "converged": report.converged}


def _file_attrs(result, args):
    return {"bytes": os.path.getsize(args[1])}


def install_layers(stack: contextlib.ExitStack, tracer: Tracer, ksbcfd) -> None:
    cli, grid, scheme, fields, linalg, io, problems = (
        ksbcfd.cli, ksbcfd.grid, ksbcfd.scheme, ksbcfd.fields, ksbcfd.linalg, ksbcfd.io,
        ksbcfd.problems)

    def span(owner, attr, name, attrs=None):
        install(stack, owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    span(cli, "main", "cli.main")
    for fn in GRID_BUILDERS:
        span(grid, fn, "grid.build")
    span(scheme, "run", "scheme.run")
    span(scheme.Workspace, "__init__", "scheme.workspace")
    span(scheme.Workspace, "u_system", "scheme.u_system")
    span(scheme, "first_step", "scheme.step")
    span(scheme, "step_cn", "scheme.step")
    span(scheme, "apply_laplacian", "scheme.rhs")
    span(scheme, "apply_chemotaxis", "scheme.rhs")
    span(scheme, "error_norms", "scheme.error_norms")
    span(fields, "grad", "fields.grad")
    span(linalg, "cg", "linalg.cg", _solve_attrs)
    span(linalg, "bicgstab", "linalg.bicgstab", _solve_attrs)
    span(linalg, "sparse_lu_solve", "linalg.lu", _solve_attrs)
    span(io, "field_to_csv", "io.snapshot", _file_attrs)
    span(io, "field_to_vtk", "io.snapshot", _file_attrs)
    span(io, "diagnostics_to_csv", "io.diagnostics")

    get_problem = problems.get_problem

    def traced_problem(name):
        spec = get_problem(name)
        if spec.forcing is None:
            return spec
        forcing = problems.Forcing(
            f_rho=tracer.wrap("problems.forcing", spec.forcing.f_rho),
            f_c=tracer.wrap("problems.forcing", spec.forcing.f_c),
        )
        return dataclasses.replace(spec, forcing=forcing)

    install(stack, problems, "get_problem", traced_problem)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a per-round figure: (value, unit)."""
    dur = tracer.durations()
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(idx)

    def calls(name):
        return len(by_name.get(name, ())) / rounds

    def seconds(name):
        return sum(dur[i] for i in tracer.outermost(name)) / rounds

    def attr_sum(name, key):
        return sum(tracer.attrs[i][key] for i in by_name.get(name, ()))

    out: dict[str, tuple[float, str]] = {
        "grid.build.s": (seconds("grid.build"), "s"),
        "scheme.workspace.s": (seconds("scheme.workspace"), "s"),
    }
    steps = [dur[i] for i in by_name.get("scheme.step", ())]
    out["scheme.step.calls"] = (calls("scheme.step"), "count")
    out["scheme.step.p50_s"] = (float(np.percentile(steps, 50)) if steps else 0.0, "s")
    out["scheme.step.p90_s"] = (float(np.percentile(steps, 90)) if steps else 0.0, "s")
    out["scheme.step.self_s"] = (sum(own[i] for i in by_name.get("scheme.step", ())) / rounds, "s")
    for layer in ("scheme.u_system", "scheme.rhs", "scheme.error_norms"):
        out[f"{layer}.s"] = (seconds(layer), "s")
    out["fields.grad.calls"] = (calls("fields.grad"), "count")
    out["fields.grad.s"] = (seconds("fields.grad"), "s")
    for solver in ("cg", "bicgstab"):
        name = f"linalg.{solver}"
        n, iters, s = calls(name), attr_sum(name, "iters") / rounds, seconds(name)
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.iters"] = (iters, "count")
        out[f"{name}.iters_per_call"] = (iters / n if n else 0.0, "iter/call")
        out[f"{name}.s"] = (s, "s")
        out[f"{name}.us_per_iter"] = (1e6 * s / iters if iters else 0.0, "us")
    stalled = [i for i in by_name.get("linalg.bicgstab", ()) if not tracer.attrs[i]["converged"]]
    out["linalg.bicgstab.unconverged"] = (len(stalled) / rounds, "count")
    out["linalg.bicgstab.wasted_iters"] = (
        sum(tracer.attrs[i]["iters"] for i in stalled) / rounds, "count")
    out["linalg.lu.calls"] = (calls("linalg.lu"), "count")
    out["linalg.lu.s"] = (seconds("linalg.lu"), "s")
    out["problems.forcing.calls"] = (calls("problems.forcing"), "count")
    out["problems.forcing.s"] = (seconds("problems.forcing"), "s")
    out["io.snapshot.calls"] = (calls("io.snapshot"), "count")
    out["io.snapshot.s"] = (seconds("io.snapshot"), "s")
    out["io.snapshot.mb"] = (attr_sum("io.snapshot", "bytes") / 1e6 / rounds, "MB")
    out["io.diagnostics.s"] = (seconds("io.diagnostics"), "s")
    out["cli.self.s"] = (sum(own[i] for i in by_name.get("cli.main", ())) / rounds, "s")
    return out
