import csv
import io
import json

import numpy as np
import pytest

from ksbcfd import cli, linalg, scheme
from ksbcfd.cli import (
    ConfigError,
    ConvergenceRow,
    _observed_order,
    build_grid,
    emit_table,
    main,
    parse_config,
    rows_to_csv,
    run_convergence,
)
from ksbcfd.io import diagnostics_to_csv
from ksbcfd.linalg import SolveReport
from ksbcfd.problems import get_problem
from ksbcfd.scheme import StepSolveError

MINIMAL_RUN = {
    "problem": "global_existence",
    "mode": "run",
    "grid": {"family": "uniform", "m": 8},
    "tau": 0.01,
    "t_final": 0.02,
}


MINIMAL_SWEEP = {
    "problem": "mms_accuracy",
    "mode": "convergence",
    "grid": {"family": "uniform", "m_values": [4, 8]},
    "t_final": 0.5,
}


def read_table(text):
    """The rows of a convergence CSV; an empty order cell reads as None."""
    rows = []
    for record in csv.DictReader(io.StringIO(text)):
        m, failed = int(record.pop("M")), record.pop("failed") == "1"
        rows.append(ConvergenceRow(m=m, failed=failed,
                                   **{k: None if v == "" else float(v) for k, v in record.items()}))
    return rows


def cfg_text(**overrides):
    doc = dict(MINIMAL_RUN)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL_RUN))
        assert cfg.blowup_threshold == 1e12
        assert cfg.outputs.snapshot_times == ()
        assert cfg.outputs.snapshot_format == "csv"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(cfg_text(bogus=1))
        with pytest.raises(ConfigError, match="grid.extra"):
            parse_config(cfg_text(grid={"family": "uniform", "m": 8, "extra": 2}))

    def test_beta_requires_random_family(self):
        with pytest.raises(ConfigError, match="grid.beta"):
            parse_config(cfg_text(grid={"family": "uniform", "m": 8, "beta": 0.2}))

    def test_beta_range(self):
        with pytest.raises(ConfigError, match="grid.beta"):
            parse_config(cfg_text(grid={"family": "random", "m": 8, "beta": 0.6}))
        cfg = parse_config(cfg_text(grid={"family": "random", "m": 8, "beta": 0.5}))
        assert cfg.grid.beta == 0.5
        assert cfg.grid.beta_effective < 0.5  # clamped inside the open bound

    def test_m_constraints(self):
        with pytest.raises(ConfigError, match="m >= 4"):
            parse_config(cfg_text(grid={"family": "uniform", "m": 3}))
        with pytest.raises(ConfigError, match="even"):
            parse_config(cfg_text(grid={"family": "middle", "m": 9}))

    def test_time_parameters_positive_and_finite(self):
        for key in ("tau", "t_final"):
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ConfigError, match=key):
                    parse_config(cfg_text(**{key: bad}))

    def test_snapshot_times_must_lie_on_a_step_of_the_run(self):
        # tau = 0.01 and t_final = 0.02: the steps are 0, 1 and 2
        for bad in ([-0.02, 0.01], [0.01, 0.5], [0.03], [float("nan")], [-0.004], [0.024],
                    [0.0149, 0.006, 0.01]):  # between steps, though each rounds to one
            with pytest.raises(ConfigError, match="outputs.snapshot_times"):
                parse_config(cfg_text(outputs={"snapshot_times": bad}))
        # judged as t_final is: 0.07 - 0.06 is step 1 up to division noise
        cfg = parse_config(cfg_text(outputs={"snapshot_times": [0.0, 0.07 - 0.06, 0.02]}))
        assert cfg.outputs.snapshot_times == (0.0, 0.07 - 0.06, 0.02)

    def test_outputs_keys_the_mode_does_not_read_rejected(self):
        for key, value in (("snapshot_times", [0.0]), ("snapshot_format", "vtk")):
            with pytest.raises(ConfigError, match=f"outputs.{key}: not read in convergence mode"):
                parse_config(json.dumps(dict(MINIMAL_SWEEP, outputs={key: value})))

    def test_outputs_keys_each_mode_reads_accepted(self):
        keys = {"snapshot_times": [0.0], "snapshot_format": "vtk"}
        for doc in (MINIMAL_RUN, dict(MINIMAL_RUN, mode="blowup")):
            cfg = parse_config(json.dumps(dict(doc, outputs=keys)))
            assert cfg.outputs.snapshot_times == (0.0,)
            assert cfg.outputs.snapshot_format == "vtk"

    def test_convergence_mode_shape(self):
        text = json.dumps({
            "problem": "mms_accuracy",
            "mode": "convergence",
            "grid": {"family": "uniform", "m_values": [10, 20, 40, 80]},
            "t_final": 1.0,
        })
        cfg = parse_config(text)
        assert cfg.grid.m_values == (10, 20, 40, 80)
        assert cfg.tau is None

    def test_convergence_rejects_tau_and_m(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config(json.dumps({
                "problem": "mms_accuracy", "mode": "convergence",
                "grid": {"family": "uniform", "m_values": [10]},
                "tau": 0.1, "t_final": 1.0,
            }))
        with pytest.raises(ConfigError, match="grid.m"):
            parse_config(json.dumps({
                "problem": "mms_accuracy", "mode": "convergence",
                "grid": {"family": "uniform", "m": 10},
                "t_final": 1.0,
            }))

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem"):
            parse_config(cfg_text(problem="nope"))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{nope")


class TestGridBuild:
    def test_middle_family_matches_canonical_domain(self):
        problem = get_problem("blowup_center")
        cfg = parse_config(json.dumps({
            "problem": "blowup_center", "mode": "run",
            "grid": {"family": "middle", "m": 8},
            "tau": 1e-6, "t_final": 1e-5,
        }))
        grid = build_grid(problem, cfg.grid, 8)
        assert grid.nx == 10  # nominal m plus the two formula endpoints
        assert grid.x_axis.lo == 0.0 and grid.x_axis.hi == 1.0

    def test_corner_family(self):
        problem = get_problem("blowup_corner")
        cfg = parse_config(json.dumps({
            "problem": "blowup_corner", "mode": "run",
            "grid": {"family": "corner", "m": 10},
            "tau": 1e-3, "t_final": 1e-2,
        }))
        grid = build_grid(problem, cfg.grid, 10)
        assert grid.x_axis.lo == -0.5 and grid.x_axis.hi == 0.5

    def test_random_axes_use_independent_subseeds(self):
        problem = get_problem("global_existence")
        cfg = parse_config(cfg_text(grid={"family": "random", "m": 12, "beta": 0.3, "seed": 5}))
        grid = build_grid(problem, cfg.grid, 12)
        assert not np.array_equal(grid.x_axis.primal, grid.y_axis.primal)


class TestOrdersAndTables:
    def test_exact_quadratic_error_model(self):
        # e = C h^2 must give order 2.00 up to rounding
        c = 3.7
        assert abs(_observed_order(c / 10**2, c / 20**2, 10, 20) - 2.0) <= 1e-12
        assert abs(_observed_order(c / 20**2, c / 40**2, 20, 40) - 2.0) <= 1e-12

    def test_emit_single_row(self):
        rows = [ConvergenceRow(m=10, e_rho=3.3e-4, e_c=3.3e-4, e_gradc=4.7e-5)]
        text = emit_table(rows)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "3.30e-04" in lines[1] and "--" in lines[1]

    def test_emit_empty_is_header_only(self):
        assert len(emit_table([]).splitlines()) == 1

    def test_csv_roundtrip_of_table_shaped_block(self):
        rows = [
            ConvergenceRow(m=10, e_rho=3.30e-4, e_c=3.34e-4, e_gradc=4.73e-5),
            ConvergenceRow(m=20, e_rho=8.30e-5, e_c=8.36e-5, e_gradc=1.18e-5,
                           order_rho=1.99, order_c=2.00, order_gradc=1.99),
            ConvergenceRow(m=40, e_rho=2.07e-5, e_c=2.09e-5, e_gradc=2.97e-6,
                           order_rho=2.00, order_c=2.00, order_gradc=2.00),
            ConvergenceRow(m=80, e_rho=5.20e-6, e_c=5.23e-6, e_gradc=7.42e-7,
                           order_rho=2.00, order_c=2.00, order_gradc=2.00),
            ConvergenceRow(m=160, e_rho=1.30e-6, e_c=1.31e-6, e_gradc=1.86e-7,
                           order_rho=2.00, order_c=2.00, order_gradc=2.00),
        ]
        assert read_table(rows_to_csv(rows)) == rows

    def test_single_m_sweep_has_no_orders(self):
        cfg = parse_config(json.dumps({
            "problem": "mms_accuracy", "mode": "convergence",
            "grid": {"family": "uniform", "m_values": [10]},
            "t_final": 1.0,
        }))
        rows = run_convergence(cfg)
        assert len(rows) == 1
        assert rows[0].order_rho is None and not rows[0].failed

    def test_convergence_requires_exact_solution(self):
        with pytest.raises(ConfigError, match="exact solution"):
            parse_config(json.dumps({
                "problem": "global_existence", "mode": "convergence",
                "grid": {"family": "uniform", "m_values": [10]},
                "t_final": 1.0,
            }))


class TestMainCommand:
    def write(self, tmp_path, doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return p

    def test_run_success_and_outputs(self, tmp_path, capsys):
        doc = dict(MINIMAL_RUN)
        doc["outputs"] = {"snapshot_times": [0.0, 0.02], "snapshot_format": "csv"}
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnostics.csv", "meta.json", "snapshot_c_000000.csv", "snapshot_c_000002.csv",
            "snapshot_rho_000000.csv", "snapshot_rho_000002.csv", "summary.json"]
        assert capsys.readouterr().out.startswith("reached t_final: t_halt=0.02 ")

    @pytest.mark.filterwarnings("error")
    def test_run_that_breaks_the_solvability_bound_prints_nothing_to_stderr(self, tmp_path,
                                                                           capsys):
        # the smoke configuration breaks the advisory bound from step 1:
        # uniqueness_ok records it, and the command neither warns nor prints
        out = tmp_path / "out"
        assert main(["run", "--config", str(self.write(tmp_path, MINIMAL_RUN)),
                     "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "diagnostics.csv", newline="") as f:
            assert [row["uniqueness_ok"] for row in csv.DictReader(f)] == ["0", "0"]

    def test_out_of_range_snapshot_time_exits_2(self, tmp_path, capsys):
        doc = dict(MINIMAL_RUN, outputs={"snapshot_times": [0.01, 0.5]})
        out = tmp_path / "out"
        assert main(["run", "--config", str(self.write(tmp_path, doc)),
                     "--out-dir", str(out)]) == 2
        assert "outputs.snapshot_times" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_times_in_a_sweep_exit_2(self, tmp_path, capsys):
        doc = dict(MINIMAL_SWEEP, outputs={"snapshot_times": [0.25, 7.0]})
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(self.write(tmp_path, doc)),
                     "--out-dir", str(out)]) == 2
        assert "outputs.snapshot_times: not read in convergence mode" in capsys.readouterr().err
        assert not out.exists()

    def test_vtk_snapshot_header(self, tmp_path):
        doc = dict(MINIMAL_RUN)
        doc["outputs"] = {"snapshot_times": [0.01], "snapshot_format": "vtk"}
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        text = (out / "snapshot_rho_000001.vtk").read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert "DATASET STRUCTURED_GRID" in text
        assert "DIMENSIONS 8 8 1" in text

    def test_reruns_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out1), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg), "--out-dir", str(out2), "--quiet"]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "meta.json").read_bytes() == (out2 / "meta.json").read_bytes()

    def test_wrapped_solvers_in_a_script_match_the_command(self, tmp_path, monkeypatch):
        # a short corner blow-up through the command, then through scheme.run
        # with the solvers wrapped in counters, as a profiler or tracer wraps
        # them: the two diagnostics files are byte-equal at any one BLAS
        # thread count, which both flows share in one process
        doc = {"problem": "blowup_corner", "mode": "run",
               "grid": {"family": "corner", "m": 40}, "tau": 1e-3, "t_final": 0.03}
        out = tmp_path / "command"
        assert main(["run", "--config", str(self.write(tmp_path, doc)),
                     "--out-dir", str(out), "--quiet"]) == 0
        calls = dict.fromkeys(("bicgstab", "_bicgstab_sweep"), 0)
        for name in calls:
            def counted(*args, _solver=getattr(linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)
            monkeypatch.setattr(linalg, name, counted)
        problem = get_problem(doc["problem"])
        grid = build_grid(problem, parse_config(json.dumps(doc)).grid, 40)
        config = scheme.SchemeConfig(tau=1e-3, t_final=0.03)
        diagnostics_to_csv(scheme.run(problem, grid, config).diagnostics, tmp_path / "script.csv")
        assert calls["bicgstab"] == 31 and calls["_bicgstab_sweep"] >= 31  # predictor + 30 steps
        assert (tmp_path / "script.csv").read_bytes() == (out / "diagnostics.csv").read_bytes()

    def test_failed_run_keeps_its_diagnostics(self, tmp_path, monkeypatch, capsys):
        cfg = self.write(tmp_path, dict(MINIMAL_RUN, t_final=0.05))
        whole, failed = tmp_path / "whole", tmp_path / "failed"
        assert main(["run", "--config", str(cfg), "--out-dir", str(whole), "--quiet"]) == 0
        solve = scheme._solve_density

        def failing_at_step_4(*args, step, **kwargs):
            if step == 4:
                raise StepSolveError(step, "density", SolveReport(False, 0, 1.0, "breakdown"))
            return solve(*args, step=step, **kwargs)

        monkeypatch.setattr(scheme, "_solve_density", failing_at_step_4)
        assert main(["run", "--config", str(cfg), "--out-dir", str(failed), "--quiet"]) == 1
        assert "density solve failed at step 4" in capsys.readouterr().err
        rows = (failed / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 1 + 3
        assert rows == (whole / "diagnostics.csv").read_text().splitlines()[:4]

    @pytest.mark.parametrize("doc, error", [
        (dict(MINIMAL_RUN, problem="nope"), "problem: "),
        (dict(MINIMAL_RUN, grid={"family": "random", "m": 8, "beta": 0.2, "seed": -1}),
         "grid.seed: "),
        (dict(MINIMAL_RUN, tau=0.03, t_final=0.1), "t_final: "),  # 3.33 steps
        (dict(MINIMAL_SWEEP, t_final=0.3), "t_final: "),  # 1.2 steps of tau = 1/4
        (dict(MINIMAL_SWEEP, grid={"family": "uniform", "m_values": [4, 4]}), "grid.m_values: "),
        (dict(MINIMAL_RUN, outputs={"snapshot_times": [0.0149, 0.006, 0.01]}),
         "outputs.snapshot_times: "),  # between steps 1 and 2, and 0 and 1
        (dict(MINIMAL_RUN, uniqueness_monitor=False), "uniqueness_monitor: "),  # no such key
        (dict(MINIMAL_RUN, solver_tol=1e-6), "solver_tol: "),  # no such key
        # the output file names are fixed, and no key names one
        (dict(MINIMAL_RUN, outputs={"diagnostics": ""}), "outputs.diagnostics: unknown key\n"),
        (dict(MINIMAL_RUN, outputs={"diagnostics": "meta.json"}),
         "outputs.diagnostics: unknown key\n"),
        (dict(MINIMAL_RUN, mode="blowup", outputs={"summary": "nosuch/s.json"}),
         "outputs.summary: unknown key\n"),
        (dict(MINIMAL_SWEEP, outputs={"table": "convergence.csv"}),
         "outputs.table: unknown key\n"),
    ], ids=["unknown_problem", "negative_seed", "run_step_count", "sweep_step_count",
            "repeated_size", "snapshot_between_steps", "monitor_switch", "solver_tol",
            "empty_output_name", "output_name_meta", "output_name_in_a_subdirectory",
            "output_name_table"])
    def test_config_fault_exits_2_before_any_output(self, tmp_path, capsys, doc, error):
        out = tmp_path / "out"
        assert main([doc["mode"], "--config", str(self.write(tmp_path, doc)),
                     "--out-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, dict(MINIMAL_RUN, bogus=1))
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_mode_mismatch_rejected(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL_RUN)
        assert main(["blowup", "--config", str(cfg), "--quiet"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--quiet"]) == 2

    def test_unusable_out_dir_exits_2(self, tmp_path, capsys):
        # a path under a regular file can be neither created nor written
        cfg = self.write(tmp_path, MINIMAL_RUN)
        assert main(["run", "--config", str(cfg), "--out-dir", str(cfg / "sub"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]

    def test_out_dir_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        cfg = self.write(tmp_path, MINIMAL_RUN)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--quiet"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "diagnostics.csv", "meta.json", "summary.json"]

    def test_blowup_summary_and_exit_zero(self, tmp_path):
        doc = {
            "problem": "blowup_center",
            "mode": "run",
            "grid": {"family": "middle", "m": 16},
            "tau": 1e-5,
            "t_final": 2e-3,
            "blowup_threshold": 2e3,
        }
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        # a detected blow-up is a normal terminal outcome, not a failure
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blew_up"] is True
        assert summary["peak_u_max"] > 2e3
        assert summary["t_halt"] == summary["blow_up_time"]
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnostics.csv", "meta.json", "summary.json"]

    @pytest.mark.parametrize("failure, code, files", [
        (None, 0, ["diagnostics.csv", "meta.json", "summary.json"]),
        (lambda: StepSolveError(1, "density", SolveReport(False, 0, 1.0, "breakdown")), 1,
         ["diagnostics.csv", "meta.json"]),
        (lambda: ValueError("no level"), 1, ["meta.json"]),
        (lambda: RuntimeError("interrupted"), None, ["meta.json"]),
    ], ids=["exit_0", "solver_failure", "value_error", "raised"])
    def test_every_exit_gives_the_heap_back_once_its_files_are_written(
            self, tmp_path, monkeypatch, failure, code, files):
        # glibc stands replaced by a recorder: the command sets both
        # thresholds before it runs, and trims the heap exactly once, after
        # its last file, however it ends
        out = tmp_path / "out"
        calls = []

        class Recorder:
            def mallopt(self, param, value):
                calls.append(("mallopt", param, value))

            def malloc_trim(self, pad):
                calls.append(("malloc_trim", pad, sorted(p.name for p in out.iterdir())))

        monkeypatch.setattr(cli, "_glibc", Recorder)
        if failure is not None:
            def failing(*args, **kwargs):
                raise failure()
            monkeypatch.setattr(scheme, "first_step", failing)
        doc = {"problem": "blowup_corner", "mode": "run",
               "grid": {"family": "corner", "m": 16}, "tau": 1e-3, "t_final": 0.05,
               "blowup_threshold": 1e3}
        argv = ["run", "--config", str(self.write(tmp_path, doc)), "--out-dir", str(out),
                "--quiet"]
        if code is None:
            with pytest.raises(RuntimeError, match="interrupted"):
                main(argv)
        else:
            assert main(argv) == code
        assert calls == [("mallopt", cli._M_MMAP_THRESHOLD, 32 << 20),
                         ("mallopt", cli._M_TRIM_THRESHOLD, 64 << 20),
                         ("malloc_trim", cli._TRIM_PAD, files)]
        if failure is None:
            assert json.loads((out / "summary.json").read_text())["blew_up"] is True

    def test_blowup_mass_drift_counts_the_first_step(self, tmp_path):
        # one step: the only drift is the first step's, from the level-0
        # mass sum(W u^0), which no diagnostics row holds
        doc = {
            "problem": "global_existence",
            "mode": "run",
            "grid": {"family": "uniform", "m": 8},
            "tau": 0.01,
            "t_final": 0.01,
        }
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = list(csv.DictReader(io.StringIO((out / "diagnostics.csv").read_text())))
        assert summary["steps"] == len(rows) == 1
        problem = get_problem("global_existence")
        u0 = scheme.init_state(problem, build_grid(problem, parse_config(json.dumps(doc)).grid,
                                                   8)).u_curr
        mass0 = float(np.sum(u0.grid.cell_areas * u0.values))
        drift = abs(float(rows[0]["mass"]) - mass0) / mass0
        assert summary["max_relative_mass_drift"] == drift > 0.0

    def test_blowup_is_run_by_another_name(self, tmp_path, capsys):
        # a short corner march with VTK snapshots, once per sub-command: the
        # files are the same bytes, and meta.json differs only in its mode
        doc = {"problem": "blowup_corner", "mode": "run",
               "grid": {"family": "corner", "m": 16}, "tau": 1e-3, "t_final": 0.02,
               "outputs": {"snapshot_times": [0.0, 0.01], "snapshot_format": "vtk"}}
        printed = []
        for mode in ("run", "blowup"):
            cfg = self.write(tmp_path, dict(doc, mode=mode), f"{mode}.json")
            assert main([mode, "--config", str(cfg), "--out-dir", str(tmp_path / mode)]) == 0
            printed.append(capsys.readouterr().out)
        run_dir, blowup_dir = tmp_path / "run", tmp_path / "blowup"
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == sorted(p.name for p in blowup_dir.iterdir()) == [
            "diagnostics.csv", "meta.json", "snapshot_c_000000.vtk", "snapshot_c_000010.vtk",
            "snapshot_rho_000000.vtk", "snapshot_rho_000010.vtk", "summary.json"]
        for name in names:
            if name != "meta.json":
                assert (run_dir / name).read_bytes() == (blowup_dir / name).read_bytes(), name
        meta_run, meta_blowup = (json.loads((d / "meta.json").read_text())
                                 for d in (run_dir, blowup_dir))
        assert (meta_run.pop("mode"), meta_blowup.pop("mode")) == ("run", "blowup")
        assert meta_run == meta_blowup
        assert printed[0] == printed[1]
        assert printed[0].startswith("reached t_final: t_halt=0.02 ")

    def test_convergence_command_table(self, tmp_path, capsys):
        doc = {
            "problem": "mms_accuracy",
            "mode": "convergence",
            "grid": {"family": "uniform", "m_values": [10, 20]},
            "t_final": 1.0,
        }
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_table((out / "convergence.csv").read_text())
        assert [r.m for r in rows] == [10, 20]
        assert rows[1].order_rho == pytest.approx(2.0, abs=0.1)
        assert "rho_error" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["convergence.csv", "meta.json"]

    def test_random_grid_meta_records_seeds(self, tmp_path):
        doc = dict(MINIMAL_RUN)
        doc["grid"] = {"family": "random", "m": 8, "beta": 0.5, "seed": 11}
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["grid"]["seed"] == 11
        assert meta["grid"]["beta"] == 0.5
        assert meta["grid"]["beta_effective"] < 0.5
        assert "subseed_x" in meta["grid"] and "subseed_y" in meta["grid"]
