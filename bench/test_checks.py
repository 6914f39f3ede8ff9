"""Each benchmark check passes a sound input and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py

The inputs are synthetic: exact Gaussian samples, the published error table
and hand-made diagnostics, so these tests do not run the solver.
"""

import json
import math

import numpy as np
import pytest

import checks
import workloads
from checks import CheckError


def sampled_gaussian(family, m, amp, k, x0, y0, domain):
    x_lo, x_hi, y_lo, y_hi = domain
    px = checks.primal_points(family, m, x_lo, x_hi)
    py = checks.primal_points(family, m, y_lo, y_hi)
    cx, cy = (px[1:] + px[:-1]) / 2, (py[1:] + py[:-1]) / 2
    values = amp * np.exp(-k * ((cx[:, None] - x0) ** 2 + (cy[None, :] - y0) ** 2))
    return values, np.diff(px), np.diff(py)


def write_run(out_dir, cfg, values, wx, wy, steps, u_max):
    """A run's files as the CLI writes them, with the mass held constant."""
    mass = float(np.sum(np.outer(wx, wy) * values))
    with open(out_dir / "diagnostics.csv", "w", encoding="utf-8") as f:
        f.write("t,mass,u_max,u_min,z_max,argmax_i,argmax_j,iters_z,iters_u,dz_inf,uniqueness_ok\n")
        for n in range(1, steps + 1):
            f.write(f"{n * cfg['tau']!r},{mass!r},{u_max[n - 1]:.17g},0,1,0,0,1,1,1,1\n")
    m = values.shape[0]
    for n in workloads.snapshot_steps(cfg):
        for name in ("rho", "c"):
            with open(out_dir / f"snapshot_{name}_{n:06d}.csv", "w", encoding="utf-8") as f:
                f.write("i,j,x,y,value\n")
                for j in range(m):
                    for i in range(m):
                        f.write(f"{i},{j},0,0,{values[i, j]:.17g}\n")


def subcritical_run(tmp_path):
    cfg = workloads.subcritical_config(seed=3)
    cfg["outputs"]["snapshot_times"] = cfg["outputs"]["snapshot_times"][:2]
    values, wx, wy = sampled_gaussian("uniform", workloads.SUB_M, **workloads.SUB_GAUSSIAN)
    steps = workloads.SUB_STEPS
    u_max = 50.0 + np.sin(np.linspace(0.1, 3.0, steps))  # rises, then decays
    write_run(tmp_path, cfg, values, wx, wy, steps, u_max)
    return cfg


# ---- mass drift -------------------------------------------------------------

def test_mass_drift_accepts_roundoff():
    assert checks.check_mass_drift([24.0, 24.0 * (1 + 1e-12), 24.0]) < 1e-11


def test_mass_drift_rejects_1e8():
    with pytest.raises(CheckError, match="drift"):
        checks.check_mass_drift([24.0, 24.0, 24.0 * (1 + 1e-8)])


# ---- initial mass against the exact integral ---------------------------------

@pytest.mark.parametrize("family,m,gaussian", [
    ("uniform", workloads.SUB_M, workloads.SUB_GAUSSIAN),
    ("corner", workloads.CORNER_M, workloads.CORNER_GAUSSIAN),
])
def test_initial_mass_within_midpoint_bound(family, m, gaussian):
    values, wx, wy = sampled_gaussian(family, m, **gaussian)
    mass = float(np.sum(np.outer(wx, wy) * values))
    h_max = max(wx.max(), wy.max())
    checks.check_initial_mass(mass, h_max=h_max, **gaussian)
    with pytest.raises(CheckError, match="midpoint"):
        checks.check_initial_mass(mass * 1.01, h_max=h_max, **gaussian)


def test_gaussian_mass_matches_quadrature():
    g = workloads.SUB_GAUSSIAN
    values, wx, wy = sampled_gaussian("uniform", 2000, **g)
    assert math.isclose(np.sum(np.outer(wx, wy) * values), checks.gaussian_mass(**g), rel_tol=1e-6)


# ---- convergence sweep -------------------------------------------------------

def published_rows():
    """The published table; where it gives no value, a quarter of the row above."""
    rows = []
    for m in workloads.SWEEP_M:
        e = checks.PUBLISHED_UNIFORM[m]
        prev = rows[-1] if rows else None
        rows.append({"m": m, **{key: prev[key] / 4 if want is None else want
                                for key, want in zip(("e_rho", "e_c", "e_gradc"), e)}})
    return rows


def test_sweep_accepts_published_table():
    checks.check_sweep(published_rows())


def test_sweep_rejects_order_1_5():
    rows = published_rows()
    rows[-1]["e_rho"] = rows[-2]["e_rho"] / 2 ** 1.5  # still within a factor 2 of the table
    with pytest.raises(CheckError, match="order 1.500"):
        checks.check_sweep(rows)


def test_sweep_rejects_error_off_table():
    rows = published_rows()
    rows[0]["e_c"] *= 2.5
    with pytest.raises(CheckError, match="factor 2"):
        checks.check_sweep(rows)


def test_sweep_workload_reads_failed_rows(tmp_path):
    lines = ["M,e_rho,order_rho,e_c,order_c,e_gradc,order_gradc,failed"]
    for r in published_rows():
        lines.append(f"{r['m']},{r['e_rho']:.17g},,{r['e_c']:.17g},,{r['e_gradc']:.17g},,0")
    lines[1] = "10,nan,,nan,,nan,,1"
    (tmp_path / "convergence.csv").write_text("\n".join(lines) + "\n")
    cfg = workloads.sweep_config(seed=0)
    assert workloads.check_sweep(1, tmp_path, cfg) == (len(workloads.SWEEP_M), 1)
    with pytest.raises(CheckError, match="exit code"):
        workloads.check_sweep(0, tmp_path, cfg)


# ---- snapshots against the diagnostics ---------------------------------------

def test_subcritical_run_passes(tmp_path):
    assert workloads.check_subcritical(0, tmp_path, subcritical_run(tmp_path)) == (1, 0)


def test_snapshot_mass_disagreeing_with_diagnostics_is_rejected(tmp_path):
    cfg = subcritical_run(tmp_path)
    n = workloads.snapshot_steps(cfg)[-1]
    path = tmp_path / f"snapshot_rho_{n:06d}.csv"
    lines = path.read_text().splitlines()
    i, j, x, y, value = lines[1 + 40 * 80 + 40].split(",")
    lines[1 + 40 * 80 + 40] = ",".join([i, j, x, y, repr(float(value) * (1 + 1e-6))])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="snapshot mass"):
        workloads.check_subcritical(0, tmp_path, cfg)


def test_subcritical_without_decay_is_rejected(tmp_path):
    cfg = subcritical_run(tmp_path)
    path = tmp_path / "diagnostics.csv"
    d = workloads.read_diagnostics(path)
    rows = path.read_text().splitlines()
    last = rows[-1].split(",")
    last[2] = repr(float(d["u_max"].max()) + 1.0)
    rows[-1] = ",".join(last)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckError, match="rise and then decay"):
        workloads.check_subcritical(0, tmp_path, cfg)


def test_negative_density_is_rejected():
    checks.check_positivity([0.0, -1e-9])
    with pytest.raises(CheckError, match="u_min"):
        checks.check_positivity([0.0, -1e-6])


def test_vtk_snapshot_round_trip(tmp_path):
    values = np.arange(12.0).reshape(3, 4)
    lines = ["# vtk DataFile Version 3.0", "x", "ASCII", "DATASET STRUCTURED_GRID",
             "DIMENSIONS 3 4 1", "POINTS 12 double"] + ["0 0 0"] * 12
    lines += ["POINT_DATA 12", "SCALARS rho double 1", "LOOKUP_TABLE default"]
    lines += [f"{values[i, j]:.17g}" for j in range(4) for i in range(3)]
    (tmp_path / "s.vtk").write_text("\n".join(lines) + "\n")
    assert np.array_equal(workloads.read_snapshot(tmp_path / "s.vtk", (3, 4)), values)


# ---- corner halt -------------------------------------------------------------

def corner_series():
    t = np.arange(1, 165) * 1e-3
    return t, np.where(t < 0.16, 1000.0, np.geomspace(2e4, 2e8, t.size))  # passes 1e4 at 0.16


def test_corner_halt_accepts_threshold_halt():
    t, u_max = corner_series()
    assert checks.check_corner_halt(True, t, u_max, (179, 178), (180, 180)) == pytest.approx(0.16)


def test_corner_reaching_t_final_is_rejected():
    t, u_max = corner_series()
    with pytest.raises(CheckError, match="did not halt"):
        checks.check_corner_halt(False, t, u_max, (179, 179), (180, 180))


def test_corner_peak_away_from_corner_is_rejected():
    t, u_max = corner_series()
    with pytest.raises(CheckError, match="argmax"):
        checks.check_corner_halt(True, t, u_max, (176, 179), (180, 180))


def test_corner_early_crossing_is_rejected():
    t, u_max = corner_series()
    u_max[100] = 2e4
    with pytest.raises(CheckError, match=r"\[0.13, 0.18\]"):
        checks.check_corner_halt(True, t, u_max, (179, 179), (180, 180))


def test_corner_workload_fails_the_operation_on_solver_error(tmp_path):
    assert workloads.check_corner(1, tmp_path, workloads.corner_config(0)) == (1, 1)
    with pytest.raises(CheckError, match="exited with 2"):
        workloads.check_corner(2, tmp_path, workloads.corner_config(0))


def test_configs_are_valid_json_and_depend_on_seed_only_where_stated():
    for name, wl in workloads.WORKLOADS.items():
        assert json.loads(json.dumps(wl.config(5))) == wl.config(5)
    assert workloads.sweep_config(1) == workloads.sweep_config(2)
    for seed, first in ((0, 1), (42, 43), (98, 99), (99, 1)):
        steps = workloads.snapshot_steps(workloads.subcritical_config(seed))
        assert steps == [first + 100 * k for k in range(10)]
