from dataclasses import replace

import numpy as np

from ksbcfd.fields import CellField
from ksbcfd.grid import build_random_perturbed, build_uniform, make_grid
from ksbcfd.io import DIAGNOSTIC_COLUMNS, diagnostics_to_csv, field_to_csv, field_to_vtk
from ksbcfd.problems import get_problem
from ksbcfd.scheme import SchemeConfig, StepDiagnostics, run


def small_field():
    g = make_grid(build_uniform(0, 1, 3), build_random_perturbed(0, 1, 4, 0.2, 9))
    rng = np.random.default_rng(17)
    return CellField(g, rng.standard_normal(g.shape))


def test_writers_match_per_value_rendering(tmp_path):
    # 5 x 3 cells on two different perturbed axes, values over many decades
    g = make_grid(build_random_perturbed(0, 1, 5, 0.3, 2), build_random_perturbed(-1, 2, 3, 0.3, 3))
    rng = np.random.default_rng(4)
    values = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
    # a halting level that is not finite is written when its step is a snapshot step
    values[:, 0] = -0.0, 5e-324, np.nan, np.inf, -np.inf
    f = CellField(g, values)
    xs, ys = g.x_axis.centers, g.y_axis.centers
    cells = [(i, j) for j in range(g.ny) for i in range(g.nx)]

    field_to_csv(f, tmp_path / "f.csv")
    expected = "i,j,x,y,value\n" + "".join(
        f"{i},{j},{xs[i]:.17g},{ys[j]:.17g},{values[i, j]:.17g}\n" for i, j in cells)
    assert (tmp_path / "f.csv").read_text() == expected

    field_to_vtk(f, tmp_path / "f.vtk", name="rho")
    expected = (
        "# vtk DataFile Version 3.0\nrho on a staggered cell-centered grid\nASCII\n"
        "DATASET STRUCTURED_GRID\nDIMENSIONS 5 3 1\nPOINTS 15 double\n"
        + "".join(f"{xs[i]:.17g} {ys[j]:.17g} 0\n" for i, j in cells)
        + "POINT_DATA 15\nSCALARS rho double 1\nLOOKUP_TABLE default\n"
        + "".join(f"{values[i, j]:.17g}\n" for i, j in cells)
    )
    assert (tmp_path / "f.vtk").read_text() == expected


def test_field_csv_roundtrip(tmp_path):
    f = small_field()
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x,y,value"
    assert len(lines) == 1 + 3 * 4
    for line in lines[1:]:
        i, j, x, y, v = line.split(",")
        i, j = int(i), int(j)
        assert float(x) == f.grid.x_axis.centers[i]
        assert float(y) == f.grid.y_axis.centers[j]
        assert float(v) == f.values[i, j]


def test_vtk_structure(tmp_path):
    f = small_field()
    path = tmp_path / "f.vtk"
    field_to_vtk(f, path, name="rho")
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_GRID"
    assert lines[4] == "DIMENSIONS 3 4 1"
    assert lines[5] == "POINTS 12 double"
    k = lines.index("LOOKUP_TABLE default")
    values = [float(s) for s in lines[k + 1:k + 13]]
    assert values[0] == f.values[0, 0]
    assert values[1] == f.values[1, 0]  # x varies fastest


def test_diagnostics_csv_shape(tmp_path):
    problem = get_problem("global_existence")
    g = make_grid(build_uniform(0, 1, 8), build_uniform(0, 1, 8))
    result = run(problem, g, SchemeConfig(tau=0.005, t_final=0.02))
    path = tmp_path / "d.csv"
    diagnostics_to_csv(result.diagnostics, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,mass,u_max,u_min,z_max,argmax_i,argmax_j,iters_z,iters_u,"
                        "residual_z,residual_u,block_cells,dz_inf,uniqueness_ok,neg_cells")
    assert lines[0] == ",".join(DIAGNOSTIC_COLUMNS)
    assert len(lines) == 1 + len(result.diagnostics)
    for line, d in zip(lines[1:], result.diagnostics):
        row = dict(zip(DIAGNOSTIC_COLUMNS, line.split(",")))
        assert float(row["t"]) == d.t
        assert float(row["mass"]) == d.mass
        assert float(row["residual_z"]) == d.residual_z
        # a step with no block stops its density solves at the dominant tolerance
        assert float(row["residual_u"]) == d.residual_u <= (1e-12 if d.block_cells else 1e-10)
        assert int(row["block_cells"]) == d.block_cells
        assert int(row["neg_cells"]) == d.neg_cells


def test_diagnostics_row_formats_each_field_by_type(tmp_path):
    d = StepDiagnostics(t=0.1, mass=1.0, u_max=2.0 / 3.0, u_min=-1e-300, z_max=3.0,
                        argmax_i=7, argmax_j=0, iters_z=0, iters_u=12, residual_z=0.0,
                        residual_u=5e-13, block_cells=36, dz_inf=1e20, uniqueness_ok=False,
                        neg_cells=5)
    path = tmp_path / "d.csv"
    diagnostics_to_csv([d, replace(d, uniqueness_ok=True)], path)
    rows = path.read_text().splitlines()[1:]
    assert rows[0] == ("0.10000000000000001,1,0.66666666666666663,-1e-300,3,"
                       "7,0,0,12,0,4.9999999999999999e-13,36,1e+20,0,5")
    assert rows[1].endswith(",1e+20,1,5")
