"""CSV and legacy-VTK serialization of fields and diagnostics.

Floats are written with repr-grade precision (%.17g) so reruns with
identical inputs produce byte-identical files and values round-trip exactly.
Cell indices in field CSVs are 0-based.  The columns of a diagnostics CSV
are the fields of ``StepDiagnostics``, in order: a float field is written
at %.17g, an int or bool field as an integer.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, get_type_hints

from .fields import CellField
from .scheme import StepDiagnostics

__all__ = [
    "field_to_csv",
    "field_to_vtk",
    "diagnostics_to_csv",
    "DIAGNOSTIC_COLUMNS",
]

DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(StepDiagnostics))

_TYPES = get_type_hints(StepDiagnostics)
_DIAGNOSTIC_ROW = ",".join("{:.17g}" if _TYPES[name] is float else "{:d}"
                           for name in DIAGNOSTIC_COLUMNS) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# The field writers format one grid row (fixed j, all i) per ``write``, so a
# file is never held in memory whole.


def field_to_csv(field: CellField, path) -> None:
    """Write one row per cell: i, j, x, y, value."""
    xs = [_fmt(x) for x in field.grid.x_axis.centers.tolist()]
    ys = [_fmt(y) for y in field.grid.y_axis.centers.tolist()]
    with open(path, "w", encoding="utf-8") as f:
        f.write("i,j,x,y,value\n")
        for j, y in enumerate(ys):
            row = zip(xs, field.values[:, j].tolist())
            f.write("".join([f"{i},{j},{x},{y},{v:.17g}\n" for i, (x, v) in enumerate(row)]))


def field_to_vtk(field: CellField, path, name: str) -> None:
    """Legacy ASCII structured-grid VTK with cell centers as point data."""
    grid = field.grid
    xs = [_fmt(x) for x in grid.x_axis.centers.tolist()]
    ys = grid.y_axis.centers.tolist()
    nx, ny = grid.shape
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{name} on a staggered cell-centered grid\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_GRID\n")
        f.write(f"DIMENSIONS {nx} {ny} 1\n")
        f.write(f"POINTS {nx * ny} double\n")
        for y in ys:
            tail = f" {_fmt(y)} 0\n"
            f.write(tail.join(xs) + tail)
        f.write(f"POINT_DATA {nx * ny}\n")
        f.write(f"SCALARS {name} double 1\n")
        f.write("LOOKUP_TABLE default\n")
        row = "%.17g\n" * nx
        for j in range(ny):
            f.write(row % tuple(field.values[:, j].tolist()))


def diagnostics_to_csv(diagnostics: Iterable[StepDiagnostics], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
        for d in diagnostics:
            f.write(_DIAGNOSTIC_ROW.format(*[getattr(d, name) for name in DIAGNOSTIC_COLUMNS]))
