"""ASCII XML unstructured-grid output for structured quad grids.

Writes one quad cell (VTK cell type 9) per grid element with point data
given at the grid vertices: a 3-component "velocity" array (missing
components zero) and a scalar "pressure" array.
"""

from __future__ import annotations

import numpy as np

from .grid import StructuredGrid


def write_vtu(grid: StructuredGrid, velocity, pressure, path) -> None:
    """Write vertex fields to ``path`` in ASCII VTU form.

    ``velocity`` is a ``(num_vertices, c)`` array of ``c <= 3`` components
    (padded with zeros to three), ``pressure`` a ``(num_vertices,)``
    array; other shapes raise ValueError.  Row ``v`` holds vertex ``v``,
    and vertices are written in lexicographic order from the lower-left
    corner; cell connectivity is counter-clockwise.
    """
    n = grid.num_vertices
    velocity = np.asarray(velocity, dtype=float)
    pressure = np.asarray(pressure, dtype=float)
    if velocity.ndim != 2 or velocity.shape[0] != n or velocity.shape[1] > 3:
        raise ValueError(f"velocity has shape {velocity.shape}, expected ({n}, c) with c <= 3")
    if pressure.shape != (n,):
        raise ValueError(f"pressure has shape {pressure.shape}, expected ({n},)")
    # repr of a float round-trips exactly, so nodal values survive parsing;
    # the missing velocity components are written as 0.0
    columns = [list(map(repr, column)) for column in velocity.T.tolist()]
    columns += [["0.0"] * n] * (3 - len(columns))
    velocity_lines = list(map(" ".join, zip(*columns)))
    pressure_lines = list(map(repr, pressure.tolist()))
    xs = [repr(i / grid.nx) for i in range(grid.nx + 1)]
    ys = [repr(j / grid.ny) for j in range(grid.ny + 1)]
    point_lines = [f"{x} {y} 0.0" for y in ys for x in xs]

    # a cell's corners counter-clockwise from its lower-left vertex v = j*(nx+1) + i
    row = grid.nx + 1
    lower_left = [j * row + i for j in range(grid.ny) for i in range(grid.nx)]
    connectivity = [f"{v} {v + 1} {v + row + 1} {v + row}" for v in lower_left]
    offsets = list(map(str, range(4, 4 * grid.num_elements + 1, 4)))
    types = ["9"] * grid.num_elements

    lines = [
        '<?xml version="1.0"?>',
        '<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">',
        "<UnstructuredGrid>",
        f'<Piece NumberOfPoints="{grid.num_vertices}" NumberOfCells="{grid.num_elements}">',
        '<PointData Vectors="velocity" Scalars="pressure">',
        '<DataArray type="Float64" Name="velocity" NumberOfComponents="3" format="ascii">',
        *velocity_lines,
        "</DataArray>",
        '<DataArray type="Float64" Name="pressure" NumberOfComponents="1" format="ascii">',
        *pressure_lines,
        "</DataArray>",
        "</PointData>",
        "<Points>",
        '<DataArray type="Float64" NumberOfComponents="3" format="ascii">',
        *point_lines,
        "</DataArray>",
        "</Points>",
        "<Cells>",
        '<DataArray type="Int64" Name="connectivity" format="ascii">',
        *connectivity,
        "</DataArray>",
        '<DataArray type="Int64" Name="offsets" format="ascii">',
        *offsets,
        "</DataArray>",
        '<DataArray type="UInt8" Name="types" format="ascii">',
        *types,
        "</DataArray>",
        "</Cells>",
        "</Piece>",
        "</UnstructuredGrid>",
        "</VTKFile>",
        "",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
