"""VTU output: structure, exact value round trips, cell topology."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fembasis import (
    StructuredGrid,
    evaluate_discrete,
    run_driven_cavity,
    subspace_basis,
    write_vtu,
)


def load(path):
    root = ET.parse(path).getroot()
    piece = root.find("./UnstructuredGrid/Piece")
    arrays = {}
    for da in piece.iter("DataArray"):
        arrays[da.get("Name")] = da.text.split()
    return piece, arrays


def vertex_points(grid):
    """Vertex positions (i / nx, j / ny), lexicographic from the lower-left corner."""
    return [(i / grid.nx, j / grid.ny) for j in range(grid.ny + 1) for i in range(grid.nx + 1)]


def vertex_fields(grid, velocity, pressure):
    """Vertex arrays of the point functions ``velocity`` and ``pressure``."""
    points = vertex_points(grid)
    return np.array([velocity(p) for p in points]), np.array([pressure(p) for p in points])


def write_sample(path, nx=4, ny=4):
    grid = StructuredGrid(nx, ny)
    write_vtu(grid, *vertex_fields(grid, lambda p: (p[0], p[1]), lambda p: p[0] + 10 * p[1]), path)
    return grid


def test_counts_and_offsets(tmp_path):
    path = tmp_path / "out.vtu"
    write_sample(str(path))
    piece, arrays = load(path)
    assert piece.get("NumberOfPoints") == "25"
    assert piece.get("NumberOfCells") == "16"
    assert len(arrays["connectivity"]) == 64
    assert arrays["offsets"] == [str(4 * (e + 1)) for e in range(16)]
    assert arrays["offsets"][-1] == "64"
    assert arrays["types"] == ["9"] * 16


def test_single_cell_connectivity(tmp_path):
    path = tmp_path / "one.vtu"
    write_sample(str(path), nx=1, ny=1)
    piece, arrays = load(path)
    assert arrays["connectivity"] == ["0", "1", "3", "2"]
    assert arrays["offsets"] == ["4"]


def test_point_order_is_lexicographic(tmp_path):
    path = tmp_path / "pts.vtu"
    grid = write_sample(str(path), nx=2, ny=2)
    piece, arrays = load(path)
    coords = [float(v) for v in piece.find("./Points/DataArray").text.split()]
    assert len(coords) == 9 * 3
    # second vertex is (0.5, 0, 0); fourth is the start of the second row
    assert coords[3:6] == [0.5, 0.0, 0.0]
    assert coords[9:12] == [0.0, 0.5, 0.0]
    assert all(coords[3 * v + 2] == 0.0 for v in range(9))


def test_field_values_round_trip_exactly(tmp_path):
    path = tmp_path / "fields.vtu"
    grid = write_sample(str(path), nx=2, ny=2)
    piece, arrays = load(path)
    velocity = [float(v) for v in arrays["velocity"]]
    pressure = [float(v) for v in arrays["pressure"]]
    for v, (x, y) in enumerate(vertex_points(grid)):
        assert velocity[3 * v] == x  # bitwise, repr round trip
        assert velocity[3 * v + 1] == y
        assert velocity[3 * v + 2] == 0.0
        assert pressure[v] == x + 10 * y


def test_zero_fields(tmp_path):
    path = tmp_path / "zero.vtu"
    grid = StructuredGrid(3, 2)
    write_vtu(grid, np.zeros((grid.num_vertices, 2)), np.zeros(grid.num_vertices), str(path))
    piece, arrays = load(path)
    assert set(arrays["velocity"]) == {"0.0"}
    assert set(arrays["pressure"]) == {"0.0"}


def test_scalar_velocity_is_padded(tmp_path):
    path = tmp_path / "pad.vtu"
    grid = StructuredGrid(1, 1)
    write_vtu(grid, np.full((4, 1), 7.0), np.zeros(4), str(path))
    piece, arrays = load(path)
    assert arrays["velocity"][0:3] == ["7.0", "0.0", "0.0"]


def test_too_many_components_rejected(tmp_path):
    grid = StructuredGrid(1, 1)
    with pytest.raises(ValueError):
        write_vtu(grid, np.ones((4, 4)), np.zeros(4), str(tmp_path / "x.vtu"))


@pytest.mark.parametrize(
    "velocity,pressure",
    [((3, 2), (4,)), ((4,), (4,)), ((4, 2), (3,)), ((4, 2), (4, 1))],
    ids=["vertex-count", "1-d-velocity", "pressure-count", "2-d-pressure"],
)
def test_wrong_shapes_rejected(tmp_path, velocity, pressure):
    grid = StructuredGrid(1, 1)
    path = tmp_path / "x.vtu"
    with pytest.raises(ValueError):
        write_vtu(grid, np.zeros(velocity), np.zeros(pressure), str(path))
    assert not path.exists()


def test_header_attributes(tmp_path):
    path = tmp_path / "hdr.vtu"
    write_sample(str(path), nx=1, ny=1)
    root = ET.parse(path).getroot()
    assert root.tag == "VTKFile"
    assert root.get("type") == "UnstructuredGrid"
    point_data = root.find("./UnstructuredGrid/Piece/PointData")
    assert point_data.get("Vectors") == "velocity"
    assert point_data.get("Scalars") == "pressure"
    names = {da.get("Name"): da.get("type") for da in point_data.iter("DataArray")}
    assert names == {"velocity": "Float64", "pressure": "Float64"}


@pytest.mark.parametrize("pin_pressure", [False, True], ids=["free", "pinned"])
def test_cavity_file_matches_point_evaluation(tmp_path, pin_pressure):
    # the cavity writes nodal values; the reference evaluates the discrete
    # field at every vertex
    path = tmp_path / "cavity.vtu"
    summary = run_driven_cavity(5, 6, out_path=path, pin_pressure=pin_pressure)
    basis, solution = summary.basis, summary.solution
    velocity = subspace_basis(basis, (0,))
    pressure = subspace_basis(basis, (1,))
    reference = tmp_path / "reference.vtu"
    write_vtu(
        summary.grid,
        *vertex_fields(
            summary.grid,
            lambda p: evaluate_discrete(velocity, solution, p),
            lambda p: evaluate_discrete(pressure, solution, p),
        ),
        reference,
    )
    assert path.read_bytes() == reference.read_bytes()


def reference_vtu_text(nx, ny, velocity, pressure):
    """The expected file, built value by value from repr(float(v))."""
    fmt = lambda value: repr(float(value))
    row = nx + 1
    cells = [(j * row + i) for j in range(ny) for i in range(nx)]
    return "\n".join(
        [
            '<?xml version="1.0"?>',
            '<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">',
            "<UnstructuredGrid>",
            f'<Piece NumberOfPoints="{row * (ny + 1)}" NumberOfCells="{nx * ny}">',
            '<PointData Vectors="velocity" Scalars="pressure">',
            '<DataArray type="Float64" Name="velocity" NumberOfComponents="3" format="ascii">',
            *(" ".join([*map(fmt, v), *["0.0"] * (3 - len(v))]) for v in velocity),
            "</DataArray>",
            '<DataArray type="Float64" Name="pressure" NumberOfComponents="1" format="ascii">',
            *map(fmt, pressure),
            "</DataArray>",
            "</PointData>",
            "<Points>",
            '<DataArray type="Float64" NumberOfComponents="3" format="ascii">',
            *(f"{fmt(i / nx)} {fmt(j / ny)} 0.0" for j in range(ny + 1) for i in range(nx + 1)),
            "</DataArray>",
            "</Points>",
            "<Cells>",
            '<DataArray type="Int64" Name="connectivity" format="ascii">',
            *(f"{v} {v + 1} {v + row + 1} {v + row}" for v in cells),
            "</DataArray>",
            '<DataArray type="Int64" Name="offsets" format="ascii">',
            *(str(4 * (e + 1)) for e in range(nx * ny)),
            "</DataArray>",
            '<DataArray type="UInt8" Name="types" format="ascii">',
            *["9"] * (nx * ny),
            "</DataArray>",
            "</Cells>",
            "</Piece>",
            "</UnstructuredGrid>",
            "</VTKFile>",
            "",
        ]
    )


@pytest.mark.parametrize("components", [1, 2, 3])
def test_file_is_the_repr_of_every_value(tmp_path, components):
    grid = StructuredGrid(3, 2)
    n = grid.num_vertices
    rng = np.random.default_rng(components)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1.0 / 3.0, 0.1, 123456789.0]
    values = np.concatenate([special, rng.normal(size=4 * n - len(special))])
    velocity, pressure = values[: components * n].reshape(n, components), values[-n:]
    path = tmp_path / "repr.vtu"
    write_vtu(grid, velocity, pressure, path)
    expected = reference_vtu_text(3, 2, velocity.tolist(), pressure.tolist())
    assert path.read_bytes() == expected.encode("ascii")
