"""Structured grid geometry, point location and grid shape parsing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fembasis import (
    IndexOutOfRange,
    OutsideDomain,
    ParseError,
    StructuredGrid,
    parse_grid_shape,
    run_driven_cavity,
)


def test_element_geometry_examples():
    g = StructuredGrid(4, 4)
    e0 = g.element_geometry(0)
    assert (e0.x0, e0.y0, e0.hx, e0.hy) == (0.0, 0.0, 0.25, 0.25)
    e5 = g.element_geometry(5)
    assert (e5.x0, e5.y0) == (0.25, 0.25)

    g23 = StructuredGrid(2, 3)
    e = g23.element_geometry(5)
    assert (e.x0, e.y0) == (0.5, 2 / 3)


def test_element_count_and_bounds():
    g = StructuredGrid(3, 2)
    assert g.num_elements == 6
    assert g.num_vertices == 12
    with pytest.raises(IndexOutOfRange):
        g.element_geometry(6)
    with pytest.raises(IndexOutOfRange):
        g.element_geometry(-1)


def test_locate_examples():
    g = StructuredGrid(4, 4)
    e, (lx, ly) = g.locate((0.3, 0.1))
    assert e == 1
    assert abs(lx - 0.2) < 1e-12 and abs(ly - 0.4) < 1e-12

    e, local = g.locate((1.0, 1.0))
    assert e == 15 and local == (1.0, 1.0)

    e, local = StructuredGrid(1, 1).locate((0.25, 0.75))
    assert e == 0 and local == (0.25, 0.75)


def test_locate_edge_points_go_to_starting_element():
    g = StructuredGrid(4, 4)
    e, (lx, ly) = g.locate((0.5, 0.5))
    assert e == 10  # element (2, 2), which starts at the cross point
    assert (lx, ly) == (0.0, 0.0)


def test_locate_round_trip():
    rng = np.random.default_rng(3)
    for nx, ny in [(1, 1), (2, 3), (4, 4), (3, 1)]:
        g = StructuredGrid(nx, ny)
        for _ in range(100):
            p = (float(rng.random()), float(rng.random()))
            e, local = g.locate(p)
            geom = g.element_geometry(e)
            q = (geom.x0 + local[0] * geom.hx, geom.y0 + local[1] * geom.hy)
            assert math.dist(p, q) <= 1e-12
            assert 0.0 <= local[0] <= 1.0 and 0.0 <= local[1] <= 1.0


def test_locate_outside_domain():
    g = StructuredGrid(2, 2)
    with pytest.raises(OutsideDomain):
        g.locate((1.5, 0.5))
    with pytest.raises(OutsideDomain):
        g.locate((0.5, -0.1))
    # within tolerance is clamped, not rejected
    e, local = g.locate((-1e-11, 0.5))
    assert e == 2 and local[0] == 0.0


def test_elements_tile_the_square():
    for nx, ny in [(1, 1), (2, 3), (4, 4)]:
        g = StructuredGrid(nx, ny)
        total = sum(
            g.element_geometry(e).jacobian_determinant for e in range(g.num_elements)
        )
        assert abs(total - 1.0) <= 1e-12
        exact = sum(
            Fraction(1, nx) * Fraction(1, ny) for _ in range(g.num_elements)
        )
        assert exact == 1


def test_grid_validation():
    with pytest.raises(ValueError):
        StructuredGrid(0, 3)


@pytest.mark.parametrize("bad", [2.0, True, np.float64(2.0), np.True_])
def test_grid_cell_counts_must_be_integers(bad, tmp_path):
    for shape in [(bad, 2), (2, bad)]:
        with pytest.raises(TypeError, match="grid cell count"):
            StructuredGrid(*shape)
        # refused before the cavity does any work
        with pytest.raises(TypeError, match="grid cell count"):
            run_driven_cavity(*shape, out_path=tmp_path / "c.vtu")
    assert list(tmp_path.iterdir()) == []
    grid = StructuredGrid(np.int64(3), np.uint8(2))
    assert grid == StructuredGrid(3, 2) and type(grid.nx) is int and type(grid.ny) is int


def test_parse_grid_shape():
    assert parse_grid_shape("4x4") == (4, 4)
    assert parse_grid_shape("12x3") == (12, 3)
    with pytest.raises(ParseError):
        parse_grid_shape("4by4")
    with pytest.raises(ParseError):
        parse_grid_shape("0x4")
    with pytest.raises(ParseError):
        parse_grid_shape("4x")


@pytest.mark.parametrize("bad", [1.5, 1.0, True, np.float64(1.0), np.True_])
def test_element_numbers_must_be_integers(bad):
    g = StructuredGrid(3, 2)
    with pytest.raises(TypeError, match="element"):
        g.cell_coords(bad)
    with pytest.raises(TypeError, match="element"):
        g.element_geometry(bad)
    assert g.cell_coords(np.int64(4)) == (1, 1)
    assert g.element_geometry(np.int64(4)) == g.element_geometry(4)
