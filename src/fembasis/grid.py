"""Structured quadrilateral grid on the unit square.

Elements are the cells of an nx-by-ny split of [0,1]^2, numbered
lexicographically from the lower-left corner: element e = j*nx + i covers
[i/nx, (i+1)/nx] x [j/ny, (j+1)/ny].  Every element carries the same
axis-aligned affine geometry, so Jacobians are diagonal and constant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import IndexOutOfRange, OutsideDomain, ParseError, integer

BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class ElementGeometry:
    """Affine map from the reference square [0,1]^2 to one grid cell."""

    element: int
    x0: float
    y0: float
    hx: float
    hy: float

    @property
    def jacobian_determinant(self) -> float:
        return self.hx * self.hy


@dataclass(frozen=True)
class StructuredGrid:
    """nx-by-ny axis-aligned quadrilateral grid of the unit square."""

    nx: int
    ny: int

    def __post_init__(self):
        object.__setattr__(self, "nx", integer(self.nx, "grid cell count nx"))
        object.__setattr__(self, "ny", integer(self.ny, "grid cell count ny"))
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid needs at least one cell per axis, got {self.nx}x{self.ny}")

    @property
    def num_elements(self) -> int:
        return self.nx * self.ny

    @property
    def num_vertices(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    def cell_coords(self, element: int) -> tuple[int, int]:
        """Cartesian cell indices (i, j) of an int element number (not a bool)."""
        element = integer(element, "element")
        if not 0 <= element < self.num_elements:
            raise IndexOutOfRange(
                f"element {element} outside grid with {self.num_elements} elements"
            )
        return element % self.nx, element // self.nx

    def element_geometry(self, element: int) -> ElementGeometry:
        i, j = self.cell_coords(element)
        return ElementGeometry(element, i / self.nx, j / self.ny, self.hx, self.hy)

    def locate(self, point) -> tuple[int, tuple[float, float]]:
        """Element containing a point plus its reference coordinates there.

        Points on inter-element edges resolve to the element that starts
        there (reference coordinate 0), except on the far domain edges
        where the last element takes them at reference coordinate 1.
        Points up to BOUNDARY_TOL outside the square are clamped, anything
        further out raises OutsideDomain.
        """
        x, y = point
        if not (-BOUNDARY_TOL <= x <= 1.0 + BOUNDARY_TOL) or not (
            -BOUNDARY_TOL <= y <= 1.0 + BOUNDARY_TOL
        ):
            raise OutsideDomain(f"point {(x, y)} outside the unit square")
        i = min(max(int(math.floor(x * self.nx)), 0), self.nx - 1)
        j = min(max(int(math.floor(y * self.ny)), 0), self.ny - 1)
        lx = min(max(x * self.nx - i, 0.0), 1.0)
        ly = min(max(y * self.ny - j, 0.0), 1.0)
        return j * self.nx + i, (lx, ly)


_GRID_RE = re.compile(r"^(\d+)x(\d+)$")


def parse_grid_shape(text: str) -> tuple[int, int]:
    """Parse the NXxNY command line form, e.g. '4x4'."""
    m = _GRID_RE.match(text.strip())
    if m is None:
        raise ParseError(f"expected NXxNY, found {text!r}", 0)
    nx, ny = int(m.group(1)), int(m.group(2))
    if nx < 1 or ny < 1:
        raise ParseError(f"grid sizes must be positive in {text!r}", 0)
    return nx, ny
