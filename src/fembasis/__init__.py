"""Tree-structured finite element function space bases on the unit square.

Basis trees combine Lagrange leaves through power and composite nodes; four
merging strategies control how global multi-indices are built.  Companion
modules provide element-local views, multi-index addressable containers,
nodal interpolation and a Taylor-Hood Stokes driven cavity demo.
"""

from .basis import (
    GlobalBasis,
    LocalView,
    SubspaceBasis,
    make_basis,
    merge_child_index,
    subspace_basis,
)
from .containers import NestedVector, SparseSystem
from .errors import (
    AlreadyFrozen,
    CapacityExceeded,
    FemBasisError,
    IndexOutOfRange,
    InvalidStrategy,
    NotFrozen,
    OutsideDomain,
    ParseError,
    PathOutOfRange,
    PrefixNotFound,
    ShapeMismatch,
    UnboundView,
    UnsupportedOrder,
)
from .functions import (
    evaluate_discrete,
    for_each_boundary_dof,
    interpolate,
    interpolate_masked,
)
from .gmres import SolverConfig, gmres, solve_system
from .grid import ElementGeometry, StructuredGrid, parse_grid_shape
from .localfe import LagrangeQk, lagrange_element
from .multiindex import MultiIndex, as_multi_index, is_prefix
from .quadrature import gauss_legendre_unit
from .stokes import (
    CavitySummary,
    apply_dirichlet,
    assemble_element_matrix,
    assemble_stokes_matrix,
    driven_cavity_data,
    run_driven_cavity,
    solve_stokes,
    taylor_hood_tree,
    weak_divergence_norm,
)
from .treespec import (
    BasisTree,
    Composite,
    Leaf,
    Power,
    Strategy,
    child_at,
    parse_tree,
    render_tree,
    tree_depth,
)
from .vtu import write_vtu

__version__ = "0.1.0"

__all__ = [
    "AlreadyFrozen",
    "BasisTree",
    "CavitySummary",
    "CapacityExceeded",
    "Composite",
    "ElementGeometry",
    "FemBasisError",
    "GlobalBasis",
    "IndexOutOfRange",
    "InvalidStrategy",
    "LagrangeQk",
    "Leaf",
    "LocalView",
    "MultiIndex",
    "NestedVector",
    "NotFrozen",
    "OutsideDomain",
    "ParseError",
    "PathOutOfRange",
    "Power",
    "PrefixNotFound",
    "ShapeMismatch",
    "SolverConfig",
    "SparseSystem",
    "Strategy",
    "StructuredGrid",
    "SubspaceBasis",
    "UnboundView",
    "UnsupportedOrder",
    "apply_dirichlet",
    "as_multi_index",
    "assemble_element_matrix",
    "assemble_stokes_matrix",
    "child_at",
    "driven_cavity_data",
    "evaluate_discrete",
    "for_each_boundary_dof",
    "gauss_legendre_unit",
    "gmres",
    "interpolate",
    "interpolate_masked",
    "is_prefix",
    "lagrange_element",
    "make_basis",
    "merge_child_index",
    "parse_grid_shape",
    "parse_tree",
    "render_tree",
    "run_driven_cavity",
    "solve_stokes",
    "solve_system",
    "subspace_basis",
    "taylor_hood_tree",
    "tree_depth",
    "weak_divergence_norm",
    "write_vtu",
]
