"""Global bases: merging strategies, local views, subspaces, index sets."""

import numpy as np
import pytest

import fembasis.basis
from fembasis import (
    IndexOutOfRange,
    LocalView,
    MultiIndex,
    NestedVector,
    PathOutOfRange,
    PrefixNotFound,
    SparseSystem,
    Strategy,
    StructuredGrid,
    UnboundView,
    apply_dirichlet,
    assemble_stokes_matrix,
    child_at,
    evaluate_discrete,
    interpolate,
    interpolate_masked,
    make_basis,
    merge_child_index,
    parse_tree,
    solve_stokes,
    subspace_basis,
)
from fembasis.cli import strategy_table_bases
from fembasis.functions import boundary_offsets
from fembasis.multiindex import Layout
from helpers import (
    enumerate_multi_indices,
    expected_leaf_index,
    prefix_degree_table,
    random_tree,
    trie_is_index_tree,
)

TH2 = "composite(power(lagrange(2),2),lagrange(1))"
TH3 = "composite(power(lagrange(2),3),lagrange(1))"
# none is an integer: each raises TypeError where the API takes one
NOT_INTEGERS = (True, False, np.True_, 0.5, 1.0, np.float64(1.0), "1")


def test_merge_child_index_blocked_lexicographic():
    assert merge_child_index(Strategy.BLOCKED_LEXICOGRAPHIC, 1, (2,)) == (1, 2)


def test_merge_child_index_blocked_interleaved():
    assert merge_child_index(Strategy.BLOCKED_INTERLEAVED, 2, (1,)) == (1, 2)


def test_merge_child_index_flat_lexicographic():
    mi = merge_child_index(
        Strategy.FLAT_LEXICOGRAPHIC, 1, (1,), child_root_degrees=(3, 5)
    )
    assert mi == (4,)


def test_merge_child_index_flat_interleaved():
    mi = merge_child_index(Strategy.FLAT_INTERLEAVED, 1, (2,), child_count=3)
    assert mi == (7,)


def test_merge_flat_needs_nonempty_child():
    with pytest.raises(ValueError):
        merge_child_index(Strategy.FLAT_LEXICOGRAPHIC, 0, (), child_root_degrees=(1,))


def test_merge_returns_multi_index():
    mi = merge_child_index(Strategy.BLOCKED_LEXICOGRAPHIC, 0, (1, 2))
    assert isinstance(mi, MultiIndex)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.short)
def test_merge_child_index_takes_an_integer_child_index(strategy):
    counts = {"child_root_degrees": (3, 3), "child_count": 2}
    for bad in (1.5, True, np.float64(0.0)):
        with pytest.raises(TypeError, match="child index"):
            merge_child_index(strategy, bad, (1, 2), **counts)
    merged = merge_child_index(strategy, np.int64(1), (1, 2), **counts)
    assert merged == merge_child_index(strategy, 1, (1, 2), **counts)


def test_dimensions():
    grid = StructuredGrid(4, 4)
    assert make_basis(grid, parse_tree("lagrange(2)")).dimension() == 81
    assert make_basis(grid, parse_tree("lagrange(1)")).dimension() == 25
    assert make_basis(grid, parse_tree(TH3)).dimension() == 3 * 81 + 25
    assert make_basis(grid, parse_tree(TH2)).dimension() == 2 * 81 + 25


def test_size_walks_the_index_tree():
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH3))
    assert basis.size() == 2
    assert basis.size((0,)) == 81
    assert basis.size((0, 0)) == 3
    assert basis.size((0, 0, 1)) == 0
    assert basis.size((1,)) == 25
    assert basis.size((1, 7)) == 0
    with pytest.raises(PrefixNotFound):
        basis.size((2,))
    with pytest.raises(PrefixNotFound):
        basis.size((1, 7, 0))


def test_local_view_sizes():
    grid = StructuredGrid(4, 4)
    view = make_basis(grid, parse_tree(TH2)).local_view()
    assert view.max_size == 22
    with pytest.raises(UnboundView):
        view.size
    with pytest.raises(UnboundView):
        view.index(0)
    view.bind(0)
    assert view.size == 22
    assert view.element == 0
    view.unbind()
    with pytest.raises(UnboundView):
        view.element


def test_max_size_of_power_of_q1():
    basis = make_basis(StructuredGrid(4, 4), parse_tree("power(lagrange(1),4)"))
    assert basis.local_view().max_size == 16


def test_q1_element_multi_indices():
    basis = make_basis(StructuredGrid(4, 4), parse_tree("lagrange(1)"))
    view = basis.local_view()
    view.bind(0)
    assert {tuple(view.index(i)) for i in range(view.size)} == {(0,), (1,), (5,), (6,)}
    view.bind(15)  # upper right element
    assert {tuple(view.index(i)) for i in range(view.size)} == {
        (18,), (19,), (23,), (24,),
    }


def test_bind_rejects_bad_elements():
    view = make_basis(StructuredGrid(2, 2), parse_tree("lagrange(1)")).local_view()
    cases = [(-1, IndexOutOfRange), (4, IndexOutOfRange)] + [(v, TypeError) for v in NOT_INTEGERS]
    for element, error in cases:
        with pytest.raises(error):
            view.bind(element)
        assert not view.bound
    view.bind(1)
    expected = [view.index(i) for i in range(view.size)]
    for local, error in cases:
        with pytest.raises(error):
            view.index(local)
    assert [view.index(np.int64(i)) for i in range(view.size)] == expected
    view.bind(np.int64(1))
    assert type(view.element) is int
    assert [view.index(i) for i in range(view.size)] == expected


def test_bind_builds_the_geometry_on_its_first_read(monkeypatch):
    grid = StructuredGrid(3, 2)
    basis = make_basis(grid, parse_tree(TH2))
    view = basis.local_view()
    with pytest.raises(UnboundView):
        view.geometry
    offsets = basis.element_offsets()
    with monkeypatch.context() as m:
        m.setattr(StructuredGrid, "element_geometry", lambda *args: pytest.fail("geometry built"))
        for e in range(grid.num_elements):
            view.bind(e)
            assert [view.index(i) for i in range(view.size)] == [
                basis.layout.keys[r] for r in offsets[e].tolist()
            ]
    for e in (0, 4, grid.num_elements - 1):
        view.bind(e)
        assert view.geometry == grid.element_geometry(e)
        assert view.geometry is view.geometry  # built once per bind
    view.unbind()
    with pytest.raises(UnboundView):
        view.geometry


def test_leaves_are_depth_first_and_consecutive():
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH2))
    view = basis.local_view()
    assert [leaf.tree_path for leaf in view.leaves] == [(0, 0), (0, 1), (1,)]
    assert [leaf.offset for leaf in view.leaves] == [0, 9, 18]


def test_first_velocity_and_pressure_indices():
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH2))
    view = basis.local_view()
    view.bind(0)
    assert view.index(0) == (0, 0, 0)  # node 0, component 0
    assert view.index(9) == (0, 0, 1)  # node 0, component 1
    assert view.index(18) == (1, 0)  # pressure node 0


def test_flat_flat_pressure_offset():
    tree = parse_tree("composite(power(lagrange(2),3,FL),lagrange(1),FL)")
    basis = make_basis(StructuredGrid(4, 4), tree)
    assert basis.leaf_dof_index((1,), 0) == (243,)
    view = basis.local_view()
    view.bind(0)
    assert view.index(view.leaves[-1].offset) == (243,)


def test_leaf_dof_index_validation():
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH2))
    with pytest.raises(PathOutOfRange):
        basis.leaf_dof_index((0,), 0)  # power node, not a leaf
    with pytest.raises(PathOutOfRange):
        basis.leaf_dof_index((2,), 0)
    with pytest.raises(IndexOutOfRange):
        basis.leaf_dof_index((1,), 25)
    for flat in [True, False, 3.0, np.float64(1.0)]:
        with pytest.raises(TypeError, match="flat index"):
            basis.leaf_dof_index((1,), flat)
    assert basis.leaf_dof_index((1,), np.int64(3)) == basis.leaf_dof_index((1,), 3)


def test_subspace_reports_root_indices():
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH3))
    sub = subspace_basis(basis, (0, 2))
    view = sub.local_view()
    view.bind(0)
    assert view.size == 9
    assert view.index(0) == (0, 0, 2)

    pressure = subspace_basis(basis, (1,))
    pview = pressure.local_view()
    pview.bind(0)
    assert pview.size == 4
    assert pview.index(0) == (1, 0)


def test_subspace_of_subspace_concatenates_paths():
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH3))
    velocity = subspace_basis(basis, (0,))
    component = subspace_basis(velocity, (1,))
    assert component.prefix_path == (0, 1)
    view = component.local_view()
    view.bind(0)
    assert view.index(0) == (0, 0, 1)


def test_empty_prefix_subspace_behaves_like_full_basis():
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH2))
    sub = subspace_basis(basis, ())
    view, full = sub.local_view(), basis.local_view()
    view.bind(1)
    full.bind(1)
    assert view.multi_indices() == full.multi_indices()


def test_subspace_path_validation():
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH2))
    with pytest.raises(PathOutOfRange):
        subspace_basis(basis, (2,))
    with pytest.raises(PathOutOfRange):
        subspace_basis(basis, (1, 0))


def test_enumerated_index_set_is_a_valid_tree():
    grid = StructuredGrid(4, 4)
    for text in [TH2, TH3, "lagrange(1)", "power(lagrange(1),4,FI)",
                 "composite(power(lagrange(2),2,BI),lagrange(1),FL)"]:
        basis = make_basis(grid, parse_tree(text))
        entries = enumerate_multi_indices(basis)
        assert len(entries) == basis.dimension()
        assert trie_is_index_tree(entries)


def test_size_matches_enumerated_prefix_degrees():
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH2))
    entries = enumerate_multi_indices(basis)
    table = prefix_degree_table(entries)
    for prefix, expected in table.items():
        assert basis.size(prefix) == expected


def test_same_multi_index_means_same_node():
    # two element-local functions share a multi-index exactly when they are
    # the same leaf function at the same global node
    grid = StructuredGrid(3, 2)
    basis = make_basis(grid, parse_tree(TH2))
    view = basis.local_view()
    owner = {}
    for e in range(grid.num_elements):
        view.bind(e)
        i, j = grid.cell_coords(e)
        for leaf in view.leaves:
            k = leaf.finite_element.order
            for m in range(leaf.size):
                a, b = m % (k + 1), m // (k + 1)
                node = ((j * k + b) * (k * grid.nx + 1) + (i * k + a))
                key = (leaf.tree_path, node)
                mi = view.index(leaf.offset + m)
                assert owner.setdefault(mi, key) == key


def test_random_trees_produce_valid_index_sets():
    rng = np.random.default_rng(41)
    for _ in range(30):
        nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        basis = make_basis(StructuredGrid(nx, ny), random_tree(rng))
        entries = enumerate_multi_indices(basis)
        assert len(entries) == basis.dimension()
        assert trie_is_index_tree(entries)
        table = prefix_degree_table(entries)
        for prefix, expected in table.items():
            assert basis.size(prefix) == expected


def test_flat_composite_first_digits_are_consecutive():
    rng = np.random.default_rng(43)
    grid = StructuredGrid(2, 2)
    for _ in range(20):
        tree = parse_tree(
            f"composite(power(lagrange(1),{rng.integers(1, 4)}),"
            f"lagrange({rng.integers(1, 3)}),FL)"
        )
        basis = make_basis(grid, tree)
        entries = enumerate_multi_indices(basis)
        first = {e[0] for e in entries}
        assert first == set(range(basis.size(())))


def _leaf_paths(tree, path=()):
    if hasattr(tree, "order"):
        return [(path, tree.order)]
    kids = (tree.child,) * tree.count if hasattr(tree, "count") else tree.children
    return [leaf for i, kid in enumerate(kids) for leaf in _leaf_paths(kid, path + (i,))]


def test_every_dof_matches_the_plain_tuple_fold():
    # the trie checks accept any valid numbering; this one pins the numbering
    rng = np.random.default_rng(47)
    for _ in range(24):
        nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        tree = random_tree(rng)
        basis = make_basis(StructuredGrid(nx, ny), tree)
        leaves = _leaf_paths(tree)
        for path, k in leaves:
            for flat in range((k * nx + 1) * (k * ny + 1)):
                expected = expected_leaf_index(tree, nx, ny, path, flat)
                assert basis.leaf_dof_index(path, flat) == expected
        view = basis.local_view()
        assert [(leaf.tree_path, leaf.finite_element.order) for leaf in view.leaves] == leaves
        for e in range(basis.grid.num_elements):
            view.bind(e)
            i, j = basis.grid.cell_coords(e)
            for leaf in view.leaves:
                k = leaf.finite_element.order
                for m in range(leaf.size):
                    a, b = m % (k + 1), m // (k + 1)
                    node = (j * k + b) * (k * nx + 1) + (i * k + a)
                    expected = expected_leaf_index(tree, nx, ny, leaf.tree_path, node)
                    assert view.index(leaf.offset + m) == expected


def _bases_and_prefixes():
    """The Table-1 bases with their velocity subspaces, and random trees."""
    cases = []
    for _, basis in strategy_table_bases(StructuredGrid(3, 2), 2):
        cases += [(basis, ()), (basis, (0,))]
    rng = np.random.default_rng(71)
    for _ in range(8):
        tree = random_tree(rng)
        basis = make_basis(StructuredGrid(int(rng.integers(1, 4)), int(rng.integers(1, 4))), tree)
        leaves = _leaf_paths(tree)
        path = leaves[int(rng.integers(len(leaves)))][0]
        cases += [(basis, ()), (basis, path[: int(rng.integers(len(path) + 1))])]
    return cases


def test_element_offsets_rows_are_the_bound_view_offsets():
    for basis, prefix in _bases_and_prefixes():
        table = basis.element_offsets(prefix)
        view = subspace_basis(basis, prefix).local_view()
        assert table.shape == (basis.grid.num_elements, view.max_size)
        assert not table.flags.writeable
        assert basis.element_offsets(prefix) is table
        for e in range(basis.grid.num_elements):
            view.bind(e)
            offsets = [basis.layout.offset[mi] for mi in view.multi_indices()]
            assert table[e].tolist() == offsets
        # the leaves below the prefix, depth first, with consecutive local indices
        expected = [
            (path, k) for path, k in _leaf_paths(basis.tree) if path[: len(prefix)] == prefix
        ]
        assert [(leaf.tree_path, leaf.finite_element.order) for leaf in view.leaves] == expected
        offset = 0
        for leaf in view.leaves:
            assert leaf.rel_path == leaf.tree_path[len(prefix) :]
            assert leaf.offset == offset
            assert leaf.node_grid is basis.node_grid(leaf.tree_path)
            offset += leaf.size
        assert view.max_size == offset


def test_element_offsets_validates_the_prefix():
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH2))
    with pytest.raises(PathOutOfRange):
        basis.element_offsets((2,))


# -- one scope per prefix -----------------------------------------------------


def test_child_at_runs_once_per_prefix(monkeypatch):
    calls = []

    def counting(tree, path):
        calls.append(tuple(path))
        return child_at(tree, path)

    monkeypatch.setattr(fembasis.basis, "child_at", counting)
    basis = make_basis(StructuredGrid(3, 2), parse_tree(TH2))
    coefficients = NestedVector()
    coefficients.resize_from_basis(basis)
    prefixes = [(), (0,), (0, 1), (1,)]
    for prefix in prefixes:
        for _ in range(2):
            sub = subspace_basis(basis, prefix)
            view = sub.local_view()
            view.bind(5)
            view.index(0)
            basis.element_offsets(prefix)
            interpolate(sub, coefficients, lambda p: 1.5)
            evaluate_discrete(sub, coefficients, (0.3, 0.7))
    basis.local_view()
    assert sorted(calls) == sorted(prefixes)


@pytest.mark.parametrize("digit", [True, np.True_, 0.5, 1.0, np.float64(1.0)], ids=repr)
def test_a_path_digit_that_is_not_an_integer_raises_type_error(digit):
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH2))
    for path in [(digit,), (0, digit)]:
        for call in (
            lambda: subspace_basis(basis, path),
            lambda: basis.node_grid(path),
            lambda: basis.element_offsets(path),
            lambda: basis.leaf_dof_index(path, 3),
            lambda: child_at(basis.tree, path),
        ):
            with pytest.raises(TypeError, match="path digit"):
                call()


def test_a_cached_scope_does_not_answer_a_path_that_is_not_an_integer():
    """(0, 1.0) and (0, True) hash and compare like the cached (0, 1)."""
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH2))
    subspace_basis(basis, (0, 1)).local_view()
    basis.element_offsets((0, 1))
    for path in [(0, 1.0), (0, True), (np.float64(0.0), 1)]:
        with pytest.raises(TypeError, match="path digit"):
            subspace_basis(basis, path)
        with pytest.raises(TypeError, match="path digit"):
            basis.element_offsets(path)


def test_numpy_integer_digits_address_the_scope_of_the_ints():
    basis = make_basis(StructuredGrid(2, 2), parse_tree(TH2))
    sub = subspace_basis(basis, (np.int64(0), np.int32(1)))  # built from numpy digits first
    assert all(type(digit) is int for digit in sub.prefix_path)
    assert basis._scope((0, 1)) is basis._scope((np.int64(0), np.int64(1)))
    assert basis.element_offsets((0, 1)) is basis.element_offsets(np.array([0, 1]))
    assert basis.leaf_dof_index((np.int64(1),), 3) == basis.leaf_dof_index((1,), 3)
    assert child_at(basis.tree, (np.int64(0), np.int64(1))) == child_at(basis.tree, (0, 1))


def test_views_of_one_prefix_share_their_leaves():
    basis = make_basis(StructuredGrid(2, 3), parse_tree(TH3))
    for prefix in [(), (0,), (0, 2), (1,)]:
        first = subspace_basis(basis, prefix).local_view()
        for other in (
            subspace_basis(basis, prefix).local_view(),
            subspace_basis(subspace_basis(basis, prefix[:1]), prefix[1:]).local_view(),
            LocalView(basis, prefix),
        ):
            assert len(other.leaves) == len(first.leaves)
            assert all(a is b for a, b in zip(other.leaves, first.leaves))
    assert all(a is b for a, b in zip(basis.local_view().leaves, LocalView(basis).leaves))


def test_views_interpolation_and_boundary_build_no_offset_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an offset table was built")

    # the assembly reads an offset table, so its cavity is built on another basis beforehand
    cavity = make_basis(StructuredGrid(3, 3), parse_tree(TH2))
    system, rhs = SparseSystem(), NestedVector()
    assemble_stokes_matrix(cavity, system)
    rhs.resize_from_basis(cavity)
    apply_dirichlet(system, rhs, cavity)
    system.freeze()
    monkeypatch.setattr(fembasis.basis, "sliding_window_view", refuse)
    basis = make_basis(StructuredGrid(3, 3), parse_tree(TH2))
    coefficients, mask = NestedVector(), NestedVector()
    coefficients.resize_from_basis(basis)
    mask.resize_from_basis(basis, fill=True)
    for prefix in [(), (0,), (0, 1), (1,)]:
        sub = subspace_basis(basis, prefix)
        view = sub.local_view()
        assert view.max_size == sum(leaf.size for leaf in view.leaves)
        interpolate(sub, coefficients, lambda p: 2.0)
        interpolate_masked(sub, coefficients, lambda p: 3.0, mask)
        assert len(boundary_offsets(sub))
    assert solve_stokes(basis, system, rhs)[1] <= 1e-8


# -- keys are built on their first read --------------------------------------


def forbid_keys(monkeypatch):
    def refuse(*args):
        raise AssertionError("a MultiIndex was built")

    monkeypatch.setattr(MultiIndex, "__new__", refuse)


def test_layout_length_builds_no_keys(monkeypatch):
    basis = make_basis(StructuredGrid(5, 6), parse_tree(TH2))
    with monkeypatch.context() as m:
        forbid_keys(m)
        assert len(basis.layout) == basis.dimension() == 2 * 13 * 11 + 6 * 7
        assert basis.layout is basis.layout
    assert basis.layout.keys[0] == (0, 0, 0)


def test_size_builds_no_layout_keys(monkeypatch):
    basis = make_basis(StructuredGrid(4, 4), parse_tree(TH3))
    built = []
    new = MultiIndex.__new__

    def counted(cls, digits=()):
        digits = tuple(digits)
        built.append(digits)
        return new(cls, digits)

    monkeypatch.setattr(MultiIndex, "__new__", counted)
    for prefix, degree in [((), 2), ((0,), 81), ((0, 0), 3), ((0, 0, 1), 0), ((1, 7), 0)]:
        built.clear()
        assert basis.size(prefix) == degree
        assert built in ([], [prefix])  # at most the prefix itself
    built.clear()
    with pytest.raises(PrefixNotFound):
        basis.size((1, 7, 0))
    assert built in ([], [(1, 7, 0)])


def test_lazy_layout_keys_equal_the_eager_build():
    nx, ny = 3, 2
    for _, basis in strategy_table_bases(StructuredGrid(nx, ny), 2):
        tree = basis.tree
        eager = Layout(sorted(
            MultiIndex(expected_leaf_index(tree, nx, ny, path, flat))
            for path, order in _leaf_paths(tree)
            for flat in range((order * nx + 1) * (order * ny + 1))
        ))
        lazy = basis.layout
        assert len(lazy) == len(eager) == basis.dimension()
        assert lazy.keys == eager.keys
        assert all(type(key) is MultiIndex for key in lazy.keys)
        assert lazy.offset == eager.offset
        assert lazy.keys is basis.layout.keys  # built once


def test_bind_builds_no_keys_until_index(monkeypatch):
    basis = make_basis(StructuredGrid(3, 2), parse_tree(TH2))
    view = basis.local_view()
    with monkeypatch.context() as m:
        forbid_keys(m)
        view.bind(4)
        assert view.size == 22
        assert view.geometry.hx == 1 / 3
        assert view.element == 4
    keys = basis.layout.keys
    offsets = basis.element_offsets()
    assert view.multi_indices() == tuple(keys[r] for r in offsets[4].tolist())
    assert view.index(21) is keys[offsets[4, 21]]
    view.bind(5)  # a new element drops the keys of the last one
    assert [view.index(i) for i in range(22)] == [keys[r] for r in offsets[5].tolist()]
    view.unbind()
    with pytest.raises(UnboundView):
        view.index(0)
    with pytest.raises(UnboundView):
        view.multi_indices()
    with pytest.raises(UnboundView):
        view.size
