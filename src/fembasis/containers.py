"""Multi-index addressable containers: nested vectors and sparse systems.

A :class:`NestedVector` keeps its scalars in one flat numpy array over a
:class:`~fembasis.multiindex.Layout`, the multi-indices of an index tree
in lexicographic order; a multi-index addresses exactly the slot at its
flat offset.  Vectors shaped for a basis share the basis's layout, and the
nested-list form survives only as the derived ``data`` view.

A :class:`SparseSystem` keys matrix entries by (row, column) multi-index
pairs.  It collects dense blocks of entries and a set of identity rows;
summing them (on :meth:`~SparseSystem.freeze`) interns every key once,
sorts the entries row-major by key and adds up duplicates into arrays,
which all reads then use.
"""

from __future__ import annotations

import numpy as np

from .errors import AlreadyFrozen, NotFrozen, ShapeMismatch
from .multiindex import Layout, MultiIndex, as_multi_index


def _dtype(values):
    """Storage type: bool when every value is a bool, float64 otherwise."""
    if values and all(isinstance(v, (bool, np.bool_)) for v in values):
        return bool
    return float


class NestedVector:
    """Scalars shaped like an index tree, stored flat in offset order.

    ``NestedVector(nested_list)`` takes the layout from the list's nesting
    (a plain scalar is the one-slot vector addressed by ``()``);
    :meth:`resize_from_basis` takes it from a basis.
    """

    __slots__ = ("_layout", "_values")

    def __init__(self, data=0.0):
        keys, values = [], []

        def walk(node, path):
            if isinstance(node, list):
                for d, child in enumerate(node):
                    walk(child, path + (d,))
            else:
                keys.append(MultiIndex(path))
                values.append(node)

        walk(data, ())
        self._layout = Layout(keys)
        self._values = np.array(values, dtype=_dtype(values))

    @classmethod
    def from_flat(cls, layout: Layout, values) -> "NestedVector":
        """Vector over ``layout`` holding ``values`` (not copied)."""
        vector = cls.__new__(cls)
        vector._layout = layout
        vector._values = values
        return vector

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def values(self) -> np.ndarray:
        """The flat storage in offset order (shared, not a copy)."""
        return self._values

    @property
    def data(self):
        """Nested-list view of the values, built anew on every access."""
        root = []
        for key, value in zip(self._layout.keys, self._values.tolist()):
            if not key:
                return value
            node = root
            for digit in key[:-1]:
                if len(node) == digit:
                    node.append([])
                node = node[digit]
            node.append(value)
        return root

    def resize_from_basis(self, basis, fill=0.0) -> None:
        """Shape this vector for (the root basis of) ``basis``.

        Every basis function gets one slot initialized to ``fill``; a bool
        fill stores bools, any other fill float64.  Existing content is
        discarded.
        """
        self._layout = basis.root_basis.layout
        self._values = np.full(len(self._layout), fill, dtype=_dtype((fill,)))

    def _offset(self, key) -> int:
        if not isinstance(key, tuple):
            key = tuple(as_multi_index(key))
        offset = self._layout.offset.get(key)
        if offset is None:
            raise ShapeMismatch(f"{tuple(key)} addresses no scalar slot of this vector")
        return offset

    def __getitem__(self, key):
        return self._values.item(self._offset(key))

    def __setitem__(self, key, value) -> None:
        self._values[self._offset(key)] = value

    def entries(self):
        """Yield (multi-index, value) for every scalar slot, in offset order."""
        return zip(self._layout.keys, self._values.tolist())

    def copy(self) -> "NestedVector":
        return NestedVector.from_flat(self._layout, self._values.copy())

    def zeros_like(self) -> "NestedVector":
        return NestedVector.from_flat(self._layout, np.zeros(len(self._layout)))

    def __eq__(self, other):
        if not isinstance(other, NestedVector):
            return NotImplemented
        same_keys = self._layout is other._layout or self._layout.keys == other._layout.keys
        return same_keys and bool(np.array_equal(self._values, other._values))

    def __repr__(self):
        return f"NestedVector({self.data!r})"


class SparseSystem:
    """Sparse matrix keyed by (row, column) multi-index pairs.

    Lives in two phases: an accumulation phase (add_block, add_to_entry,
    set_row_to_identity) and, after freeze(), an immutable phase that
    supports deterministic matrix-vector products.
    """

    def __init__(self):
        self._blocks = []  # (row keys, column keys, dense values)
        self._identity_rows = {}  # insertion-ordered set of row keys
        self._summed = None  # (sorted keys, row ids, column ids, values)
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _require_mutable(self):
        if self._frozen:
            raise AlreadyFrozen("system is frozen")

    def add_block(self, rows, cols, values) -> None:
        """Accumulate the dense ``values`` onto the entries rows x cols."""
        self._require_mutable()
        rows = tuple(map(as_multi_index, rows))
        cols = tuple(map(as_multi_index, cols))
        block = np.asarray(values, dtype=float).reshape(len(rows), len(cols))
        self._blocks.append((rows, cols, block))
        self._summed = None

    def add_to_entry(self, row, col, value) -> None:
        """Accumulate ``value`` onto entry (row, col), creating it at 0."""
        self.add_block((row,), (col,), value)

    def set_row_to_identity(self, row) -> None:
        """Make ``row`` an identity row: 1 on the diagonal, 0 elsewhere.

        The row is applied when entries are summed, so every stored entry
        of the row is zeroed (and kept), including entries added to it
        after this call.
        """
        self._require_mutable()
        self._identity_rows[as_multi_index(row)] = None
        self._summed = None

    def _sum(self):
        identity = tuple(self._identity_rows)
        keys = sorted(set(identity).union(*(r + c for r, c, _ in self._blocks)))
        ids = {key: k for k, key in enumerate(keys)}
        fixed = np.array([ids[key] for key in identity], dtype=np.intp)
        # each identity row's diagonal joins as a structural entry
        rows, cols, values = [fixed], [fixed], [np.zeros(len(fixed))]
        for r, c, block in self._blocks:
            r = np.array([ids[key] for key in r], dtype=np.intp)
            c = np.array([ids[key] for key in c], dtype=np.intp)
            rows.append(np.repeat(r, len(c)))
            cols.append(np.tile(c, len(r)))
            values.append(block.ravel())
        rows, cols, values = map(np.concatenate, (rows, cols, values))
        # row-major by one combined key; stable, and bincount adds in input
        # order: duplicates are summed in the order they were added
        order = np.argsort(rows * len(keys) + cols, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        summed = np.bincount(np.cumsum(new) - 1, weights=values, minlength=int(new.sum()))
        rows, cols = rows[new], cols[new]
        on_fixed = np.isin(rows, fixed)
        summed[on_fixed] = 0.0
        summed[on_fixed & (rows == cols)] = 1.0
        return keys, rows, cols, summed

    def _arrays(self):
        if self._summed is None:
            self._summed = self._sum()
        return self._summed

    def freeze(self) -> None:
        """Sum all entries into sorted arrays and switch to the immutable phase."""
        self._require_mutable()
        self._arrays()
        self._frozen = True
        self._blocks = []

    def _keyed(self):
        keys, row_ids, col_ids, values = self._arrays()
        rows = map(keys.__getitem__, row_ids.tolist())
        cols = map(keys.__getitem__, col_ids.tolist())
        return zip(rows, cols, values.tolist())

    def triples(self):
        """Sorted (row, col, value) triples; requires a frozen system."""
        if not self._frozen:
            raise NotFrozen("freeze() the system first")
        return tuple(self._keyed())

    def __len__(self) -> int:
        return len(self._arrays()[3])

    def items(self):
        """Yield ((row, col), value) pairs in sorted order."""
        for r, c, v in self._keyed():
            yield (r, c), v

    def coo(self, slot):
        """Frozen entries as (rows, cols, values) arrays of slot positions.

        ``slot`` maps every key of the system to a flat position; it is
        asked once per distinct key.  A key without a slot raises
        ShapeMismatch.
        """
        if not self._frozen:
            raise NotFrozen("freeze() the system first")
        keys, row_ids, col_ids, values = self._arrays()
        try:
            position = np.fromiter(map(slot.__getitem__, keys), dtype=np.intp, count=len(keys))
        except KeyError as missing:
            raise ShapeMismatch(
                f"system key {missing.args[0]} has no slot in the vector layout"
            ) from None
        return position[row_ids], position[col_ids], values

    def matvec(self, x: NestedVector) -> NestedVector:
        """y = A x for a frozen system; y is shaped like x.

        ``x`` must provide a scalar slot for every row and column key;
        missing slots raise ShapeMismatch.
        """
        rows, cols, values = self.coo(x.layout.offset)
        y = np.bincount(rows, weights=values * x.values[cols], minlength=len(x.layout))
        return NestedVector.from_flat(x.layout, y)

    def dump(self) -> str:
        """One sorted "(row) (col) value" line per entry, for debugging."""
        return "\n".join(f"{r} {c} {float(v)!r}" for (r, c), v in self.items())
