"""The three benchmark workloads.

Each workload has ``setup`` (program work done once per process, counted
in ``setup_s``), ``prepare`` (the benchmark's own oracle work, untimed),
``run_pass`` (one timed pass) and ``check`` (untimed output checks that
return failure messages).  Sizes are fixed; the seed only draws values.

The program is reached through its modules (``fb.stokes.run_driven_cavity``
and so on) at call time, so that a tracer patching those modules sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import oracles


def _flat(vector, multi_indices):
    return np.array([vector[mi] for mi in multi_indices], dtype=float)


class Cavity:
    """``fembasis stokes --grid 12x12``: assemble, GMRes solve, VTU."""

    name = "cavity-12"
    nx = ny = 12
    sampled_vertices = 20

    def setup(self, fb, rng, out_dir):
        vertices = rng.choice((self.nx + 1) * (self.ny + 1), self.sampled_vertices, replace=False)
        return {"vtu": os.path.join(out_dir, "cavity-12.vtu"), "vertices": sorted(int(v) for v in vertices)}

    def prepare(self, fb, state):
        state["reference"] = oracles.reference_cavity_system(self.nx, self.ny)

    def run_pass(self, fb, state):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            summary = fb.stokes.run_driven_cavity(self.nx, self.ny, out_path=state["vtu"])
        return summary, printed.getvalue()

    def check(self, fb, state, output):
        summary, printed = output
        layout = state["reference"][0]
        x = _flat(summary.solution, layout.multi_indices())
        failures = oracles.check_cavity_solution(state["reference"], x, summary.converged)
        failures += oracles.check_vtu_vertices(
            state["vtu"], self.nx, self.ny, x, layout, state["vertices"]
        )
        if not printed.startswith(f"dim={layout.dimension} "):
            failures.append(f"summary line {printed.strip()!r} does not report dim={layout.dimension}")
        return failures


class Assemble:
    """Taylor-Hood system at 32x32 with Dirichlet rows and a divergence check."""

    name = "assemble-32"
    nx = ny = 32

    def setup(self, fb, rng, out_dir):
        a, b, c, d, p0 = (float(v) for v in rng.uniform(-1.0, 1.0, 5))
        grid = fb.grid.StructuredGrid(self.nx, self.ny)
        basis = fb.basis.make_basis(grid, fb.stokes.taylor_hood_tree())

        def field(p):
            return [[a * p[1] + b, c * p[0] + d], p0]

        return {"basis": basis, "field": field, "coeffs": (a, b, c, d, p0)}

    def prepare(self, fb, state):
        layout = oracles.TaylorHoodLayout(self.nx, self.ny)
        state["layout"] = layout
        state["slot"] = {mi: k for k, mi in enumerate(layout.multi_indices())}
        layout.distinct_pairs  # computed once, outside every check

    def run_pass(self, fb, state):
        basis = state["basis"]
        system = fb.containers.SparseSystem()
        fb.stokes.assemble_stokes_matrix(basis, system)
        rhs = fb.containers.NestedVector()
        rhs.resize_from_basis(basis)
        fb.stokes.apply_dirichlet(system, rhs, basis)
        system.freeze()
        x = fb.containers.NestedVector()
        x.resize_from_basis(basis)
        fb.functions.interpolate(basis, x, state["field"])
        divergence = fb.stokes.weak_divergence_norm(system, x)
        return system, rhs, x, divergence

    def check(self, fb, state, output):
        system, rhs, x, divergence = output
        layout, slot = state["layout"], state["slot"]
        row_keys, col_keys, values = zip(*system.triples())
        rows = np.fromiter(map(slot.__getitem__, row_keys), dtype=np.int64, count=len(row_keys))
        cols = np.fromiter(map(slot.__getitem__, col_keys), dtype=np.int64, count=len(col_keys))
        vals = np.array(values, dtype=float)
        xf = _flat(x, layout.multi_indices())
        failures = oracles.check_stokes_null_vector(layout, rows, cols, vals, xf, state["coeffs"])
        b = _flat(rhs, layout.multi_indices())
        bnd, data = layout.boundary_velocity()
        expected = np.zeros(layout.dimension)
        expected[bnd] = data
        if not np.array_equal(b, expected):
            failures.append("rhs differs from the Dirichlet data")
        if not divergence <= 1e-12 * max(1.0, float(np.max(np.abs(xf)))):
            failures.append(f"weak divergence norm {divergence:.3e} of a divergence-free field")
        return failures


class IndexTable:
    """The eight Table-1 numberings at 16x16 with 3 velocity components."""

    name = "index-table1"
    nx = ny = 16
    components = 3
    points = 200

    def setup(self, fb, rng, out_dir):
        # rows: velocity components 0..2, then pressure; columns c0, cx, cy
        coeffs = rng.uniform(-1.0, 1.0, (self.components + 1, 3))
        points = [tuple(float(v) for v in p) for p in rng.uniform(0.0, 1.0, (self.points, 2))]
        grid = fb.grid.StructuredGrid(self.nx, self.ny)
        bases = fb.cli.strategy_table_bases(grid, self.components)

        def field(p):
            v = coeffs[:, 0] + coeffs[:, 1] * p[0] + coeffs[:, 2] * p[1]
            return [[float(c) for c in v[:-1]], float(v[-1])]

        return {"bases": bases, "coeffs": coeffs, "points": points, "field": field}

    def prepare(self, fb, state):
        q2 = (2 * self.nx + 1) * (2 * self.ny + 1)
        state["dimension"] = self.components * q2 + (self.nx + 1) * (self.ny + 1)

    def run_pass(self, fb, state):
        results = []
        for label, basis in state["bases"]:
            view = basis.local_view()
            indices = []
            for e in range(basis.grid.num_elements):
                view.bind(e)
                indices.extend(view.index(i) for i in range(view.size))
            coefficients = fb.containers.NestedVector()
            coefficients.resize_from_basis(basis)
            fb.functions.interpolate(basis, coefficients, state["field"])
            values = [fb.functions.evaluate_discrete(basis, coefficients, p) for p in state["points"]]
            results.append((label, basis.dimension(), indices, values))
        return results

    def check(self, fb, state, output):
        failures = []
        for label, dimension, indices, values in output:
            problems = oracles.check_index_table(indices, state["dimension"])
            if dimension != state["dimension"]:
                problems.append(f"dimension() is {dimension}, expected {state['dimension']}")
            problems += oracles.check_affine_values(state["coeffs"], state["points"], values)
            failures += [f"{label}: {p}" for p in problems]
        return failures


WORKLOADS = {w.name: w for w in (Cavity(), Assemble(), IndexTable())}
