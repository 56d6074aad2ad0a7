"""Restarted GMRes: Arnoldi by classical Gram-Schmidt, applied twice, and Givens rotations.

The core routine works on flat numpy arrays and an abstract matvec,
optionally right-preconditioned.  :func:`solve_system` bridges it to the
multi-index world: a rhs :class:`~fembasis.containers.NestedVector` is
already a flat array over its layout, and the matvec is the flat product
of a frozen :class:`~fembasis.containers.SparseSystem` over that layout
(:meth:`~fembasis.containers.SparseSystem.operator`), the same one
``SparseSystem.matvec`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .containers import NestedVector, SparseSystem


@dataclass(frozen=True)
class SolverConfig:
    """Krylov solver parameters; pin_pressure is consumed by the Stokes layer."""

    restart: int = 100
    max_iterations: int = 5000
    tolerance: float = 1e-8
    pin_pressure: bool = False

    def __post_init__(self):
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


def _identity(v):
    return v


def gmres(
    matvec, b, *, restart=100, tol=1e-8, maxiter=5000, x0=None, precondition=None, record=None
):
    """Solve A x = b with restarted, optionally right-preconditioned GMRes.

    Arguments:
        matvec: callable mapping a vector to A times that vector.
        b: right hand side, 1d array.
        restart: Krylov space dimension per cycle.
        tol: relative residual target, measured as ||b - A x|| / ||b||.
        maxiter: total iteration (matvec) budget across restarts.
        x0: optional initial iterate; zero slots of x0 whose matrix row is
            an identity row stay exact through all iterations, provided
            the preconditioner passes those slots through unchanged.
        precondition: optional callable applying M^-1 to a vector.  Arnoldi
            then runs on A M^-1 and the update is x += M^-1 V y, so the
            stopping test stays on the true residual.
        record: optional dict; gmres sets ``record["stop"]`` to why it
            stopped, ``"converged"`` (relative residual at most tol),
            ``"budget"`` (maxiter iterations done) or ``"stalled"`` (a
            restart cycle made no progress and Arnoldi broke down), and
            ``record["residuals"]`` to the relative residual estimate
            after every iteration.

    Returns:
        (x, relative residual, iterations).  A zero rhs returns x = 0
        exactly with zero iterations (stop ``"converged"``, no residuals).
        Hitting the iteration budget is a reported outcome, not an error.
        After a ``"stalled"`` stop, on a singular system with no solution,
        x is a least-residual point: its component along the null
        direction is arbitrary, but bounded, since a column whose rotated
        diagonal drops below round-off of the column's norm ends the
        cycle instead of entering the triangular solve.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if precondition is None:
        precondition = _identity
    bnorm = float(np.linalg.norm(b))
    residuals = []  # the relative residual estimate after every iteration
    if bnorm == 0.0:
        if record is not None:
            record.update(stop="converged", residuals=residuals)
        return np.zeros(n), 0.0, 0
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    iters = 0
    prev_rnorm = math.inf
    stalled = False
    while True:
        r = b - matvec(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm / bnorm <= tol:
            stop = "converged"
        elif iters >= maxiter:
            stop = "budget"
        elif rnorm >= prev_rnorm and stalled:
            # a whole restart cycle brought no progress and Arnoldi broke
            # down: the Krylov space is exhausted, more cycles cannot help
            stop = "stalled"
        else:
            stop = None
        if stop is not None:
            if record is not None:
                record.update(stop=stop, residuals=residuals)
            return x, rnorm / bnorm, iters
        prev_rnorm = rnorm
        stalled = False

        m = restart
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = rnorm
        V[0] = r / rnorm
        k = 0
        while k < m and iters < maxiter:
            # copy: matvec may return its argument aliased (identity is legal)
            w = np.array(matvec(precondition(V[k])), dtype=float)
            for _ in range(2):  # classical Gram-Schmidt, twice: orthogonal to round-off
                h = V[: k + 1] @ w
                H[: k + 1, k] += h
                w -= h @ V[: k + 1]
            hk1 = float(np.linalg.norm(w))
            H[k + 1, k] = hk1
            if hk1 > 0.0:
                V[k + 1] = w / hk1

            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            denom = math.hypot(H[k, k], H[k + 1, k])
            iters += 1
            # the rotations keep the column's norm; a diagonal lost in its
            # round-off is a breakdown, and solving with it would blow up y
            if denom <= 1e-14 * float(np.linalg.norm(H[: k + 2, k])):
                # drop the column: the residual stays where it was
                residuals.append(abs(float(g[k])) / bnorm)
                stalled = True
                break
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k += 1
            residuals.append(abs(float(g[k])) / bnorm)
            if residuals[-1] <= tol:  # also a happy breakdown, hk1 = 0: sn = 0 zeroes g[k]
                break

        if k:
            # the rotations left H[:k, :k] upper triangular with a nonzero diagonal
            y = np.linalg.solve(H[:k, :k], g[:k])
            x = x + precondition(V[:k].T @ y)


def solve_system(
    system: SparseSystem, rhs: NestedVector, config=None, x0=None, preconditioner=None, record=None
):
    """Solve a frozen sparse system for a nested rhs.

    Returns (solution, relative residual, iterations) with the solution
    shaped like the rhs.  The rhs must be laid out like the system, else
    ShapeMismatch; ``x0``, if given, shares the rhs layout.
    ``preconditioner``, if given, is the M^-1 application on flat arrays
    over the rhs layout, such as :func:`~fembasis.stokes.stokes_preconditioner`;
    it goes to :func:`gmres` unchanged, and so does ``record``, which
    receives why the solve stopped and the residual history.
    """
    cfg = config if config is not None else SolverConfig()
    layout = rhs.layout
    x, relres, iters = gmres(
        system.operator(layout),
        rhs.values,
        restart=cfg.restart,
        tol=cfg.tolerance,
        maxiter=cfg.max_iterations,
        x0=None if x0 is None else x0.values,
        precondition=preconditioner,
        record=record,
    )
    return NestedVector.from_flat(layout, x), float(relres), iters
