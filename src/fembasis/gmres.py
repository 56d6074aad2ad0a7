"""Restarted GMRes: Arnoldi by classical Gram-Schmidt, applied twice, and Givens rotations.

The core routine works on flat numpy arrays and an abstract matvec,
optionally right-preconditioned.  :func:`solve_system` bridges it to the
multi-index world: a :class:`~fembasis.containers.NestedVector` rhs is
already flat, and the matvec is the one ``SparseSystem.matvec`` uses,
:meth:`~fembasis.containers.SparseSystem.operator` over the rhs layout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .containers import NestedVector, SparseSystem
from .errors import integer, positive_real


@dataclass(frozen=True)
class SolverConfig:
    """Krylov solver parameters, defaulted and checked here for every solve.

    restart: Krylov dimension per cycle, at least 1.
    max_iterations: total budget across restarts, at least 0; one matvec each.
    tolerance: relative residual target ``||b - Ax|| / ||b||``, a real > 0.

    A bool or a non-integer count, or a non-real tolerance, raises
    TypeError, a value out of range ValueError; numpy numbers are stored
    as ints and floats.
    """

    restart: int = 100
    max_iterations: int = 5000
    tolerance: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "restart", integer(self.restart, "restart"))
        object.__setattr__(self, "max_iterations", integer(self.max_iterations, "max_iterations"))
        object.__setattr__(self, "tolerance", positive_real(self.tolerance, "tolerance"))
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


def _identity(v):
    return v


def _timed(fn, seconds, name):
    """``fn`` adding the wall time of every call to ``seconds[name]``."""
    def timed(v):
        start = time.perf_counter()
        result = fn(v)
        seconds[name] += time.perf_counter() - start
        return result
    return timed


def gmres(matvec, b, config=None, *, x0=None, precondition=None, record=None):
    """Solve A x = b with restarted, optionally right-preconditioned GMRes.

    Arguments:
        matvec: callable mapping a vector to A times that vector.
        b: right hand side, 1d array; a non-finite entry here or in x0, or a
            non-finite residual or Arnoldi norm later, raises ValueError.
            A finite b whose 2-norm overflows is solved as b / s from x0 / s,
            s its largest magnitude, in the same single loop, and the
            solution is scaled back by s on return.
        config: the :class:`SolverConfig` (restart length, iteration budget
            and tolerance), ``SolverConfig()`` if None; anything else
            raises TypeError before any matvec.
        x0: optional initial iterate; zero slots of x0 whose matrix row is
            an identity row stay exact through all iterations, provided
            the preconditioner passes those slots through unchanged.
        precondition: optional callable applying M^-1 to a vector.  Arnoldi
            then runs on A M^-1 and the update is x += M^-1 V y, so the
            stopping test stays on the true residual.
        record: optional dict; gmres sets ``record["stop"]`` to why it
            stopped, ``"converged"`` (relative residual at most the
            tolerance), ``"budget"`` (the budget spent) or ``"stalled"`` (a
            restart cycle made no progress and Arnoldi broke down),
            ``record["residuals"]`` to the relative residual estimate after
            every iteration and ``record["seconds"]`` to the wall seconds in
            ``"matvec"``, in ``"precondition"`` and in the rest (``"krylov"``).

    Returns:
        (x, relative residual, iterations).  A zero rhs returns x = 0
        exactly with zero iterations (stop ``"converged"``, no residuals).
        Hitting the iteration budget is a reported outcome, not an error.
        After a ``"stalled"`` stop on a singular system with no solution, x
        is a least-residual point with an arbitrary but bounded null
        component: a column whose rotated diagonal is lost in round-off
        ends the cycle instead of entering the triangular solve.
    """
    entry = time.perf_counter()
    config = SolverConfig() if config is None else config
    if not isinstance(config, SolverConfig):
        raise TypeError(f"config must be a SolverConfig, got {config!r}")
    restart, max_iterations, tolerance = config.restart, config.max_iterations, config.tolerance
    b = np.asarray(b, dtype=float)
    for name, v in (("b", b), ("x0", x0)):
        if v is not None and not np.isfinite(v).all():
            raise ValueError(f"{name} has a non-finite entry")
    with np.errstate(over="ignore"):
        bnorm = float(np.linalg.norm(b))
    scale = 1.0  # x is solved for b / scale from x0 / scale; x * 1.0 is x bitwise
    if bnorm == math.inf:
        # ||b|| overflows though b is finite: b / its largest magnitude does not
        scale = float(np.max(np.abs(b)))
        b = b / scale
        x0 = None if x0 is None else np.asarray(x0, dtype=float) / scale
        bnorm = float(np.linalg.norm(b))
    seconds = dict.fromkeys(("matvec", "precondition", "krylov"), 0.0)
    matvec = _timed(matvec, seconds, "matvec")
    precondition = _timed(precondition or _identity, seconds, "precondition")
    residuals = []  # the relative residual estimate after every iteration
    iters = 0

    def done(stop, x, relres):
        seconds["krylov"] = time.perf_counter() - entry - sum(seconds.values())  # krylov is 0.0
        if record is not None:
            record.update(stop=stop, residuals=residuals, seconds=seconds)
        return x * scale, relres, iters

    if bnorm == 0.0:
        return done("converged", np.zeros_like(b), 0.0)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    # one Krylov buffer for every cycle: each row is written before it is read
    V = np.empty((min(restart, max_iterations) + 1, b.size))
    prev_rnorm, stalled = math.inf, False
    while True:
        r = b - matvec(x)
        rnorm = math.sqrt(r.dot(r))
        if not math.isfinite(rnorm):
            raise ValueError(f"the residual after {iters} iterations is not finite")
        if rnorm / bnorm <= tolerance:
            return done("converged", x, rnorm / bnorm)
        if iters >= max_iterations:
            return done("budget", x, rnorm / bnorm)
        if rnorm >= prev_rnorm and stalled:
            # a whole restart cycle brought no progress and Arnoldi broke
            # down: the Krylov space is exhausted, more cycles cannot help
            return done("stalled", x, rnorm / bnorm)
        prev_rnorm = rnorm

        np.divide(r, rnorm, out=V[0])
        # rotated Hessenberg columns, the rotations and the rotated rhs, as Python floats
        columns, cs, sn, g = [], [], [], [rnorm]
        k = 0
        while k < restart and iters < max_iterations:
            basis = V[: k + 1]
            w = matvec(precondition(V[k]))
            h = basis.dot(w)  # classical Gram-Schmidt, twice: orthogonal to round-off
            if not math.isfinite(h[0]):  # h[0] reads all of w; checked before inf - inf warns
                raise ValueError(f"the Arnoldi vector of iteration {iters + 1} is not finite")
            w = w - h.dot(basis)  # a new array: matvec may return its argument aliased
            h2 = basis.dot(w)
            w -= h2.dot(basis)
            hk1 = math.sqrt(w.dot(w))
            if not math.isfinite(hk1):
                raise ValueError(f"the Arnoldi vector of iteration {iters + 1} is not finite")
            if hk1 > 0.0:
                np.divide(w, hk1, out=V[k + 1])
            # rotate the column; 0.0 + h + h2 sums as into a zeroed column: never to -0.0
            entries = (0.0 + h + h2).tolist()
            column, diagonal = [], entries[0]
            for c, s, below in zip(cs, sn, entries[1:]):
                column.append(c * diagonal + s * below)
                diagonal = -s * diagonal + c * below
            denom = math.hypot(diagonal, hk1)
            iters += 1
            # the rotations keep the column's norm; a diagonal lost in its round-off is a
            # breakdown: the column is dropped (it would blow up y), the residual stays
            rotated = np.array([*column, diagonal, hk1])
            stalled = denom <= 1e-14 * math.sqrt(rotated.dot(rotated))
            if not stalled:
                cs.append(diagonal / denom)
                sn.append(hk1 / denom)
                columns.append(column + [denom])
                g[k:] = cs[k] * g[k], -sn[k] * g[k]
                k += 1
            residuals.append(abs(g[k]) / bnorm)
            if stalled or residuals[-1] <= tolerance:  # also a happy breakdown: sn = 0 zeroes g[k]
                break

        if k:
            # the rotated columns, zero-padded, are the rows of an upper triangle's transpose
            triangle = np.array([column + [0.0] * (k - len(column)) for column in columns]).T
            y = np.linalg.solve(triangle, g[:k])
            x = x + precondition(V[:k].T.dot(y))


def solve_system(
    system: SparseSystem, rhs: NestedVector, config=None, x0=None, preconditioner=None, record=None
):
    """Solve a frozen sparse system for a nested rhs.

    Returns (solution, relative residual, iterations) with the solution
    shaped like the rhs.  The rhs must be laid out like the system, else
    ShapeMismatch; ``x0``, if given, shares the rhs layout.
    ``preconditioner``, if given, is the M^-1 application on flat arrays
    over the rhs layout; it goes to :func:`gmres` unchanged, and so does
    ``record``, which receives why the solve stopped and the residual
    history.  A Taylor-Hood Stokes system is solved in the pressure space
    by :func:`~fembasis.stokes.solve_stokes` instead.
    """
    x, relres, iters = gmres(
        system.operator(rhs.layout),
        rhs.values,
        config,
        x0=None if x0 is None else x0.values,
        precondition=preconditioner,
        record=record,
    )
    return NestedVector.from_flat(rhs.layout, x), relres, iters
