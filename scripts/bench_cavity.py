"""Time the driven cavity at fixed grids and append one entry to ``BENCH_cavity.json``.

For every grid the script starts ``--processes`` fresh Python processes.
Each runs ``run_driven_cavity`` several times in-process and reports the
median of its runs for every ``stage_seconds`` and ``solve_seconds``
entry; the entry keeps the median, min and max of those per-process
medians.  It also times ``python -m fembasis.cli stokes`` end to end, as
many times, once with ``OPENBLAS_NUM_THREADS=1`` and once with the
variable unset, so start-up is counted as a user waits for it.  Counts
come from the basis, not from the assembled system (``len(system)``
sorts every entry): DOFs per leaf, stored entries (elements x the local
size squared) and identity rows (the velocity ring)::

    python scripts/bench_cavity.py                  # grids 8 16 32 64 128
    python scripts/bench_cavity.py --grids 8 16 --processes 1 --out /tmp/b.json

The file is a trajectory: each run appends one entry, labelled with the
short commit hash of the checkout (``-dirty`` when tracked files differ
from it), the hash of the ``src`` tree it timed, the date, the CPU count,
the Python and numpy versions and the BLAS thread setting the in-process
runs inherited.  To time another commit, copy this script into a
checkout of it and point ``--out`` here.  The package is imported from
the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRIDS = [8, 16, 32, 64, 128]
RUNS = {8: 21, 16: 21, 32: 11, 64: 7, 128: 3}  # in-process runs per process; 5 elsewhere


def worker(n: int) -> dict:
    """Medians of the in-process cavity runs at n x n, and the basis's counts."""
    from fembasis import subspace_basis
    from fembasis.functions import boundary_offsets
    from fembasis.stokes import run_driven_cavity

    summaries = []
    with tempfile.TemporaryDirectory() as directory:
        for _ in range(RUNS.get(n, 5)):
            with contextlib.redirect_stdout(io.StringIO()):
                summaries.append(run_driven_cavity(n, n, out_path=Path(directory) / "c.vtu"))
    basis = summaries[0].basis
    view = basis.local_view()
    return {
        "dimension": basis.dimension(),
        "dofs_per_leaf": {
            ",".join(map(str, leaf.tree_path)): int(basis.node_grid(leaf.tree_path).size)
            for leaf in view.leaves
        },
        "stored_entries": basis.grid.num_elements * view.max_size**2,
        "identity_rows": len(boundary_offsets(subspace_basis(basis, (0,)))),
        "outcomes": sorted({(s.iterations, s.stop) for s in summaries}),
        "stage_seconds": {
            name: statistics.median(s.stage_seconds[name] for s in summaries)
            for name in summaries[0].stage_seconds
        },
        "solve_seconds": {
            name: statistics.median(s.solve_seconds[name] for s in summaries)
            for name in summaries[0].solve_seconds
        },
    }


def spread(seconds) -> dict:
    """Median, min and max, to a tenth of a microsecond."""
    summaries = {"median": statistics.median, "min": min, "max": max}
    return {key: round(summary(seconds), 7) for key, summary in summaries.items()}


def environment(**changes) -> dict:
    """This process's environment with ``src`` on the path; a None value unsets a variable."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def in_process(n: int, processes: int) -> dict:
    reports = []
    for _ in range(processes):
        command = [sys.executable, __file__, "--worker", str(n)]
        done = subprocess.run(command, capture_output=True, check=True, env=environment())
        reports.append(json.loads(done.stdout))
    first = reports[0]
    if any(r["outcomes"] != first["outcomes"] or len(r["outcomes"]) != 1 for r in reports):
        raise RuntimeError(f"runs at {n}x{n} disagree on iterations or stop: {reports}")
    (iterations, stop), = first["outcomes"]
    entry = {"dimension": first["dimension"], "iterations": iterations, "stop": stop}
    for key in ("dofs_per_leaf", "stored_entries", "identity_rows"):
        entry[key] = first[key]
    entry["runs_per_process"] = RUNS.get(n, 5)
    for part in ("stage_seconds", "solve_seconds"):
        entry[part] = {name: spread([r[part][name] for r in reports]) for name in first[part]}
    return entry


def cli_seconds(n: int, processes: int) -> dict:
    """Wall seconds of ``python -m fembasis.cli stokes`` at one BLAS thread and at the default."""
    timed = {}
    with tempfile.TemporaryDirectory() as directory:
        command = [sys.executable, "-m", "fembasis.cli", "stokes", "--grid", f"{n}x{n}"]
        command += ["--out", str(Path(directory) / "c.vtu")]
        for label, threads in (("openblas_1", "1"), ("openblas_unset", None)):
            env = environment(OPENBLAS_NUM_THREADS=threads)
            seconds = []
            for _ in range(processes):
                start = time.perf_counter()
                subprocess.run(command, capture_output=True, check=True, env=env)
                seconds.append(time.perf_counter() - start)
            timed[label] = spread(seconds)
    return timed


def checkout() -> dict:
    """Short hashes of HEAD (``-dirty`` when tracked files differ) and of the timed ``src`` tree.

    ``src_tree`` equals ``git rev-parse --short <commit>:src`` of every commit
    that holds the same tracked source, so an entry measured on uncommitted
    changes names the commit that later holds them.
    """

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode:
        return {"commit": "unknown", "src_tree": "unknown"}
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    snapshot = git("stash", "create").stdout.strip() or "HEAD"  # the working tree; moves no ref
    src_tree = git("rev-parse", "--short", f"{snapshot}:src").stdout.strip()
    return {"commit": head.stdout.strip() + ("-dirty" if dirty else ""), "src_tree": src_tree}


def entry(grids, processes: int) -> dict:
    import numpy as np

    record = {
        **checkout(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "processes": processes,
        "grids": {},
    }
    for n in grids:
        timed = in_process(n, processes)
        timed["cli_seconds"] = cli_seconds(n, processes)
        record["grids"][f"{n}x{n}"] = timed
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=int, nargs="+", default=GRIDS, help="cells per side")
    parser.add_argument("--processes", type=int, default=3, help="fresh processes per grid")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cavity.json")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0
    trajectory = json.loads(args.out.read_text()) if args.out.exists() else []
    trajectory.append(entry(args.grids, args.processes))
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
