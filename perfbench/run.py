"""fembasis benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cavity-12 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src``.  Each workload runs in fresh worker processes with BLAS and
OpenMP capped at one thread:

* ``--trace 0``: several set-up-only processes and one measuring process.
  ``setup_s`` is the median time from starting a process until it is
  ready for its first pass, ``wall_s`` the median seconds per checked
  pass, ``peak_rss_mb`` the measuring process's peak resident memory.
* ``--trace 1``: one process that alternates untraced and traced passes
  and reports the per-layer metrics (see README.md).

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when any pass fails its output check and 2 when the
program or a worker cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        # the same import cost whatever the caller's environment: the
        # program is compiled from source in every process
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, root: Path, setup_only: bool):
    """Start one worker; return (seconds until READY, parsed result or None)."""
    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(root / "src"), "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=worker_env(root / "src"), stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} before finishing")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    return {"gmres.relres": "1", "vtu.bytes": "B"}.get(name, "s" if name.endswith("_s") else "count")


def describe_walls(walls) -> str:
    text = f"median of {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls)
    # the highest percentile with at least ten samples above it
    if len(walls) >= 20:
        p = 100 * (len(walls) - 10) // len(walls)
        text += f", p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4f} s"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "fembasis" / "__init__.py").is_file():
        print(f"error: no fembasis sources under {root / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args, root, setup_only=True)[0] for _ in range(SETUP_PROBES)]
        setup, result = run_worker(args, root, setup_only=False)
    except (WorkerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(setup)

    print("machine: " + json.dumps(result["machine"]))
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    walls = result["walls"]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(result["per_layer"].items())
        }
        for name, m in metrics.items():
            print(f"{args.workload}: {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls) if walls else None, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        if walls:
            print(f"{args.workload}: wall_s {metrics['wall_s']['value']:.4f} s ({describe_walls(walls)})")
        print(f"{args.workload}: setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)} set-ups)")
        print(f"{args.workload}: peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    print(
        f"{args.workload}: fail_rate {result['failed'] / result['attempted']:.3f} "
        f"({result['failed']} of {result['attempted']} passes failed)"
    )
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
