"""One benchmark process: set up a workload, run timed passes, check them.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH.  Prints
``READY`` once set-up is done (``run.py`` times set-up up to that line),
then, unless ``--setup-only``, runs passes back to back for ``--seconds``
and prints one JSON result as its last line.  Output the program prints
itself is captured by the workloads, so stdout carries only this protocol.

With ``--trace 1`` set-up and every second pass run under the tracer,
the others untraced; the difference of their medians is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types

import numpy as np

from spans import PASS, Tracer, per_layer
from workloads import WORKLOADS

MIN_PASSES = 3
# a slow program still ends within this multiple of --seconds
MAX_OVERRUN = 3


def load_program(src):
    modules = {}
    for name in ("basis", "cli", "containers", "functions", "gmres", "grid", "stokes"):
        modules[name] = importlib.import_module(f"fembasis.{name}")
    package = sys.modules["fembasis"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(os.path.abspath(src), "fembasis"):
        raise SystemExit(f"fembasis was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**modules)


def machine_record():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    fb = load_program(args.src)
    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = workload.setup(fb, rng, args.out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer:
        tracer.uninstall()
    workload.prepare(fb, state)

    walls = {False: [], True: []}
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    failures = []
    failed = attempted = 0
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and attempted % 2 == 1
        if traced:
            tracer.pass_id = attempted + 1
            tracer.install()
        gc.collect()
        t0 = time.perf_counter()
        try:
            output = workload.run_pass(fb, state)
            problems = None
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if attempted == 0:
            # later passes reuse freed memory, so their peak depends on
            # how many ran; set-up plus one pass does not
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if problems is None:
            try:
                problems = workload.check(fb, state, output)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            del output
        attempted += 1
        if problems:
            failed += 1
            failures.extend(problems[:3])
        else:
            walls[traced].append(wall)
        elapsed = time.perf_counter() - start
        # a traced run needs one traced and one untraced pass
        if elapsed >= args.seconds * MAX_OVERRUN and attempted > bool(tracer):
            break
        # start another pass only if it should end within --seconds
        if attempted >= min_passes and elapsed * (attempted + 1) / attempted > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "walls": walls[False],
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_record(),
    }
    if tracer:
        traced_passes = sorted({s[PASS] for s in tracer.spans if s[PASS] > 0})
        layers = per_layer(tracer, 0, traced_passes) if traced_passes else {}
        if walls[True] and walls[False]:
            layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        result["per_layer"] = layers
        tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
