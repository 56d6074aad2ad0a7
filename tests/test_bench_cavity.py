"""scripts/bench_cavity.py: one small grid in one process appends one entry."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

from fembasis import run_driven_cavity

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_cavity.py"


def test_the_bench_script_appends_one_entry_with_the_runs_stages(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps([{"commit": "earlier"}]))
    command = [sys.executable, str(SCRIPT), "--grids", "4", "--processes", "1"]
    subprocess.run(command + ["--out", str(out)], check=True, timeout=60, capture_output=True)
    earlier, entry = json.loads(out.read_text())
    assert earlier == {"commit": "earlier"}
    labels = {"commit", "src_tree", "date", "cpus", "python", "numpy", "openblas_num_threads"}
    assert labels <= set(entry)
    assert entry["solver"] == {"restart": 100, "max_iterations": 5000, "tolerance": 1e-8}

    with contextlib.redirect_stdout(io.StringIO()):
        summary = run_driven_cavity(4, 4, out_path=tmp_path / "c.vtu")
    (grid, timed), = entry["grids"].items()
    assert grid == "4x4"
    assert list(timed["stage_seconds"]) == list(summary.stage_seconds)
    assert list(timed["solve_seconds"]) == list(summary.solve_seconds)
    for part in ("stage_seconds", "solve_seconds", "cli_seconds"):
        for spread in timed[part].values():
            assert 0.0 <= spread["min"] <= spread["median"] <= spread["max"]
    assert set(timed["cli_seconds"]) == {"openblas_1", "openblas_unset"}
    assert (timed["dimension"], timed["stop"]) == (187, "converged")
    assert timed["iterations"] == summary.iterations
    assert timed["dofs_per_leaf"] == {"0,0": 81, "0,1": 81, "1": 25}
    assert timed["stored_entries"] == 16 * 22**2
    assert timed["identity_rows"] == 2 * 8 * 4  # the ring of each 9 x 9 velocity node grid
