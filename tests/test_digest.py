"""scripts/digest.py: the same checkout prints the same digests, run after run."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


def digests():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--small"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_small_digest_repeats():
    first = digests()
    assert first == digests()
    lines = [line.split(" ") for line in first.splitlines()]
    assert all(len(line) == 2 and re.fullmatch("[0-9a-f]{64}", line[1]) for line in lines)
    names = [name for name, _ in lines]
    assert len(set(names)) == len(names)
    for kind in ("summary", "vtu", "solution"):
        assert {f"stokes/4x4/free/{kind}", f"stokes/4x4/pinned/{kind}"} <= set(names)
    assert sum(name.startswith("interpolate/table1/") for name in names) == 8
    assert sum(name.startswith("element_matrix/") for name in names) == 2
    assert sum(name.startswith("tree/table1/") for name in names) == 8
    assert "indices/table1" in names
