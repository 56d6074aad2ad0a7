"""scripts/digest.py: the same checkout prints the same digests, run after run."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


def digests(*options):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--small", *options],
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
    for kind in ("interpolate", "evaluate", "data"):
        assert sum(name.startswith(f"{kind}/table1/") for name in names) == 8
        assert not any(name.startswith(f"{kind}/random_tree/") for name in names)  # full set only
    assert sum(name.startswith("element_matrix/") for name in names) == 2
    assert sum(name.startswith("tree/table1/") for name in names) == 8
    assert "indices/table1" in names


def test_save_writes_the_bytes_of_every_printed_digest(tmp_path):
    lines = [line.split(" ") for line in digests("--save", str(tmp_path)).splitlines()]
    assert len(lines) == len({name for name, _ in lines}) > 0
    for name, digest in lines:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    saved = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert sorted(str(path.relative_to(tmp_path)) for path in saved) == sorted(n for n, _ in lines)
