"""The README's cavity numbers, read from README.md and checked against the program."""

import re
from pathlib import Path

from fembasis import run_driven_cavity
from fembasis.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_summary_line_is_what_the_cli_prints(tmp_path, capsys):
    command = re.search(r"^fembasis stokes --grid (\d+x\d+) --out \S+$", README, re.MULTILINE)
    printed = re.search(r"^```\n(dim=\d+ iters=\d+ relres=\S+ div=\S+)\n```$", README, re.MULTILINE)
    assert command and printed
    assert main(["stokes", "--grid", command[1], "--out", str(tmp_path / "cavity.vtu")]) == 0
    assert capsys.readouterr().out.splitlines() == [printed[1]]


def test_readme_iteration_counts_are_what_the_cavity_takes(tmp_path):
    claim = re.search(
        r"stays flat in the grid size: ((?:\d+, )*\d+) and (\d+) iterations on\s+"
        r"((?:\d+x\d+, )*\d+x\d+) and (\d+x\d+)\.",
        README,
    )
    assert claim
    counts = [int(n) for n in claim[1].split(", ")] + [int(claim[2])]
    grids = claim[3].split(", ") + [claim[4]]
    assert len(counts) == len(grids)
    assert re.search(r"so it takes exactly the free iteration counts above\.", README)
    for pin in (False, True):
        taken = []
        for grid in grids:
            nx, ny = map(int, grid.split("x"))
            summary = run_driven_cavity(nx, ny, out_path=tmp_path / "c.vtu", pin_pressure=pin)
            taken.append(summary.iterations)
        assert taken == counts, pin
