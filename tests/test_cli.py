"""Command line interface: argument handling and end-to-end output."""

import xml.etree.ElementTree as ET

import inspect

import pytest

from fembasis import SolverConfig, gmres
from fembasis.cli import build_parser, main

TH2 = "composite(power(lagrange(2),2),lagrange(1))"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_indices_single_element(capsys):
    code, out, err = run_cli(
        capsys, "indices", "--tree", "lagrange(1)", "--grid", "4x4", "--element", "0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "element 0 (size 4):"
    assert lines[1].split() == ["0", "(0)"]
    assert lines[4].split() == ["3", "(6)"]


def test_indices_all_elements(capsys):
    code, out, err = run_cli(capsys, "indices", "--tree", "lagrange(1)", "--grid", "2x2")
    assert code == 0
    assert out.count("element ") == 4
    assert "element 3 (size 4):" in out


def test_indices_taylor_hood_element(capsys):
    code, out, err = run_cli(
        capsys, "indices", "--tree", TH2, "--grid", "4x4", "--element", "0"
    )
    assert code == 0
    assert "element 0 (size 22):" in out
    assert "(0,0,0)" in out
    assert "(1,0)" in out


def test_table1_output(capsys):
    code, out, err = run_cli(capsys, "indices", "--grid", "4x4", "--table1", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Taylor-Hood with 3 velocity components, n2=81, n1=25"
    for label in ("BL(BL)", "BL(FI)", "FL(BL)", "FL(FI)"):
        assert label in lines[1]
    body = "\n".join(lines[2:])
    assert "(0,2,1)" in body  # BL(BL) v_x2_1
    assert "(243)" in body  # FL(FL) and FL(FI) pressure origin
    assert "(81)" in body  # FL(BI) pressure origin
    # 3 components * 4 nodes + 3 pressure rows
    assert len([l for l in lines[2:] if l.strip()]) == 15


def test_tree_is_required_without_table1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--grid", "2x2"])
    assert exc.value.code == 2
    assert "--tree" in capsys.readouterr().err


def test_element_and_table1_are_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["indices", "--grid", "2x2", "--element", "0", "--table1", "2"])


def test_parse_error_is_reported(capsys):
    code, out, err = run_cli(
        capsys, "indices", "--tree", "lagrange(9)", "--grid", "2x2"
    )
    assert code == 1
    assert err.startswith("error:")


def test_bad_grid_shape(capsys):
    with pytest.raises(SystemExit):
        main(["indices", "--tree", "lagrange(1)", "--grid", "4by4"])


def test_stokes_end_to_end(capsys, tmp_path):
    out_path = tmp_path / "cavity.vtu"
    code, out, err = run_cli(
        capsys, "stokes", "--grid", "2x2", "--out", str(out_path)
    )
    assert code == 0
    line = out.strip().splitlines()[-1]
    parts = dict(p.split("=") for p in line.split())
    assert parts["dim"] == "59"
    assert int(parts["iters"]) > 0
    assert float(parts["relres"]) <= 1e-8
    root = ET.parse(out_path).getroot()
    assert root.get("type") == "UnstructuredGrid"


def test_stokes_budget_exhaustion_exit_code(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "stokes",
        "--grid",
        "2x2",
        "--max-iter",
        "2",
        "--out",
        str(tmp_path / "c.vtu"),
    )
    assert code == 2


def test_stokes_pin_pressure(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "stokes",
        "--grid",
        "2x2",
        "--pin-pressure",
        "--tol",
        "1e-9",
        "--out",
        str(tmp_path / "p.vtu"),
    )
    assert code == 0
    line = out.strip().splitlines()[-1]
    parts = dict(p.split("=") for p in line.split())
    assert float(parts["relres"]) <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("indices", "--tree", "power(lagrange(1),0)", "--grid", "2x2"),
        ("stokes", "--grid", "2x2", "--restart", "0", "--out", "c.vtu"),
        ("stokes", "--grid", "2x2", "--tol", "-1", "--out", "c.vtu"),
        ("stokes", "--grid", "2x2", "--max-iter", "-1", "--out", "c.vtu"),
        ("stokes", "--grid", "2x2", "--out", "missing/c.vtu"),
    ],
)
def test_bad_input_is_reported(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for work in ("make_basis", "assemble_stokes_matrix"):  # input is checked before any work
        refuse = lambda *_, work=work: pytest.fail(f"{work} ran")
        monkeypatch.setattr(f"fembasis.stokes.{work}", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_an_out_path_that_is_a_directory_is_refused_before_any_work(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for work in ("make_basis", "assemble_stokes_matrix", "gmres"):
        refuse = lambda *_, work=work: pytest.fail(f"{work} ran")
        monkeypatch.setattr(f"fembasis.stokes.{work}", refuse)
    code, out, err = run_cli(capsys, "stokes", "--grid", "2x2", "--out", "out")
    assert code == 1 and out == ""
    assert err == "error: 'out' is a directory, not a VTU file\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


def test_gmres_and_the_cli_take_their_defaults_from_solver_config():
    config = SolverConfig()
    defaults = {name: p.default for name, p in inspect.signature(gmres).parameters.items()}
    assert (defaults["restart"], defaults["maxiter"], defaults["tol"]) == (
        config.restart, config.max_iterations, config.tolerance
    )
    args = build_parser().parse_args(["stokes", "--grid", "2x2", "--out", "c.vtu"])
    assert (args.restart, args.max_iter, args.tol) == (
        config.restart, config.max_iterations, config.tolerance
    )
