"""The benchmark tracer still finds every function and method it patches."""

import importlib.util
from pathlib import Path

import numpy as np

from fembasis import run_driven_cavity

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_points(spans):
    """(owner, attribute) of everything the tracer replaces."""
    points = [
        (importlib.import_module(module), attr) for module, attr, _ in spans.FUNCTION_SPANS
    ]
    points += [
        (importlib.import_module("fembasis.gmres"), "gmres"),
        (importlib.import_module("fembasis.vtu"), "write_vtu"),
    ]
    classes = spans.METHOD_SPANS + spans.METHOD_COUNTS
    points += [(getattr(importlib.import_module(m), c), a) for m, c, a, _ in classes]
    points.append((importlib.import_module("fembasis.containers").SparseSystem, "freeze"))
    return points


def test_tracer_patches_and_restores_the_cavity_run(tmp_path, capsys):
    spans = load_spans()
    points = patch_points(spans)
    for owner, attr in points:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    originals = [vars(owner)[attr] for owner, attr in points]
    plain = run_driven_cavity(2, 2, out_path=tmp_path / "plain.vtu").summary_line

    tracer = spans.Tracer()
    tracer.install()
    try:
        stokes = importlib.import_module("fembasis.stokes")
        traced = stokes.run_driven_cavity(2, 2, out_path=tmp_path / "traced.vtu").summary_line
    finally:
        tracer.uninstall()

    assert traced == plain
    assert capsys.readouterr().out.splitlines() == [plain, plain]
    names = {span[spans.NAME] for span in tracer.spans}
    assert "basis.bind" in names
    assert {"stokes.assemble", "containers.freeze", "gmres.gmres"} <= names
    # the tracer reads the VTU path from the fourth positional argument
    assert "vtu.write" in names
    assert tracer.values[tracer.pass_id]["vtu.bytes"] > 0
    assert [vars(owner)[attr] for owner, attr in points] == originals


def test_gmres_on_an_overflowing_rhs_is_one_traced_solve():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        gmres = importlib.import_module("fembasis.gmres").gmres
        matvecs = []
        x, _, iterations = gmres(
            lambda v: matvecs.append(v) or 2.0 * v, np.array([1e200, -1e200, 1e200])
        )
    finally:
        tracer.uninstall()

    assert x.tobytes() == np.array([5e199, -5e199, 5e199]).tobytes()
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("gmres.gmres") == 1
    assert names.count("gmres.matvec") == len(matvecs)
    assert tracer.values[tracer.pass_id]["gmres.iterations"] == iterations
