"""The benchmark workloads still run on the public API and pass their checks."""

import importlib.util
from pathlib import Path

import numpy as np

import fembasis
import fembasis.cli  # workloads reach every module as an attribute of the package

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports oracles.py beside it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_one_pass_of_every_workload_passes_its_checks(tmp_path, monkeypatch):
    for name, workload in load_workloads(monkeypatch).items():
        state = workload.setup(fembasis, np.random.default_rng(5), str(tmp_path))
        workload.prepare(fembasis, state)
        assert workload.check(fembasis, state, workload.run_pass(fembasis, state)) == [], name
