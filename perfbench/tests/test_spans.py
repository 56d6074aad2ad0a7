"""Self-time and per-layer arithmetic on synthetic spans (no program code)."""

import pytest

from spans import Tracer, covered_length, per_layer, self_times


def test_self_time_subtracts_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.child", 2.0, 3.0, 1, 1],
        ["b", 5.0, 7.0, 0, 1],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered_length([], 0, 10) == 0.0


def _tracer_with(passes):
    tracer = Tracer()
    tracer.spans.append(["basis.make_basis", 0.0, 0.5, -1, 0])
    for pass_id, (solve, krylov, matvecs, iterations) in passes.items():
        t = 10.0 * pass_id
        tracer.spans.append(["gmres.solve_system", t, t + solve, -1, pass_id])
        parent = len(tracer.spans) - 1
        tracer.spans.append(["gmres.gmres", t + 0.1, t + 0.1 + krylov, parent, pass_id])
        gmres_span = len(tracer.spans) - 1
        for k in range(matvecs):
            start = t + 0.2 + 0.001 * k
            tracer.spans.append(["gmres.matvec", start, start + 0.0005, gmres_span, pass_id])
        tracer.values[pass_id]["gmres.iterations"] += iterations
        tracer.counts[pass_id]["basis.index.calls"] += 7
    return tracer


def test_per_layer_adds_setup_to_the_median_pass():
    tracer = _tracer_with({1: (2.0, 1.5, 12, 10), 3: (4.0, 3.0, 12, 10), 5: (3.0, 2.0, 12, 10)})
    layers = per_layer(tracer, 0, [1, 3, 5])
    assert layers["basis.make_basis_s"] == pytest.approx(0.5)
    assert layers["gmres.flatten_s"] == pytest.approx(1.0)
    assert layers["gmres.matvec.calls"] == 12
    assert layers["gmres.matvec_s"] == pytest.approx(12 * 0.0005)
    assert layers["gmres.krylov_self_s"] == pytest.approx(2.0 - 12 * 0.0005)
    # 12 matvecs for 10 iterations: one cycle, its starting residual and the final test
    assert layers["gmres.restarts"] == 0
    assert layers["basis.index.calls"] == 7
    assert layers["vtu.bytes"] == 0
