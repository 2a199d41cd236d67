"""The tracer sees every layer through every alias, repeats its counts and restores the package."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import tracer
import worker
import workloads
from tracer import TraceError, Tracer, span_counts

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def ctx(tmp_path) -> workloads.Context:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return workloads.Context(root=ROOT, python=sys.executable, env=env, out_dir=tmp_path)


@pytest.mark.parametrize(
    "control, target, constructions, projections",
    [((0.6, 0.8), (0.6, 0.8), 58, 31), ((0.0, 1.0), (0.0, 1.0), 39, 16)],
)
def test_nondestructive_gate_counts(control, target, constructions, projections):
    from dualrail import protocols
    from dualrail.rails import LogicalAmplitudes

    t = Tracer()
    with t.installed():
        protocols.run_nondestructive_csign(
            LogicalAmplitudes(*control), LogicalAmplitudes(*target), "feedforward"
        )
    counts = span_counts(t.spans)
    assert counts["fock.construct"] == constructions
    assert counts["measure.project"] == projections
    assert counts["protocols.gate"] == 2  # the gate and the encoder it runs


def test_aliases_are_wrapped_then_restored():
    import dualrail
    from dualrail import circuits, optics, protocols, verify
    from dualrail.fock import FockState

    original_apply = optics.apply_mode_unitary
    original_init = FockState.__init__
    t = Tracer()
    with t.installed():
        for module in (dualrail, optics, protocols, circuits, verify):
            assert module.apply_mode_unitary is not original_apply
        circuits.execute(circuits.load(str(dualrail.data_path("fig1.loc"))))
    for module in (dualrail, optics, protocols, circuits, verify):
        assert module.apply_mode_unitary is original_apply
    assert FockState.__init__ is original_init
    counts = span_counts(t.spans)
    assert counts["optics.bs2"] == 2
    assert counts["circuits.execute"] == 1


def test_self_time_excludes_other_layers_and_folds_same_layer():
    # outcome (0..10) holds project (1..5), which holds construct (2..3).
    spans = [
        ["measure.outcome", 0.0, 10.0, -1, 0, 4.0, (100,)],
        ["measure.project", 1.0, 5.0, 0, 0, 1.0, (100,)],
        ["fock.construct", 2.0, 3.0, 1, 0, 0.0, (5,)],
    ]
    times = tracer.self_times(spans)
    assert times == {"measure.outcome": 9.0, "fock.construct": 1.0}


@pytest.mark.parametrize("name", ["gates", "verify", "wide-states", "cli"])
def test_traced_counts_repeat_for_a_seed(ctx, name):
    counts = []
    for _ in range(2):
        wl = workloads.build(name, 5, ctx)
        metrics, stats = worker.traced_run(wl, 0.0, None)
        assert stats.failed == 0, stats.reasons
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_ms") and not k.startswith("trace.")})
    for metric, (_unit, kinds, names) in tracer.LAYER_METRICS.items():
        if name in names and not metric.endswith("_ms"):
            assert counts[0][metric] > 0, metric
    # A JSON report embeds its own duration_seconds, whose digits vary, so
    # reports.bytes_out may differ by a few bytes; every other count repeats.
    sizes = [c.pop("reports.bytes_out") for c in counts]
    assert sizes[0] == pytest.approx(sizes[1], rel=1e-4)
    assert counts[0] == counts[1]


def test_missing_layer_fails_loudly(ctx):
    gates = workloads.build("gates", 1, ctx)
    mislabeled = workloads.Workload("wide-states", gates.deck, [], gates.trace_ops)
    with pytest.raises(TraceError, match="optics.kmode_calls"):
        worker.traced_run(mislabeled, 0.0, None)
