"""The output checks run on every operation, and a failing one lands in fail_ratio."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def ctx(tmp_path) -> workloads.Context:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return workloads.Context(root=ROOT, python=sys.executable, env=env, out_dir=tmp_path)


def _run(ops, call=None) -> worker.LoopStats:
    stats = worker.LoopStats()
    for op in ops:
        stats.add(op, *worker.run_op(op, call(op) if call else op.run))
    return stats


def test_wrong_expected_value_is_counted_not_raised(ctx, monkeypatch):
    wl = workloads.build("gates", 1, ctx)
    monkeypatch.setitem(workloads.EXPECTED_ACCEPT, ("destructive", "strict"), 0.3)
    stats = worker.closed_loop(wl.deck[:20], seconds=0.0, min_ops=20)
    metrics, _raw = worker.loop_metrics(stats)
    assert stats.attempted == 20
    assert stats.failed == 1  # one destructive strict call per block of twenty
    assert metrics["ok_ratio"] == pytest.approx(19 / 20)
    assert "expected 0.3" in stats.reasons["destructive/strict/basis-control"]


def test_raising_operation_and_raising_check_fail(ctx):
    def boom():
        raise ValueError("bad input")

    ops = [
        workloads.Op("raises", boom, lambda r: None),
        workloads.Op("bad-check", lambda: None, lambda r: r.missing),
    ]
    stats = _run(ops)
    assert stats.failed == 2
    assert stats.reasons["raises"].startswith("raised ValueError")
    assert stats.reasons["bad-check"].startswith("check raised AttributeError")


@pytest.mark.parametrize("name", ["gates", "verify", "wide-states"])
def test_in_process_checks_pass_at_this_commit(ctx, name):
    wl = workloads.build(name, 2, ctx)
    stats = _run(wl.deck[: wl.trace_ops])
    assert stats.failed == 0, stats.reasons


def test_cli_checks_pass_in_process(ctx):
    wl = workloads.build("cli", 2, ctx)
    stats = _run(wl.deck[: wl.trace_ops], call=lambda op: op.inprocess)
    assert stats.failed == 0, stats.reasons


def test_verify_text_must_repeat_byte_for_byte(ctx):
    wl = workloads.build("verify", 1, ctx)
    op = wl.deck[0]
    report = op.run()
    assert op.check(report) is None
    report.checks[0].detail += " "
    assert "differs from its first run" in op.check(report)


def test_wide_state_check_catches_lost_norm(ctx):
    wl = workloads.build("wide-states", 1, ctx)
    op = next(o for o in wl.deck if o.kind.startswith("kmode"))
    state, branches = op.run()
    assert op.check((state, branches)) is None
    first = next(iter(state.terms))
    state.terms[first] *= 1.001
    assert "norm drifted" in op.check((state, branches))


def test_report_validator_rejects_broken_items(ctx):
    wl = workloads.build("cli", 1, ctx)
    op = next(o for o in wl.deck if o.kind == "cli/encoder-n16-ff-json")
    code, text = op.inprocess()
    assert op.check((code, text)) is None
    validator = workloads.ReportValidator(ROOT / "src" / "dualrail" / "data" / "run_report.schema.json")
    for mutate in (
        lambda d: d["output"]["amplitudes"].__setitem__(7, [1.0, "x"]),
        lambda d: d["output"]["basis"].__setitem__(3, 3),
        lambda d: d.__setitem__("extra", 1),
    ):
        doc = json.loads(text)
        mutate(doc)
        assert validator.problem(doc) is not None
