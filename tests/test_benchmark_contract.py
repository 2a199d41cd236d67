"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tests`` is not part of the default suite, so a renamed function
or result field would otherwise pass every test here and break only the
benchmark. The tracer's targets are read from its source, not imported.
"""

import ast
import importlib
from pathlib import Path
from unittest import mock

import pytest

import dualrail
from dualrail import circuits, measure, protocols
from dualrail.rails import LogicalAmplitudes

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module, path, kind", tracer_targets())
def test_tracer_target_resolves(module, path, kind):
    owner = importlib.import_module(module)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    # The tracer reads methods from the class dict and functions by getattr.
    target = owner.__dict__[attr] if owners else getattr(owner, attr)
    assert callable(target)


def test_circuit_results_keep_the_fields_the_benchmark_checks():
    result = circuits.execute(circuits.load(str(dualrail.data_path("fig2.loc"))))
    assert result.survived_probability == result.accepted_probability
    assert result.survived_probability + result.rejected_probability == pytest.approx(1.0)
    assert result.branches
    for branch in result.branches:
        assert branch.residual.terms and branch.counts


def test_gate_results_keep_the_fields_the_benchmark_checks():
    result = protocols.run_nondestructive_csign(
        LogicalAmplitudes.one(), LogicalAmplitudes.one(), "feedforward"
    )
    assert result.accepted_probability == pytest.approx(0.25, abs=1e-12)
    assert result.fidelity_vs_reference == pytest.approx(1.0, abs=1e-12)
    # Feed-forward keeps two clicks at each of the two heralds.
    assert sum(branch.accepted for branch in result.branches) == 4


def test_a_gate_run_reaches_every_kernel_the_benchmark_traces():
    # The tracer counts the gates workload's optics and measure layers by
    # wrapping these module attributes; a run that went round them would
    # leave those layers empty.
    targets = [
        (circuits, "apply_mode_unitary"),
        (measure, "outcome_distribution"),
        (measure, "project_detection"),
    ]
    spies = [mock.patch.object(owner, name, wraps=getattr(owner, name)) for owner, name in targets]
    with spies[0] as apply, spies[1] as outcomes, spies[2] as project:
        result = protocols.run_nondestructive_csign(
            LogicalAmplitudes.one(), LogicalAmplitudes.one(), "feedforward"
        )
    assert result.accepted_probability == pytest.approx(0.25, abs=1e-12)
    assert apply.called and outcomes.called and project.called
