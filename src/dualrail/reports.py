"""Machine- and human-readable run reports for the command line.

The JSON form is versioned (``schema_version`` 1) and validates against the
shipped schema in ``data/run_report.schema.json``. The table form shows the
same numbers with the protocol's mode labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .circuits import Branch, CircuitRunReport
from .protocols import GateRunResult

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    command: str
    inputs: dict[str, Any]
    branches: list[dict[str, Any]]
    accepted_probability: float
    output: dict[str, Any] | None
    fidelity_vs_reference: float | None
    duration_seconds: float
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
            "branches": self.branches,
            "accepted_probability": self.accepted_probability,
            "output": self.output,
            "fidelity_vs_reference": self.fidelity_vs_reference,
            "duration_seconds": self.duration_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"  {key}: {_fmt_input(value)}")
        lines.append("branches:")
        header = f"  {'outcome':28} {'probability':>12}  {'accepted':8} corrections"
        lines.append(header)
        for br in self.branches:
            counts = " ".join(f"{k}={v}" for k, v in br["counts"].items())
            corrections = ", ".join(br["corrections"]) or "-"
            mark = "yes" if br["accepted"] else "no"
            lines.append(f"  {counts:28} {br['probability']:>12.10f}  {mark:8} {corrections}")
            if br["residual"] is not None:
                for text in br["residual"]:
                    lines.append(f"      {text}")
        lines.append(f"accepted probability: {self.accepted_probability:.12f}")
        if self.output is not None:
            carriers = self.output.get("mode_labels")
            suffix = f" on modes {', '.join(carriers)}" if carriers else ""
            lines.append(f"decoded output (logical basis){suffix}:")
            for label, (re, im) in zip(self.output["basis"], self.output["amplitudes"]):
                lines.append(f"  |{label}>: ({re:+.12f}, {im:+.12f})")
        if self.fidelity_vs_reference is not None:
            lines.append(f"fidelity vs reference: {self.fidelity_vs_reference:.12f}")
        lines.append(f"duration: {self.duration_seconds:.3f} s")
        return "\n".join(lines) + "\n"


def _fmt_input(value: Any) -> str:
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def _branch_dict(br: Branch) -> dict[str, Any]:
    return {
        "counts": br.counts,
        "probability": br.probability,
        "residual": None if br.residual is None else br.residual.to_lines(),
        "corrections": list(br.corrections),
        "accepted": br.accepted,
    }


def _complex_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in vec]


def _basis_labels(n_qubits: int) -> list[str]:
    return [format(i, f"0{n_qubits}b") for i in range(2**n_qubits)]


def from_gate_run(
    result: GateRunResult, command: str, inputs: dict[str, Any], duration: float
) -> RunReport:
    output = None
    if result.output_logical is not None:
        n_qubits = int(np.log2(len(result.output_logical)))
        output = {
            "basis": _basis_labels(n_qubits),
            "amplitudes": _complex_pairs(result.output_logical),
            "mode_labels": list(result.output_labels),
        }
    return RunReport(
        command=command,
        inputs=inputs,
        branches=[_branch_dict(br) for br in result.branches],
        accepted_probability=result.accepted_probability,
        output=output,
        fidelity_vs_reference=result.fidelity_vs_reference,
        duration_seconds=duration,
    )


def from_circuit_run(
    result: CircuitRunReport, command: str, inputs: dict[str, Any], duration: float
) -> RunReport:
    return RunReport(
        command=command,
        inputs=inputs,
        branches=[_branch_dict(br) for br in result.branches],
        accepted_probability=result.survived_probability,
        output=None,
        fidelity_vs_reference=None,
        duration_seconds=duration,
    )
