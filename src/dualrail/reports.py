"""Machine- and human-readable run reports for the command line.

The JSON form is versioned (``schema_version`` 1) and validates against the
shipped schema in ``data/run_report.schema.json``. The table form shows the
same numbers with the protocol's mode labels.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

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
        """The report as ``json.dumps(self.to_dict(), indent=2)`` plus a newline.

        The output block, whose register lists grow as 2^n, is rendered in
        linear passes and spliced over the document's ``"output": null``
        line; that line is unique because JSON escapes every newline inside
        a string. ``basis`` must hold strings and ``amplitudes`` pairs of
        floats, as ``from_gate_run`` builds them.
        """
        doc = self.to_dict()
        output = doc["output"]
        if output is None:
            return json.dumps(doc, indent=2) + "\n"
        doc["output"] = None
        head, _, tail = json.dumps(doc, indent=2).partition(_NULL_OUTPUT_LINE)
        return f'{head}\n  "output": {_render_output(output)},\n{tail}\n'

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


_NULL_OUTPUT_LINE = '\n  "output": null,\n'

# json spells the non-finite floats this way; float.__repr__ gives the keys.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# An amplitude pair is a two-item list at depth 3, inside the list at depth 2.
_IN_PAIR = ",\n        "
_BETWEEN_PAIRS = "\n      ],\n      [\n        "


def _json_floats(values: Iterable[float]) -> list[str]:
    texts = list(map(float.__repr__, values))
    return list(map(_NONFINITE.get, texts, texts))


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Already-encoded ``items`` laid out as ``json.dumps(indent=2)`` lays out
    a list (or, with ``brackets="{}"``, an object) at nesting ``depth``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _render_output(output: dict[str, Any]) -> str:
    """``output`` as ``json.dumps(indent=2)`` renders it one level deep."""
    fields = []
    for key, value in output.items():
        if key == "basis":
            text = _json_block(list(map(encode_basestring_ascii, value)), 2)
        elif key == "amplitudes" and value:
            numbers = iter(_json_floats(itertools.chain.from_iterable(value)))
            pairs = _BETWEEN_PAIRS.join(map(_IN_PAIR.join, zip(numbers, numbers)))
            text = _json_block([_json_block([pairs], 3)], 2)
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n    ")
        fields.append(f"{encode_basestring_ascii(key)}: {text}")
    return _json_block(fields, 1, "{}")


def _complex_pairs(vec: np.ndarray) -> list[list[float]]:
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
    return list(map(list, zip((vec.real + 0.0).tolist(), (vec.imag + 0.0).tolist())))


def _basis_labels(n_qubits: int) -> list[str]:
    """``format(i, f"0{n_qubits}b")`` for every i, in order: each label is a
    high-half label followed by a low-half one."""
    high, low = (
        list(map("".join, itertools.product("01", repeat=k)))
        for k in (n_qubits // 2, n_qubits - n_qubits // 2)
    )
    return [h + l for h in high for l in low]


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
