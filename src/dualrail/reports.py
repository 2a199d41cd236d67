"""Machine- and human-readable run reports for the command line.

The JSON form is versioned: ``schema_version`` is the constant
``SCHEMA_VERSION`` (1), not a report field, and the document validates
against the shipped schema in ``data/run_report.schema.json``. The table form
shows the same numbers with the protocol's mode labels.

A decoded register has 2^n entries, most of them zero for the paper's
circuits (the encoder's a0|0...0> + a1|1...1> has two nonzero entries).
``from_run`` shares one ``(0.0, 0.0)`` pair among the zero entries and keeps
the basis labels as their two halves (``_Labels``), not as 2^n strings. Both
renderers lay out the register with ``_rows``: one text per distinct pair
object, one repeat per run of an object, one ``str.join`` per high-half
label, and one join of the whole text.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Any, Callable

from .circuits import Branch, RunResult

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

    def to_dict(self) -> dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.output is not None:
            data["output"] = {k: list(v) if type(v) is _Labels else v for k, v in self.output.items()}
        return {"schema_version": SCHEMA_VERSION, **data}

    def to_json(self) -> str:
        """The report as ``json.dumps(self.to_dict(), indent=2)`` plus a newline.

        The output block is spliced over the document's ``"output": null``
        line, unique because JSON escapes every newline inside a string.
        ``basis`` must hold strings and ``amplitudes`` pairs of floats, as
        ``from_run`` builds them.
        """
        if self.output is None:
            return json.dumps(self.to_dict(), indent=2) + "\n"
        doc = replace(self, output=None).to_dict()
        head, _, tail = json.dumps(doc, indent=2).partition(_NULL_OUTPUT_LINE)
        return "".join([head, '\n  "output": ', *_render_output(self.output), ",\n", tail, "\n"])

    def to_table(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"  {key}: {json.dumps(value) if isinstance(value, list) else value}")
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
        rows: list[str] = []
        if self.output is not None:
            carriers = self.output.get("mode_labels")
            suffix = f" on modes {', '.join(carriers)}" if carriers else ""
            lines.append(f"decoded output (logical basis){suffix}:")
            # One row per basis label with a pair, as zip pairs them.
            basis, pairs = self.output["basis"], self.output["amplitudes"]
            rows = _rows(_runs(pairs, _table_pair), "\n  |", "\n  |", basis)
        end = [f"duration: {self.duration_seconds:.3f} s"]
        if self.fidelity_vs_reference is not None:
            end.insert(0, f"fidelity vs reference: {self.fidelity_vs_reference:.12f}")
        return "".join(["\n".join(lines), *rows, "\n", "\n".join(end), "\n"])


class _Labels(Sequence):
    """The basis labels ``format(i, f"0{n}b")`` for i < 2^n, in order, held
    as their halves: label i is ``high[i // len(low)] + low[i % len(low)]``."""

    def __init__(self, n_qubits: int) -> None:
        self.high, self.low = (
            list(map("".join, itertools.product("01", repeat=k)))
            for k in (n_qubits // 2, n_qubits - n_qubits // 2)
        )

    def __len__(self) -> int:
        return len(self.high) * len(self.low)

    def __getitem__(self, index: int) -> str:
        row, col = divmod(range(len(self))[index], len(self.low))
        return self.high[row] + self.low[col]

    def __iter__(self):
        return (h + l for h in self.high for l in self.low)

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (list, _Labels)) else NotImplemented


def _table_pair(pair: list[float]) -> str:
    re, im = pair
    return f">: ({re:+.12f}, {im:+.12f})"


def _json_pair(pair: list[float]) -> str:
    re, im = (_NONFINITE.get(text, text) for text in map(float.__repr__, pair))
    return f"[\n        {re},\n        {im}\n      ]"


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

# Rows per piece of a run without labels: a long run is one chunk repeated by reference.
_CHUNK_ROWS = 4096


def _runs(items: list[Any], render: Callable[[Any], str]) -> list[tuple[int, str]]:
    """``(end, render(item))`` for each run of one object in ``items``, in order;
    objects are told apart by identity (so ``[-0.0, 0.0]`` keeps its sign)."""
    if not items:
        return []
    ends = [*itertools.compress(range(1, len(items)), map(is_not, items[1:], items)), len(items)]
    texts: dict[int, str] = {}
    runs = []
    for end, item in zip(ends, map(items.__getitem__, [0, *ends[:-1]])):
        text = texts.get(id(item))
        if text is None:
            text = texts[id(item)] = render(item)
        runs.append((end, text))
    return runs


def _rows(
    runs: list[tuple[int, str]], first: str, lead: str, labels: Sequence[str] | None = None
) -> list[str]:
    """Pieces that join to one row per index i, up to the end of the runs or
    of the labels: ``first`` (for i = 0) or ``lead``, then ``labels[i]`` if
    any, then the text of the run holding i. A stretch of one run under one
    high-half label costs one ``str.join``, or without labels one repeat."""
    high, low = (labels.high, labels.low) if type(labels) is _Labels else ([""], labels)
    width = len(low) if low is not None else runs[-1][0] if runs else 0
    pieces: list[str] = []
    start = 0
    for end, text in runs:
        end = min(end, width * len(high))
        while start < end:
            row, col = divmod(start, width)
            stop = min(end, start - col + width) if start else 1
            sep = (lead if start else first) + high[row]
            if low is not None:
                pieces += [sep, (text + sep).join(low[col : col + stop - start]), text]
            else:
                whole, part = divmod(stop - start, _CHUNK_ROWS)
                pieces += [(sep + text) * _CHUNK_ROWS] * whole if whole else []
                pieces.append((sep + text) * part)
            start = stop
    return pieces


def _render_output(output: dict[str, Any]) -> list[str]:
    """Pieces that join to ``output`` as ``json.dumps(indent=2)`` renders it
    one level deep. ``_Labels`` hold binary digits, which json writes as they
    are; the labels of a plain list are escaped one by one."""
    pieces: list[str] = []
    for key, value in output.items():
        if key == "basis" and value:
            if type(value) is not _Labels:
                value = [encode_basestring_ascii(label)[1:-1] for label in value]
            block = [*_rows([(len(value), '"')], '[\n      "', ',\n      "', value), "\n    ]"]
        elif key == "amplitudes" and value:
            block = [*_rows(_runs(value, _json_pair), "[\n      ", ",\n      "), "\n    ]"]
        else:
            block = [json.dumps(value, indent=2).replace("\n", "\n    ")]
        pieces += [",\n    ", encode_basestring_ascii(key), ": ", *block]
    if not pieces:
        return ["{}"]
    pieces[0] = "{\n    "
    pieces.append("\n  }")
    return pieces


# Every zero register entry shares this pair, so only nonzero entries cost a build.
_ZERO_PAIR = (0.0, 0.0)


def _complex_pairs(vec: np.ndarray) -> list[tuple[float, float]]:
    import numpy as np
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is;
    # flatnonzero counts nan as nonzero.
    pairs = [_ZERO_PAIR] * len(vec)
    index = np.flatnonzero(vec)
    values = vec[index]
    nonzero = zip((values.real + 0.0).tolist(), (values.imag + 0.0).tolist())
    for i, pair in zip(index.tolist(), nonzero):
        pairs[i] = pair
    return pairs


def from_run(
    result: RunResult, command: str, inputs: dict[str, Any], duration: float
) -> RunReport:
    """The report of a gate or ``.loc`` run; only a gate's has an output block."""
    output = None
    if result.output_logical is not None:
        n_qubits = len(result.output_logical).bit_length() - 1
        output = {
            "basis": _Labels(n_qubits),
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


# perfbench/tracer.py wraps these names; ROADMAP item 1 removes them.
from_gate_run = from_circuit_run = from_run
