"""Machine- and human-readable run reports for the command line.

The JSON form is versioned: ``schema_version`` is the constant
``SCHEMA_VERSION`` (1), not a report field, and the document validates
against the shipped schema in ``data/run_report.schema.json``. The table form
shows the same numbers with the protocol's mode labels.

A decoded register has 2^n entries, most of them zero for the paper's
circuits (the encoder's a0|0...0> + a1|1...1> has two nonzero entries).
``from_run`` gives every zero entry one shared ``(0.0, 0.0)`` pair and builds
a pair only for the nonzero ones. Both renderers format each distinct pair
object once and lay out the 2^n references to its text in C-level list and
join steps, so the cost of a report grows with its distinct amplitudes, plus
one pass over the basis labels and the text itself.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Any, Callable, Iterable

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
        return {"schema_version": SCHEMA_VERSION, **data}

    def to_json(self) -> str:
        """The report as ``json.dumps(self.to_dict(), indent=2)`` plus a newline.

        The output block, whose register lists grow as 2^n, is rendered as
        pieces that refer to its basis labels and to one text per distinct
        ``amplitudes`` pair object (objects, not values, so a hand-built
        ``[-0.0, 0.0]`` keeps its sign). One join splices them over the
        document's ``"output": null`` line, which is unique because JSON
        escapes every newline inside a string. ``basis`` must hold strings
        and ``amplitudes`` pairs of floats, as ``from_run`` builds them.
        """
        doc = self.to_dict()
        output = doc["output"]
        if output is None:
            return json.dumps(doc, indent=2) + "\n"
        doc["output"] = None
        head, _, tail = json.dumps(doc, indent=2).partition(_NULL_OUTPUT_LINE)
        return "".join([head, '\n  "output": ', *_render_output(output), ",\n", tail, "\n"])

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
            # One row per basis label with a pair, as zip pairs them: a
            # "\n  |" piece, the label and the pair's text.
            basis, pairs = self.output["basis"], self.output["amplitudes"]
            count = min(len(basis), len(pairs))
            if count:
                rows = ["\n  |"] * (3 * count)
                rows[0] = "  |"
                rows[1::3] = basis[:count]
                rows[2::3] = _texts_by_object(pairs[:count], _table_pair)
                lines.append("".join(rows))
        if self.fidelity_vs_reference is not None:
            lines.append(f"fidelity vs reference: {self.fidelity_vs_reference:.12f}")
        lines.append(f"duration: {self.duration_seconds:.3f} s")
        return "\n".join(lines) + "\n"


def _table_pair(pair: list[float]) -> str:
    re, im = pair
    return f">: ({re:+.12f}, {im:+.12f})"


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

# The ASCII characters json writes as they are: all printable ones but '"' and '\\'.
_UNESCAPED = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def _json_floats(values: Iterable[float]) -> list[str]:
    texts = list(map(float.__repr__, values))
    return list(map(_NONFINITE.get, texts, texts))


def _json_block(items: list[str], depth: int, quote: str = "") -> list[str]:
    """Pieces that join to the already-encoded ``items``, each wrapped in
    ``quote``, laid out as ``json.dumps(indent=2)`` lays out a list at
    nesting ``depth``. The pieces refer to the items rather than copy them."""
    if not items:
        return ["[]"]
    pad = "\n" + "  " * (depth + 1)
    pieces = [quote + "," + pad + quote] * (2 * len(items) + 1)
    pieces[1::2] = items
    pieces[0] = "[" + pad + quote
    pieces[-1] = quote + "\n" + "  " * depth + "]"
    return pieces


def _json_strings(items: list[str], depth: int) -> list[str]:
    """``_json_block`` of the JSON strings of ``items``. When no item holds a
    character json escapes, which one pass over their concatenation shows,
    each item is its own JSON text between quotes."""
    joined = "".join(items)
    if joined.isascii() and not joined.encode("ascii").translate(None, _UNESCAPED):
        return _json_block(items, depth, quote='"')
    return _json_block(list(map(encode_basestring_ascii, items)), depth)


def _texts_by_object(items: list[Any], render: Callable[[Any], str]) -> list[str]:
    """``render(item)`` for every item, called once per distinct object.

    Objects are told apart by identity, never by value. A run of one object
    costs one list repeat, so a register of a few nonzero pairs among shared
    zero pairs is laid out in a few C-level steps.
    """
    ends = [*itertools.compress(range(1, len(items)), map(is_not, items[1:], items)), len(items)]
    texts: dict[int, str] = {}
    out: list[str] = []
    start = 0
    for end in ends:
        item = items[start]
        text = texts.get(id(item))
        if text is None:
            text = texts[id(item)] = render(item)
        out += [text] * (end - start)
        start = end
    return out


def _render_pair(pair: list[float]) -> str:
    return "".join(_json_block(_json_floats(pair), 3))


def _render_output(output: dict[str, Any]) -> list[str]:
    """Pieces that join to ``output`` as ``json.dumps(indent=2)`` renders it
    one level deep."""
    pieces: list[str] = []
    for key, value in output.items():
        if key == "basis":
            block = _json_strings(value, 2)
        elif key == "amplitudes":
            block = _json_block(_texts_by_object(value, _render_pair), 2)
        else:
            block = [json.dumps(value, indent=2).replace("\n", "\n    ")]
        pieces += [",\n    ", encode_basestring_ascii(key), ": "]
        pieces += block
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


def _basis_labels(n_qubits: int) -> list[str]:
    """``format(i, f"0{n_qubits}b")`` for every i, in order: each label is a
    high-half label followed by a low-half one."""
    high, low = (
        list(map("".join, itertools.product("01", repeat=k)))
        for k in (n_qubits // 2, n_qubits - n_qubits // 2)
    )
    return [h + l for h in high for l in low]


def from_run(
    result: RunResult, command: str, inputs: dict[str, Any], duration: float
) -> RunReport:
    """The report of a gate or ``.loc`` run; only a gate's has an output block."""
    output = None
    if result.output_logical is not None:
        n_qubits = len(result.output_logical).bit_length() - 1
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


# perfbench/tracer.py wraps these names; ROADMAP item 1 removes them.
from_gate_run = from_circuit_run = from_run
