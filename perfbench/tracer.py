"""Span tracing of ``dualrail`` layers from outside the package.

``Tracer.installed()`` wraps the public functions behind each per-layer
metric for the duration of a ``with`` block. Modules such as ``protocols``,
``circuits`` and ``verify`` hold their own references (``from .optics import
apply_mode_unitary``), so every module attribute of a loaded ``dualrail``
module that is the original function is rebound to the wrapper, and
``FockState.__init__`` and the ``RunReport`` renderers are wrapped on their
classes. Everything is restored when the block ends.

A span records its kind, start, end, parent span, operation id, its self
time (duration minus the time its direct children cover) and a few counts
taken at the boundary. A span whose parent belongs to the same layer (a
``project_detection`` inside ``outcome_distribution``, the encoder inside
the nondestructive gate) folds its self time into the parent's kind.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# (module, attribute path, span kind). The kind's prefix up to the first dot
# is its layer.
TARGETS = (
    ("dualrail.fock", "FockState.__init__", "fock.construct"),
    ("dualrail.optics", "apply_mode_unitary", "optics.apply"),
    ("dualrail.measure", "outcome_distribution", "measure.outcome"),
    ("dualrail.measure", "project_detection", "measure.project"),
    ("dualrail.rails", "decode_register", "rails.decode"),
    ("dualrail.rails", "pauli_correction", "rails.pauli"),
    ("dualrail.protocols", "derive_teleport_coefficients", "protocols.table"),
    ("dualrail.protocols", "run_destructive_csign", "protocols.gate"),
    ("dualrail.protocols", "run_quantum_encoder", "protocols.gate"),
    ("dualrail.protocols", "run_nondestructive_csign", "protocols.gate"),
    ("dualrail.circuits", "parse", "circuits.parse"),
    ("dualrail.circuits", "execute", "circuits.execute"),
    ("dualrail.reports", "from_gate_run", "reports.build"),
    ("dualrail.reports", "from_circuit_run", "reports.build"),
    ("dualrail.reports", "RunReport.to_json", "reports.render"),
    ("dualrail.reports", "RunReport.to_table", "reports.render"),
    ("dualrail.verify", "run_verification", "verify.run"),
    ("dualrail.cli", "main", "cli.main"),
)


def _layer(kind: str) -> str:
    return kind.split(".", 1)[0]


def _counts_fock(args, kwargs, result) -> tuple:
    return (len(args[0].terms),)


def _kind_optics(args, kwargs) -> str:
    u = args[2] if len(args) > 2 else kwargs["u"]
    return "optics.bs2" if u.dim == 2 else "optics.kmode"


def _counts_optics(args, kwargs, result) -> tuple:
    state = args[0] if args else kwargs["state"]
    return (len(state.terms), len(result.terms))


def _counts_measure(args, kwargs, result) -> tuple:
    state = args[0] if args else kwargs["state"]
    return (len(state.terms),)


def _counts_decode(args, kwargs, result) -> tuple:
    return (len(result),)


def _counts_gate(args, kwargs, result) -> tuple:
    return (len(result.branches), sum(1 for b in result.branches if b.accepted))


def _counts_render(args, kwargs, result) -> tuple:
    return (len(result.encode("utf-8")),)


_KIND_FNS: dict[str, Callable] = {"optics.apply": _kind_optics}
_COUNT_FNS: dict[str, Callable] = {
    "fock.construct": _counts_fock,
    "optics.apply": _counts_optics,
    "measure.outcome": _counts_measure,
    "measure.project": _counts_measure,
    "rails.decode": _counts_decode,
    "protocols.gate": _counts_gate,
    "reports.render": _counts_render,
}


class Tracer:
    """Collects spans in memory while installed; ``op`` tags new spans."""

    def __init__(self) -> None:
        # span: [kind, start, end, parent, op, child_time, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, fn: Callable, kind: str) -> Callable:
        spans, stack = self.spans, self._stack
        kind_fn = _KIND_FNS.get(kind)
        count_fn = _COUNT_FNS.get(kind)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [kind_fn(args, kwargs) if kind_fn else kind, 0.0, 0.0, parent, self.op, 0.0, ()]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if count_fn:
                # FockState.__init__ returns None; count the constructed object.
                span[6] = count_fn(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        restore: list[tuple[Any, str, Any]] = []
        try:
            for module_name, path, kind in TARGETS:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    restore.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, kind))
                    continue
                original = getattr(module, path)
                wrapper = self.wrap(original, kind)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "dualrail" or name.startswith("dualrail.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: kind, start, end, parent, op, self, counts."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for kind, start, end, parent, op, child, counts in self.spans:
                self_time = end - start - child
                fh.write(json.dumps([kind, start, end, parent, op, self_time, list(counts)]) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

# Per-layer metric -> (unit, span kinds whose count must be non-zero on the
# workloads the metric is named for, those workloads).
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "fock.construct_calls": ("count", ("fock.construct",), ("gates", "wide-states")),
    "fock.construct_self_ms": ("ms", ("fock.construct",), ("gates", "wide-states")),
    "fock.terms_built": ("count", ("fock.construct",), ("gates", "wide-states")),
    "optics.bs2_calls": ("count", ("optics.bs2",), ("wide-states",)),
    "optics.bs2_self_ms": ("ms", ("optics.bs2",), ("wide-states",)),
    "optics.kmode_calls": ("count", ("optics.kmode",), ("wide-states",)),
    "optics.kmode_self_ms": ("ms", ("optics.kmode",), ("wide-states",)),
    "optics.terms_in": ("count", ("optics.bs2", "optics.kmode"), ("wide-states",)),
    "optics.terms_out": ("count", ("optics.bs2", "optics.kmode"), ("wide-states",)),
    "measure.outcome_calls": ("count", ("measure.outcome",), ("wide-states", "gates")),
    "measure.project_calls": ("count", ("measure.project",), ("wide-states", "gates")),
    "measure.outcome_self_ms": ("ms", ("measure.outcome",), ("wide-states", "gates")),
    "measure.terms_scanned": ("count", ("measure.outcome", "measure.project"), ("wide-states", "gates")),
    "measure.scan_ratio": ("ratio", ("measure.outcome",), ("wide-states", "gates")),
    "rails.decode_calls": ("count", ("rails.decode",), ("cli",)),
    "rails.decode_self_ms": ("ms", ("rails.decode",), ("cli",)),
    "rails.decode_amps": ("count", ("rails.decode",), ("cli",)),
    "rails.pauli_self_ms": ("ms", ("rails.pauli",), ("cli",)),
    "protocols.table_calls": ("count", ("protocols.table",), ("verify",)),
    "protocols.table_self_ms": ("ms", ("protocols.table",), ("verify",)),
    "protocols.gate_self_ms": ("ms", ("protocols.gate",), ("verify",)),
    "protocols.branches": ("count", ("protocols.gate",), ("verify",)),
    "protocols.accept_ratio": ("ratio", ("protocols.gate",), ("verify",)),
    "circuits.parse_ms": ("ms", ("circuits.parse",), ("gates",)),
    "circuits.execute_self_ms": ("ms", ("circuits.execute",), ("gates",)),
    "reports.build_ms": ("ms", ("reports.build",), ("cli",)),
    "reports.render_ms": ("ms", ("reports.render",), ("cli",)),
    "reports.bytes_out": ("bytes", ("reports.render",), ("cli",)),
    "verify.self_ms": ("ms", ("verify.run",), ("verify",)),
    "cli.main_ms": ("ms", ("cli.main",), ("cli",)),
}


# Per-layer metrics taken outside the spans: interpreter start and import by
# probe processes in run.py, tracing cost by traced against untraced passes.
EXTRA_LAYER_UNITS = {
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "trace.traced_ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    return {**{name: spec[0] for name, spec in LAYER_METRICS.items()}, **EXTRA_LAYER_UNITS}


class TraceError(RuntimeError):
    """A traced run missed a layer it is named for, or its counts did not repeat."""


def span_counts(spans: list[list], ops: set[int] | None = None) -> dict[str, int]:
    """Number of spans of each kind, over the given operation ids."""
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        if ops is None or span[4] in ops:
            counts[span[0]] += 1
    return dict(counts)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self seconds per kind inside operations, same-layer children folded into their parent."""
    effective: list[str] = []
    totals: dict[str, float] = defaultdict(float)
    for kind, start, end, parent, op, child, _counts in spans:
        eff = kind
        if parent >= 0 and _layer(effective[parent]) == _layer(kind):
            eff = effective[parent]
        effective.append(eff)
        if op >= 0:
            totals[eff] += end - start - child
    return dict(totals)


def layer_metrics(spans: list[list], n_ops: int, count_ops: set[int], count_n_ops: int) -> dict[str, float]:
    """Per-layer metrics per operation.

    Times are averaged over all ``n_ops`` traced operations. Counts come from
    the operations in ``count_ops`` (one traced pass), so they repeat exactly
    for a seed. ``circuits.parse_ms`` is per parse call, since parsing
    happens in set-up on the in-process workloads.
    """
    times = self_times(spans)
    op_spans = [s for s in spans if s[4] in count_ops]
    n = span_counts(op_spans)
    sums: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for span in op_spans:
        for i, value in enumerate(span[6]):
            sums[span[0]][i] += value

    def per_op(x: float) -> float:
        return x / count_n_ops

    def ms(kind: str) -> float:
        return 1e3 * times.get(kind, 0.0) / n_ops

    outcome_in = sums["measure.outcome"][0]
    scanned = outcome_in + sums["measure.project"][0]
    branches, accepted = sums["protocols.gate"]
    parse_spans = [s for s in spans if s[0] == "circuits.parse"]
    parse_self = sum(s[2] - s[1] - s[5] for s in parse_spans)
    return {
        "fock.construct_calls": per_op(n.get("fock.construct", 0)),
        "fock.construct_self_ms": ms("fock.construct"),
        "fock.terms_built": per_op(sums["fock.construct"][0]),
        "optics.bs2_calls": per_op(n.get("optics.bs2", 0)),
        "optics.bs2_self_ms": ms("optics.bs2"),
        "optics.kmode_calls": per_op(n.get("optics.kmode", 0)),
        "optics.kmode_self_ms": ms("optics.kmode"),
        "optics.terms_in": per_op(sums["optics.bs2"][0] + sums["optics.kmode"][0]),
        "optics.terms_out": per_op(sums["optics.bs2"][1] + sums["optics.kmode"][1]),
        "measure.outcome_calls": per_op(n.get("measure.outcome", 0)),
        "measure.project_calls": per_op(n.get("measure.project", 0)),
        "measure.outcome_self_ms": ms("measure.outcome"),
        "measure.terms_scanned": per_op(scanned),
        "measure.scan_ratio": scanned / outcome_in if outcome_in else 0.0,
        "rails.decode_calls": per_op(n.get("rails.decode", 0)),
        "rails.decode_self_ms": ms("rails.decode"),
        "rails.decode_amps": per_op(sums["rails.decode"][0]),
        "rails.pauli_self_ms": ms("rails.pauli"),
        "protocols.table_calls": per_op(n.get("protocols.table", 0)),
        "protocols.table_self_ms": ms("protocols.table"),
        "protocols.gate_self_ms": ms("protocols.gate"),
        "protocols.branches": per_op(branches),
        "protocols.accept_ratio": accepted / branches if branches else 0.0,
        "circuits.parse_ms": 1e3 * parse_self / len(parse_spans) if parse_spans else 0.0,
        "circuits.execute_self_ms": ms("circuits.execute"),
        "reports.build_ms": ms("reports.build"),
        "reports.render_ms": ms("reports.render"),
        "reports.bytes_out": per_op(sums["reports.render"][0]),
        "verify.self_ms": ms("verify.run"),
        "cli.main_ms": ms("cli.main"),
    }


def require_layers(workload: str, counts: dict[str, int]) -> None:
    """Raise unless every span count behind a metric named for ``workload`` is non-zero."""
    missing = sorted(
        {
            f"{metric} (no {kind} span)"
            for metric, (_unit, kinds, workloads) in LAYER_METRICS.items()
            if workload in workloads
            for kind in kinds
            if not counts.get(kind)
        }
    )
    if missing:
        raise TraceError(f"traced {workload} run missed layers: " + "; ".join(missing))
