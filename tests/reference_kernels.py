"""Reference implementations of the hot loops, kept as test oracles.

These are the per-term loops ``dualrail`` ran before its fast paths:
``apply_mode_unitary`` with numpy-scalar arithmetic and dict-based
expansion, ``project_detection``/``outcome_distribution`` with per-ket
generator scans, the ``FockState`` constructor with generator-based
validation, the circuit interpreter's name-by-name predicate test, and its
injection of a preparation's terms as given, checked by the public
constructor on every branch. The fast paths must reproduce them bit for
bit: same keys in the same order, same float bits, same exceptions and
messages. The same holds for the dense register report: one list per entry
of the decoded register, every float formatted where it stands; and for the
dual-rail layer as it was before its kets were written once, in
``rails.RAIL_KETS``: the mode-list check of its own, Bell states placed bit
by bit, registers decoded pair by pair and a gate's decodes merged; and for
the Pauli correction as it was before the Paulis were written once, in
``rails.PAULIS``: one arm per label and a leakage pass of its own. The
circuit engine's run step is kept as it was before programs were planned,
working out each element's positions, unitary, predicate, labels and
layout inline on every call; a planned run must match it branch for branch.

The module also holds helpers that only the tests call: the tensor product
and amplitude distance of two states, projection onto a reference state,
the per-outcome collapse of the teleportation gate table, and transition
amplitudes as permanents, an oracle that shares no method with ``optics``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Sequence

import numpy as np

from dualrail import circuits, measure, optics, protocols, rails, reports
from dualrail.circuits import (
    ApplyBS,
    Branch,
    CircuitError,
    CircuitIR,
    CorrectZ,
    Detect,
    Element,
    PostSelect,
    Predicate,
    PrepareBell,
    PrepareDualRail,
    PrepareKet,
    RunResult,
)
from dualrail.fock import PRUNE_TOL, FockState, _checked_mode_count, as_amplitude, as_ints, layout
from dualrail.measure import BranchResult
from dualrail.optics import ModeUnitary
from dualrail.protocols import BellAmplitudes, collapse_teleport_rows, teleport_gate_table
from dualrail.rails import BELL_KINDS, LEAK_TOL, DualRailQubit, LeakageError, LogicalAmplitudes


class ReferenceFockState(FockState):
    """``FockState`` built by the reference constructor."""

    __slots__ = ()

    def __init__(self, mode_count: int, terms) -> None:
        if mode_count <= 0:
            raise ValueError(f"mode_count must be positive, got {mode_count}")
        if isinstance(terms, Mapping):
            pairs: Iterable = terms.items()
        else:
            pairs = terms

        acc: dict = {}
        seen_any = False
        for occ, amp in pairs:
            seen_any = True
            try:
                ket = tuple(operator.index(n) for n in occ)
            except TypeError:
                raise ValueError(f"expected integer photon counts, got {occ!r}") from None
            if len(ket) != mode_count:
                raise ValueError(
                    f"occupation vector {ket} has length {len(ket)}, "
                    f"expected {mode_count}"
                )
            if any(n < 0 for n in ket):
                raise ValueError(f"negative photon count in {ket}")
            a = complex(amp)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite amplitude {a} for ket {ket}")
            acc[ket] = acc.get(ket, 0j) + a

        if not seen_any:
            raise ValueError("at least one term is required")
        for ket, a in acc.items():  # a sum of finite amplitudes may not be finite
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite amplitude {a} for ket {ket}")
        pruned = {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL}
        if not pruned:
            raise ValueError("all terms vanished (exact cancellation)")
        self.mode_count = mode_count
        self.terms = pruned


def checked_modes(mode_count: int, modes: Iterable[int]) -> list[int]:
    """``modes`` as ints, each in range(mode_count) and listed once, else ``ValueError``."""
    modes = list(as_ints(modes, "modes"))
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    for m in modes:
        if not 0 <= m < mode_count:
            raise ValueError(f"mode {m} out of range for {mode_count} modes")
    return modes


def apply_mode_unitary(state: FockState, modes: Sequence[int], u: ModeUnitary) -> FockState:
    modes = [int(m) for m in modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    for m in modes:
        if not 0 <= m < state.mode_count:
            raise ValueError(f"mode {m} out of range for {state.mode_count} modes")
    if u.dim != len(modes):
        raise ValueError(f"unitary is {u.dim}-mode but {len(modes)} modes were listed")

    k = u.dim
    mat = u.matrix
    out: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        local = [ket[m] for m in modes]
        base = amp / math.sqrt(math.prod(math.factorial(n) for n in local))
        # Expand prod_j (sum_k U[k,j] a_k^dag)^{n_j} one creation operator at
        # a time; monomials are tracked as output occupation tuples.
        poly: dict[tuple[int, ...], complex] = {(0,) * k: base}
        for j, n in enumerate(local):
            col = mat[:, j]
            for _ in range(n):
                grown: dict[tuple[int, ...], complex] = {}
                for mono, coeff in poly.items():
                    for r in range(k):
                        c = col[r]
                        if c == 0:
                            continue
                        key = mono[:r] + (mono[r] + 1,) + mono[r + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * c
                poly = grown
        for mono, coeff in poly.items():
            new_ket = list(ket)
            for r, m in enumerate(modes):
                new_ket[m] = mono[r]
            weight = coeff * math.sqrt(math.prod(math.factorial(q) for q in mono))
            key = tuple(new_ket)
            out[key] = out.get(key, 0j) + weight
    return ReferenceFockState(state.mode_count, out)


def project_detection(state: FockState, modes: Sequence[int], counts: Sequence[int]) -> BranchResult:
    checked_modes(state.mode_count, modes)
    counts = tuple(counts)
    required = dict(zip(modes, counts))
    kept = tuple(m for m in range(state.mode_count) if m not in required)

    residual_terms: dict[tuple[int, ...], complex] = {}
    weight = 0.0
    for ket, amp in state.terms.items():
        if any(ket[m] != c for m, c in required.items()):
            continue
        weight += abs(amp) ** 2
        rest = tuple(ket[m] for m in kept)
        residual_terms[rest] = residual_terms.get(rest, 0j) + amp

    if weight == 0.0 or not residual_terms:
        return BranchResult(counts, 0.0, None, kept)
    if not kept:
        # Whole state measured: the branch keeps its probability, nothing remains.
        return BranchResult(counts, weight, None, kept)
    scale = 1.0 / math.sqrt(weight)
    residual = ReferenceFockState(len(kept), {k: v * scale for k, v in residual_terms.items()})
    return BranchResult(counts, weight, residual, kept)


def outcome_distribution(state: FockState, detector_modes: Sequence[int]) -> list[BranchResult]:
    modes = [int(m) for m in detector_modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate detector modes in {modes}")
    checked_modes(state.mode_count, modes)
    outcomes = sorted({tuple(ket[m] for m in modes) for ket in state.terms})
    return [
        project_detection(state, modes, counts)
        for counts in outcomes
    ]


def predicate_holds(predicate: Predicate, counts: dict[str, int]) -> bool:
    """Whether ``counts`` satisfy some clause of ``predicate``, read name by name."""
    return any(all(counts.get(name) == value for name, value in clause) for clause in predicate)


def preparation(mode_count: int, element: Element) -> tuple[Iterable[int], Iterable]:
    """The modes a preparation in a program of ``mode_count`` modes writes and its
    (sub-ket, amplitude) terms, as given."""
    if isinstance(element, PrepareKet):
        return range(mode_count), element.terms
    if isinstance(element, PrepareDualRail):
        rails.require_normalized(LogicalAmplitudes(element.a0, element.a1))
        return (element.rail1, element.rail0), (((0, 1), element.a0), ((1, 0), element.a1))
    if isinstance(element, PrepareBell):
        bell = bell_state(element.kind, DualRailQubit(0, 1), DualRailQubit(2, 3), 4)
        return element.modes, bell.terms.items()
    raise TypeError(element)


def inject(state: FockState, positions: list[int], factor: Iterable) -> FockState:
    """Write a factor from ``preparation`` onto vacuum modes, checking it per call.

    Duplicate sub-kets add up, and the public constructor converts and
    checks every output ket and amplitude.
    """
    place = layout(state.mode_count, positions).place
    out: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        for sub, sub_amp in factor:
            new_ket = place(ket + tuple(sub))
            out[new_ket] = out.get(new_ket, 0j) + amp * sub_amp
    return FockState(state.mode_count, out)


def run_checked(ir: CircuitIR) -> RunResult:
    """``circuits._run_checked`` as it was before programs were planned: every call works
    out each element's positions, unitary, predicate, labels and layout again, inline."""
    live = tuple(range(ir.mode_count))  # every branch's circuit mode at each position
    branches = [Branch({}, 1.0, FockState.vacuum(ir.mode_count), (), True)]
    for joint, group in itertools.groupby(ir.elements, lambda e: isinstance(e, Detect)):
        if joint:
            detectors = tuple(group)
            names = [d.name for d in detectors]
            positions = [live.index(d.mode) for d in detectors]
            grown = []
            for b in branches:
                for outcome in measure.outcome_distribution(b.residual, positions):
                    counts = {**b.counts, **dict(zip(names, outcome.counts))}
                    probability = b.probability * outcome.probability
                    grown.append(Branch(counts, probability, outcome.residual, b.corrections, b.accepted))
            branches = grown
            live = tuple(live[k] for k in layout(len(live), positions).rest)
            continue
        for element in group:
            if isinstance(element, ApplyBS):
                m = element.matrix
                u = circuits._HADAMARD if m is None else ModeUnitary([[m[0], m[1]], [m[2], m[3]]])
                pq = [live.index(mode) for mode in element.modes]
                local_of = layout(len(live), pq).local_of
                kets = [b.residual.terms for b in branches]
                _limit_terms(ir, element, sum(len(k) + sum(map(sum, map(local_of, k))) for k in kets))
                for b in branches:
                    b.residual = optics.apply_mode_unitary(b.residual, pq, u)
            elif isinstance(element, PostSelect):
                for b in branches:
                    b.accepted = b.accepted and predicate_holds(element.predicate, b.counts)
            elif isinstance(element, CorrectZ):
                pair = DualRailQubit(live.index(element.rail1), live.index(element.rail0))
                r1, r0 = ir.label_of(element.rail1), ir.label_of(element.rail0)
                for b in branches:
                    if b.accepted and predicate_holds(element.condition, b.counts):
                        try:
                            b.residual = rails.pauli_correction(b.residual, pair, "Z")
                        except LeakageError as exc:
                            raise CircuitError(f"correct z on {r1} {r0}: {exc}") from None
                        b.corrections = b.corrections + (f"Z on ({r1}, {r0})",)
            else:
                modes, terms = _engine_preparation(ir, element)
                _limit_terms(ir, element, len(terms) * sum(len(b.residual.terms) for b in branches))
                place = layout(len(live), [live.index(mode) for mode in modes]).place
                for b in branches:
                    out = {}
                    for ket, amp in b.residual.terms.items():
                        for sub, sub_amp in terms:
                            out[place(ket + sub)] = 0j + amp * sub_amp
                    b.residual = FockState._trusted(b.residual.mode_count, out)
    return RunResult(
        branches,
        sum((b.probability for b in branches if b.accepted), 0.0),
        sum((b.probability for b in branches if not b.accepted), 0.0),
        output_labels=tuple(map(ir.label_of, live)),
    )


def _limit_terms(ir: CircuitIR, element: Element, bound: int) -> None:
    if bound <= circuits.MAX_TERMS:
        return
    if isinstance(element, ApplyBS):
        what, modes = "bs", element.modes
    elif isinstance(element, PrepareDualRail):
        what, modes = "dualrail on", (element.rail1, element.rail0)
    elif isinstance(element, PrepareBell):
        what, modes = f"bell {element.kind} on", element.modes
    else:
        what, modes = "ket", ()
    name = what + "".join(f" {ir.label_of(m)}" for m in modes)
    raise CircuitError(f"{name} could output {bound} terms, above the limit of {circuits.MAX_TERMS}")


def _engine_preparation(ir: CircuitIR, element: Element) -> tuple[Iterable[int], tuple]:
    """The modes a preparation writes and its terms, as the engine checked them once."""
    if isinstance(element, PrepareKet):
        return range(ir.mode_count), tuple(FockState(ir.mode_count, element.terms).terms.items())
    if isinstance(element, PrepareDualRail):
        amps = (as_amplitude(a, "dualrail amplitude") for a in (element.a0, element.a1))
        terms = tuple((k, a) for k, a in zip(rails.RAIL_KETS, amps) if a)
        return (element.rail1, element.rail0), terms
    factor = rails.bell_state(element.kind, DualRailQubit(0, 1), DualRailQubit(2, 3), 4)
    return element.modes, tuple(factor.terms.items())


def bell_state(kind: str, pair_a: DualRailQubit, pair_b: DualRailQubit, total_modes: int) -> FockState:
    """``rails.bell_state``, each ket placed bit by bit."""
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {BELL_KINDS}")
    modes = pair_a.modes + pair_b.modes
    if len(set(modes)) != 4:
        raise ValueError("Bell state needs four distinct modes")
    total_modes = _checked_mode_count(total_modes)
    checked_modes(total_modes, modes)
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        left, right = ("0", "0"), ("1", "1")
    else:
        left, right = ("1", "0"), ("0", "1")

    def place(bits: tuple[str, str]) -> tuple[int, ...]:
        ket = [0] * total_modes
        for bit, pair in zip(bits, (pair_a, pair_b)):
            ket[pair.rail1 if bit == "1" else pair.rail0] = 1
        return tuple(ket)

    s = 1.0 / math.sqrt(2.0)
    return FockState(total_modes, [(place(left), s), (place(right), sign * s)])


def decode_register(state: FockState, pairs: Sequence[DualRailQubit]) -> np.ndarray:
    """``rails.decode_register``, reading each pair's rails by index."""
    rest_of = layout(state.mode_count, [m for p in pairs for m in p.modes]).rest_of
    amps = np.zeros(2 ** len(pairs), dtype=complex)
    leakage = 0.0
    try:
        for ket, amp in state.terms.items():
            if any(rest_of(ket)):
                leakage += abs(amp) ** 2
                continue
            index = 0
            ok = True
            for p in pairs:
                bits = (ket[p.rail1], ket[p.rail0])
                if bits == (0, 1):
                    index = index * 2
                elif bits == (1, 0):
                    index = index * 2 + 1
                else:
                    ok = False
                    break
            if not ok:
                leakage += abs(amp) ** 2
                continue
            amps[index] += amp
    except OverflowError:  # a finite amplitude squared past the float range
        leakage = math.inf
    if leakage > LEAK_TOL:
        raise LeakageError("state leaks outside the dual-rail subspace", leakage)
    return amps


def pauli_correction(state: FockState, placement: DualRailQubit, which: str) -> FockState:
    """``rails.pauli_correction`` with one arm per Pauli label: a separate leakage pass, I
    returned as given, and each output summed into its dict entry."""
    if which not in ("I", "X", "Z", "Y"):
        raise ValueError(f"unknown Pauli label {which!r}")
    _, local_of, _, _, place = layout(state.mode_count, placement.modes)
    try:
        leakage = sum(
            abs(amp) ** 2 for ket, amp in state.terms.items() if local_of(ket) not in rails.RAIL_KETS
        )
    except OverflowError:  # a finite amplitude squared past the float range
        leakage = math.inf
    if leakage > LEAK_TOL:
        raise LeakageError("Pauli correction outside the dual-rail subspace", leakage)
    if which == "I":
        return state

    out: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        local = local_of(ket)
        is_one = local[0] == 1
        if which == "Z":
            out[ket] = out.get(ket, 0j) + (-amp if is_one else amp)
            continue
        key = place(ket + local[::-1])
        if which == "X":
            out[key] = out.get(key, 0j) + amp
        else:  # Y: |0>_L -> i|1>_L, |1>_L -> -i|0>_L
            out[key] = out.get(key, 0j) + (-1j * amp if is_one else 1j * amp)
    return FockState._trusted(state.mode_count, out)


def collect_output(
    decoded: list[np.ndarray], reference: np.ndarray | None
) -> tuple[np.ndarray | None, float | None]:
    """A gate's output and fidelity from its per-branch decodes, as ``protocols._run_gate`` sets them."""
    if not decoded:
        return None, None
    first = decoded[0]
    for other in decoded[1:]:
        if abs(abs(np.vdot(first, other)) - 1.0) > 1e-9:
            raise protocols.SimulationInvariantError("accepted branches decode to different states")
    out = protocols._align_phase(first, reference)
    return out, None if reference is None else float(abs(np.vdot(reference, out)) ** 2)


def complex_pairs(vec: np.ndarray) -> list[list[float]]:
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
    return list(map(list, zip((vec.real + 0.0).tolist(), (vec.imag + 0.0).tolist())))


def dense_report(
    result: RunResult, command: str, inputs: dict, duration: float
) -> reports.RunReport:
    """``reports.from_run`` with a list of its own for every register entry."""
    report = reports.from_run(result, command, inputs, duration)
    if report.output is not None:
        report.output["amplitudes"] = complex_pairs(result.output_logical)
    return report


_NULL_OUTPUT_LINE = '\n  "output": null,\n'
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# An amplitude pair is a two-item list at depth 3, inside the list at depth 2.
_IN_PAIR = ",\n        "
_BETWEEN_PAIRS = "\n      ],\n      [\n        "


def _json_floats(values: Iterable[float]) -> list[str]:
    texts = list(map(float.__repr__, values))
    return list(map(_NONFINITE.get, texts, texts))


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _render_output(output: dict) -> str:
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


def report_to_json(report: reports.RunReport) -> str:
    """``RunReport.to_json`` formatting every float of every register pair."""
    doc = report.to_dict()
    output = doc["output"]
    if output is None:
        return json.dumps(doc, indent=2) + "\n"
    doc["output"] = None
    head, _, tail = json.dumps(doc, indent=2).partition(_NULL_OUTPUT_LINE)
    return f'{head}\n  "output": {_render_output(output)},\n{tail}\n'


def report_to_table(report: reports.RunReport) -> str:
    """``RunReport.to_table`` formatting one register line per entry."""
    lines = [f"command: {report.command}"]
    for key, value in report.inputs.items():
        lines.append(f"  {key}: {json.dumps(value) if isinstance(value, list) else value}")
    lines.append("branches:")
    lines.append(f"  {'outcome':28} {'probability':>12}  {'accepted':8} corrections")
    for br in report.branches:
        counts = " ".join(f"{k}={v}" for k, v in br["counts"].items())
        corrections = ", ".join(br["corrections"]) or "-"
        mark = "yes" if br["accepted"] else "no"
        lines.append(f"  {counts:28} {br['probability']:>12.10f}  {mark:8} {corrections}")
        if br["residual"] is not None:
            for text in br["residual"]:
                lines.append(f"      {text}")
    lines.append(f"accepted probability: {report.accepted_probability:.12f}")
    if report.output is not None:
        carriers = report.output.get("mode_labels")
        suffix = f" on modes {', '.join(carriers)}" if carriers else ""
        lines.append(f"decoded output (logical basis){suffix}:")
        for label, (re, im) in zip(report.output["basis"], report.output["amplitudes"]):
            lines.append(f"  |{label}>: ({re:+.12f}, {im:+.12f})")
    if report.fidelity_vs_reference is not None:
        lines.append(f"fidelity vs reference: {report.fidelity_vs_reference:.12f}")
    lines.append(f"duration: {report.duration_seconds:.3f} s")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Helpers only the tests call
# --------------------------------------------------------------------------


def tensor(a: FockState, b: FockState) -> FockState:
    """Juxtapose registers: the modes of ``b`` are appended after those of ``a``."""
    out: dict[tuple[int, ...], complex] = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            out[ka + kb] = va * vb
    return FockState(a.mode_count + b.mode_count, out)


def distance(a: FockState, b: FockState) -> float:
    """2-norm of the amplitude difference, over the union of kets."""
    if a.mode_count != b.mode_count:
        raise ValueError("mode counts differ")
    kets = set(a.terms) | set(b.terms)
    return math.sqrt(sum(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) ** 2 for k in kets))


def project_onto_state(
    state: FockState, modes: Sequence[int], reference: FockState
) -> tuple[float, FockState | None]:
    """Project the listed modes onto a reference state (e.g. a Bell state).

    Returns the branch probability and the normalized residual on the other
    modes; the reference is read with its mode i matching ``modes[i]``.
    """
    modes = [int(m) for m in modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    checked_modes(state.mode_count, modes)
    if reference.mode_count != len(modes):
        raise ValueError("reference state width does not match the listed modes")
    if abs(reference.norm_squared() - 1.0) > 1e-9:
        raise ValueError("reference state must be normalized")

    kept = tuple(m for m in range(state.mode_count) if m not in set(modes))
    residual_terms: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        part = tuple(ket[m] for m in modes)
        ref_amp = reference.terms.get(part)
        if ref_amp is None:
            continue
        rest = tuple(ket[m] for m in kept)
        residual_terms[rest] = residual_terms.get(rest, 0j) + ref_amp.conjugate() * amp

    weight = sum(abs(v) ** 2 for v in residual_terms.values())
    if weight == 0.0 or not kept:
        return weight, None
    scale = 1.0 / math.sqrt(weight)
    residual = FockState(len(kept), {k: v * scale for k, v in residual_terms.items()})
    return weight, residual


def teleport_outcome_branches(
    u: BellAmplitudes, qubit: LogicalAmplitudes
) -> dict[str, tuple[float, np.ndarray | None]]:
    """Collapse the gate table per outcome: branch probability and state."""
    return collapse_teleport_rows(teleport_gate_table(u, qubit), qubit)


# Independent oracle: the transition amplitude of a linear element is the
# permanent of the unitary with rows/columns repeated by occupation
# (Scheel, quant-ph/0406127), computed by Ryser's formula
#   Per(A) = (-1)^n sum over column subsets S of (-1)^|S| prod_i sum_{j in S} A[i, j].
def permanent(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    total = 0j
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** size * np.prod(mat[:, list(cols)].sum(axis=1))
    return complex((-1) ** n * total) if n else 1.0 + 0j


def oracle_amplitude(u: np.ndarray, occ_in, occ_out) -> complex:
    """<occ_out| U |occ_in> = Per(U[occ_out, occ_in]) / sqrt(prod occ_in! prod occ_out!)."""
    if sum(occ_in) != sum(occ_out):
        return 0j
    rows = [i for i, m in enumerate(occ_out) for _ in range(m)]
    cols = [j for j, n in enumerate(occ_in) for _ in range(n)]
    norm = math.sqrt(
        math.prod(math.factorial(n) for n in occ_in)
        * math.prod(math.factorial(m) for m in occ_out)
    )
    return permanent(u[np.ix_(rows, cols)]) / norm


def sector(mode_count: int, photons: int) -> list[tuple[int, ...]]:
    """Every occupation of ``mode_count`` modes holding ``photons`` photons."""
    return [
        occ
        for occ in itertools.product(range(photons + 1), repeat=mode_count)
        if sum(occ) == photons
    ]
