"""The three gate constructions and the teleportation bookkeeping behind them.

The conditional sign flip is obtained by running single-rail teleportation
between one output arm of a Hadamard beam splitter on the control qubit and
one rail of the target qubit. Which Bell component of the mixed arms gets
heralded decides the correction picked up by the teleported rail:

* ``run_destructive_csign``: Hadamard on the control, Bell measurement mixing
  control and target. Consumes the control qubit.
* ``run_quantum_encoder``: copies the two basis states of a qubit onto an
  entangled register (no-cloning-compatible "doubling").
* ``run_nondestructive_csign``: encoder on the control, then the destructive
  gate burning the encoded copy; the surviving half of the register carries
  the control out.

Detectors herald success: the singlet component maps to exactly one photon
on D1 and none on D2. With the beam splitter convention of ``optics`` and
the mixer applied to the ordered pair (control arm, target rail), the
singlet lands on the slot of the second listed mode; that port *defines* D1.
The assignment is pinned by tests, not assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import rails
from .circuits import (
    ApplyBS,
    CircuitIR,
    CorrectZ,
    Detect,
    Element,
    PostSelect,
    PrepareBell,
    PrepareDualRail,
    PrepareKet,
    RunResult,
    run_branches,
)
from .rails import DualRailQubit, LogicalAmplitudes

POLICIES = ("strict", "feedforward")

# Dense 2^n vectors back the encoder's reference and decoded register; 2^20
# amplitudes are 16 MB per vector.
MAX_ENCODER_COPIES = 20

# Bell states ordered to match the ancilla-amplitude indices 0, z, x, y.
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")
COMPONENT_LABELS = ("0", "z", "x", "y")


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze a shared module array; one in-place write would corrupt later gates."""
    a.flags.writeable = False
    return a


_I = _read_only(np.eye(2, dtype=complex))
_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))
PAULI = MappingProxyType(
    {"0": _I, "I": _I, "z": _Z, "Z": _Z, "x": _X, "X": _X, "y": _Y, "Y": _Y}
)

# sigma_b @ sigma_i for every (outcome, component) pair of the gate table,
# with sigma_b the Pauli labelled like the outcome's row.
PAULI_PRODUCTS = MappingProxyType(
    {
        (outcome, component): _read_only(PAULI[blabel] @ PAULI[component])
        for outcome, blabel in zip(BELL_LABELS, COMPONENT_LABELS)
        for component in COMPONENT_LABELS
    }
)

# Coefficient table as tabulated in the literature for the Bell-basis
# rewrite below. It is documentation to be checked, never a data source:
# verify_a_matrix() compares it against the first-principles derivation,
# which is canonical everywhere else.
LITERATURE_COEFFICIENTS = _read_only(
    np.array(
        [
            [1, -1, 1, 1j],
            [1, -1, -1j, -1],
            [1, -1j, 1, 1],
            [-1j, 1, 1, 1],
        ],
        dtype=complex,
    )
)


class SimulationInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def csign_reference() -> np.ndarray:
    """The conditional sign flip on the basis {|00>,|01>,|10>,|11>}."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


# --------------------------------------------------------------------------
# Qubit-level teleportation table (no photons involved)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BellAmplitudes:
    """Ancilla-pair expansion coefficients over (psi+, psi-, phi+, phi-)."""

    u0: complex
    uz: complex
    ux: complex
    uy: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.u0, self.uz, self.ux, self.uy], dtype=complex)


@dataclass
class TeleportRow:
    """One (measurement outcome, ancilla component) entry of the gate table.

    The branch state for outcome b is the sum over its rows of
    ``coefficient * operator @ input``; each operator is a product of two
    Paulis, hence itself a Pauli up to phase.
    """

    outcome: str
    component: str
    coefficient: complex
    operator: np.ndarray


def _bell_vector(label: str) -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    k00 = np.array([1, 0, 0, 0], dtype=complex)
    k01 = np.array([0, 1, 0, 0], dtype=complex)
    k10 = np.array([0, 0, 1, 0], dtype=complex)
    k11 = np.array([0, 0, 0, 1], dtype=complex)
    return {
        "phi+": s * (k00 + k11),
        "phi-": s * (k00 - k11),
        "psi+": s * (k10 + k01),
        "psi-": s * (k10 - k01),
    }[label]


def _projected_operator(outcome: str, component: str) -> np.ndarray:
    """Operator M with <outcome_12 | (|q>_1 |component_23>) = M |q>_3.

    Derived by feeding the two basis inputs through the exact three-qubit
    state and projecting qubits (1,2) on the outcome Bell state.
    """
    bell_out = _bell_vector(outcome)
    bell_anc = _bell_vector(BELL_LABELS[COMPONENT_LABELS.index(component)])
    cols = []
    for basis in (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)):
        full = np.kron(basis, bell_anc)  # qubits (1, 2, 3)
        cols.append(bell_out.conj() @ full.reshape(4, 2))
    return np.array(cols, dtype=complex).T


@functools.cache
def derive_teleport_coefficients() -> np.ndarray:
    """First-principles 4x4 coefficient table a[b, i].

    Row b runs over measurement outcomes (psi+, psi-, phi+, phi-) mapped to
    Pauli labels (I, z, x, y); column i over ancilla components. Defined by
    M_{b,i} = (a[b,i]/2) * sigma_b sigma_i, which the derivation also checks
    holds exactly.

    The table is derived once per process, on the first call; every call
    returns that same read-only array.
    """
    table = np.zeros((4, 4), dtype=complex)
    for r, outcome in enumerate(BELL_LABELS):
        for c, component in enumerate(COMPONENT_LABELS):
            m = _projected_operator(outcome, component)
            pauli_product = PAULI_PRODUCTS[outcome, component]
            a = np.trace(pauli_product.conj().T @ m)
            if not np.allclose(m, (a / 2.0) * pauli_product, atol=1e-12):
                raise SimulationInvariantError(
                    f"projected operator for ({outcome}, {component}) is not "
                    "proportional to the Pauli product"
                )
            table[r, c] = complex(np.round(a.real, 12) + 1j * np.round(a.imag, 12))
    return _read_only(table)


def teleport_gate_table(u: BellAmplitudes, qubit: LogicalAmplitudes) -> list[TeleportRow]:
    """Per-outcome corrections induced by teleporting through ancilla ``u``.

    One row per (outcome, ancilla component with nonzero amplitude); rows
    sharing an outcome add coherently. With a single nonzero component the
    operators reduce to single Paulis: standard teleportation corrections.
    """
    if not rails.is_normalized((u.u0, u.uz, u.ux, u.uy)):
        raise ValueError("Bell amplitudes must be normalized")
    rails.require_normalized(qubit)
    table = derive_teleport_coefficients()
    amps = u.as_array()
    rows = []
    for r, outcome in enumerate(BELL_LABELS):
        for c, component in enumerate(COMPONENT_LABELS):
            if abs(amps[c]) <= 1e-15:
                continue
            rows.append(
                TeleportRow(
                    outcome=outcome,
                    component=component,
                    coefficient=amps[c] * table[r, c] / 2.0,
                    operator=PAULI_PRODUCTS[outcome, component],
                )
            )
    return rows


def collapse_teleport_rows(
    rows: list[TeleportRow], qubit: LogicalAmplitudes
) -> dict[str, tuple[float, np.ndarray | None]]:
    """Per outcome, the coherent sum of ``rows`` acting on ``qubit``: branch
    probability and normalized state (None for a vanishing branch)."""
    vec = qubit.as_array()
    branches: dict[str, tuple[float, np.ndarray | None]] = {}
    for outcome in BELL_LABELS:
        total = np.zeros(2, dtype=complex)
        for row in rows:
            if row.outcome == outcome:
                total = total + row.coefficient * (row.operator @ vec)
        p = float(np.sum(np.abs(total) ** 2))
        branches[outcome] = (p, total / math.sqrt(p) if p > 1e-30 else None)
    return branches


@dataclass
class CoefficientComparison:
    """One entry of the derived-vs-literature coefficient check."""

    outcome: str
    component: str
    derived: complex
    literature: complex
    status: str  # "match" | "match_up_to_row_phase" | "mismatch"


@dataclass
class CoefficientReport:
    derived: np.ndarray
    literature: np.ndarray
    row_phases: dict[str, complex]
    entries: list[CoefficientComparison]

    @property
    def mismatches(self) -> list[CoefficientComparison]:
        return [e for e in self.entries if e.status == "mismatch"]

    def lines(self) -> list[str]:
        out = [
            "teleportation coefficient table: derived vs literature",
            f"{'outcome':8} {'component':9} {'derived':>8} {'literature':>10}  status",
        ]
        for e in self.entries:
            out.append(
                f"{e.outcome:8} {e.component:9} {_fmt_unit(e.derived):>8} "
                f"{_fmt_unit(e.literature):>10}  {e.status}"
            )
        n = len(self.mismatches)
        out.append(
            f"{n} of {len(self.entries)} entries disagree with the literature table"
            + ("" if n == 0 else " (derived values are canonical)")
        )
        return out


def _fmt_unit(z: complex) -> str:
    for label, value in (("1", 1), ("-1", -1), ("i", 1j), ("-i", -1j), ("0", 0)):
        if abs(z - value) < 1e-9:
            return label
    return f"{z:.3g}"


def verify_a_matrix() -> CoefficientReport:
    """Compare the derived coefficient table against the literature one.

    Each entry is classified as an exact match, a match after the row's best
    global phase (phases are unobservable per measurement outcome), or a
    mismatch. The derived table is authoritative either way.
    """
    derived = derive_teleport_coefficients()
    literature = LITERATURE_COEFFICIENTS
    entries = []
    row_phases: dict[str, complex] = {}
    for r, outcome in enumerate(BELL_LABELS):
        candidates = (1, -1, 1j, -1j)
        best = max(
            candidates,
            key=lambda lam: sum(
                1 for c in range(4) if abs(lam * derived[r, c] - literature[r, c]) < 1e-9
            ),
        )
        row_phases[outcome] = complex(best)
        for c, component in enumerate(COMPONENT_LABELS):
            if abs(derived[r, c] - literature[r, c]) < 1e-9:
                status = "match"
            elif abs(best * derived[r, c] - literature[r, c]) < 1e-9 and best != 1:
                status = "match_up_to_row_phase"
            else:
                status = "mismatch"
            entries.append(
                CoefficientComparison(
                    outcome, component, complex(derived[r, c]), complex(literature[r, c]), status
                )
            )
    return CoefficientReport(derived, literature, row_phases, entries)


# --------------------------------------------------------------------------
# Photonic protocol runs: circuit programs on the interpreter in ``circuits``
# --------------------------------------------------------------------------


def _align_phase(vec: np.ndarray, reference: np.ndarray | None) -> np.ndarray:
    if reference is not None:
        overlap = np.vdot(reference, vec)
        if abs(overlap) > 1e-12:
            return vec * (overlap.conjugate() / abs(overlap))
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return vec * phase.conjugate()


def _fidelity(reference: np.ndarray | None, out: np.ndarray | None) -> float | None:
    if reference is None or out is None:
        return None
    return float(abs(np.vdot(reference, out)) ** 2)


def _normalize_or_none(vec: np.ndarray) -> np.ndarray | None:
    n = float(np.linalg.norm(vec))
    return vec / n if n > 1e-12 else None


def _collect_output(
    decoded: list[np.ndarray], reference: np.ndarray | None
) -> tuple[np.ndarray | None, float | None]:
    """Merge per-branch decodes, which must agree up to global phase."""
    if not decoded:
        return None, None
    first = decoded[0]
    for other in decoded[1:]:
        if abs(abs(np.vdot(first, other)) - 1.0) > 1e-9:
            raise SimulationInvariantError("accepted branches decode to different states")
    out = _align_phase(first, reference)
    return out, _fidelity(reference, out)


def _herald(d1: str, d2: str, policy: str, rail1: int, rail0: int) -> tuple[Element, ...]:
    """Keep the singlet click (d1=1, d2=0); feed-forward also keeps the
    other single click and repairs it with a Z on the pair (rail1, rail0)."""
    singlet = ((d1, 1), (d2, 0))
    if policy == "strict":
        return (PostSelect((singlet,)),)
    other = ((d1, 0), (d2, 1))
    return PostSelect((singlet, other)), CorrectZ(rail1, rail0, (other,))


def _destructive_stage(
    control: DualRailQubit, target: DualRailQubit, policy: str
) -> tuple[Element, ...]:
    """Hadamard on the control, Bell mixer on (its arm 2', target rail 3), herald.

    The Hadamard lists the control as (rail0, rail1) so the logical amplitude
    vector (a0, a1) transforms by the matrix itself; the singlet herald lands
    on the mixer's second slot, where D1 sits. The teleported target ends up
    on (1', 4).
    """
    return (
        ApplyBS((control.rail0, control.rail1), None),
        ApplyBS((control.rail0, target.rail1), None),
        Detect(target.rail1, "D1"),
        Detect(control.rail0, "D2"),
        *_herald("D1", "D2", policy, control.rail1, target.rail0),
    )


def _encoder_stage(n: int, policy: str) -> tuple[Element, ...]:
    """Mixer on (last register mode, input rail1) and the Da1/Da2 herald.

    The register holds modes 0..2n-1 and the input rails 2n, 2n+1; the
    singlet lands on the second slot, where Da1 sits. The input's rail0
    completes the last register pair.
    """
    return (
        ApplyBS((2 * n - 1, 2 * n), None),
        Detect(2 * n, "Da1"),
        Detect(2 * n - 1, "Da2"),
        *_herald("Da1", "Da2", policy, 2 * n - 2, 2 * n + 1),
    )


def _run_gate(
    ir: CircuitIR, pairs: list[DualRailQubit], reference: np.ndarray | None
) -> RunResult:
    """Run a gate program; decode the accepted residuals on ``pairs``."""
    result = run_branches(ir)
    decoded = [rails.decode_register(b.residual, pairs) for b in result.branches if b.accepted]
    result.output_logical, result.fidelity_vs_reference = _collect_output(decoded, reference)
    return result


def run_destructive_csign(
    control: LogicalAmplitudes, target: LogicalAmplitudes, policy: str = "strict"
) -> RunResult:
    """Heralded sign flip that consumes the control qubit.

    Control rails are modes (1, 2), target rails (3, 4). The Hadamard beam
    splitter turns the control into a triplet (|1>_L in) or singlet (|0>_L
    in) across its output arms 1' and 2'; mixing 2' with target rail 3
    teleports the target onto (1', 4) up to a Bell-outcome correction. The
    strict policy keeps only the D1=1, D2=0 herald (probability 1/4 for a
    basis-state control); feed-forward also keeps D1=0, D2=1 and repairs it
    with a Z, doubling the acceptance.
    """
    _check_policy(policy)
    # Not redundant with the run's check: numpy would first warn computing the reference.
    rails.require_normalized(control)
    rails.require_normalized(target)
    ir = CircuitIR(
        4,
        ("1'", "2'", "3", "4"),
        (
            PrepareDualRail(control.a0, control.a1, 0, 1),
            PrepareDualRail(target.a0, target.a1, 2, 3),
            *_destructive_stage(DualRailQubit(0, 1), DualRailQubit(2, 3), policy),
        ),
    )
    expected = control.a0 * target.as_array() + control.a1 * (_Z @ target.as_array())
    reference = _normalize_or_none(expected)
    return _run_gate(ir, [DualRailQubit(0, 1)], reference)


def _pair_letter(i: int) -> str:
    return "abcdefghijklmnopqrstuvwxyz"[i % 26]


def run_quantum_encoder(
    qubit: LogicalAmplitudes, n_copies: int = 2, policy: str = "strict"
) -> RunResult:
    """Copy the basis states of a qubit onto an n-qubit entangled register.

    The register starts in (|0101...01> - |1010...10>)/sqrt2 on 2n modes; the
    last register mode is mixed with the input's first rail and the singlet
    herald (one photon on Da1, none on Da2) leaves
    a1|0...0>_L + a2|1...1>_L on the n encoded qubits, the last of which is
    carried by the surviving register rail and the input's second rail.
    """
    _check_policy(policy)
    rails.require_normalized(qubit)
    if n_copies < 2:
        raise ValueError("the encoder needs at least two copies")
    if n_copies > MAX_ENCODER_COPIES:
        raise ValueError(f"the encoder supports at most {MAX_ENCODER_COPIES} copies")
    n = n_copies

    s = 1.0 / math.sqrt(2.0)
    register = (((0, 1) * n, s), ((1, 0) * n, -s))
    input_terms = (((0, 1), qubit.a0), ((1, 0), qubit.a1))
    product = tuple((r + q, ra * qa) for r, ra in register for q, qa in input_terms)
    labels = [f"{_pair_letter(i)}{r}" for i in range(n) for r in (1, 2)] + ["1", "2"]
    ir = CircuitIR(2 * n + 2, tuple(labels), (PrepareKet(product), *_encoder_stage(n, policy)))

    reference = np.zeros(2**n, dtype=complex)
    reference[0] = qubit.a0
    reference[-1] = qubit.a1
    pairs = [DualRailQubit(2 * i, 2 * i + 1) for i in range(n)]
    return _run_gate(ir, pairs, reference)


# One label per mode: the register's b1 rail, which the stage-1 correction
# names, is the 1' arm of the destructive stage and of the output.
_STAGE1_CORRECTION = {"Z on (1', 2)": "Z on (b1, 2)"}


def run_nondestructive_csign(
    control: LogicalAmplitudes, target: LogicalAmplitudes, policy: str = "strict"
) -> RunResult:
    """Sign flip that preserves the control, via the quantum encoder.

    The control is doubled onto the register pairs (a1, a2) and (b1, 2); the
    destructive gate then consumes the (b1, 2) copy against the target. The
    surviving output is the two-qubit state on (a1, a2) and (1', 4), compared
    against the reference conditional sign flip. The same acceptance policy
    is applied at both heralding stages.
    """
    _check_policy(policy)
    rails.require_normalized(control)
    rails.require_normalized(target)
    ir = CircuitIR(
        8,
        ("a1", "a2", "1'", "b2", "1", "2", "3", "4"),
        (
            # The n=2 register (|0101> - |1010>)/sqrt2 is the Bell state phi-.
            PrepareBell("phi-", (0, 1, 2, 3)),
            PrepareDualRail(control.a0, control.a1, 4, 5),
            *_encoder_stage(2, policy),
            # The target joins after the encoder's herald, as a fresh factor.
            PrepareDualRail(target.a0, target.a1, 6, 7),
            *_destructive_stage(DualRailQubit(2, 5), DualRailQubit(6, 7), policy),
        ),
    )
    reference = csign_reference() @ np.kron(control.as_array(), target.as_array())
    pairs = [DualRailQubit(0, 1), DualRailQubit(2, 3)]
    result = _run_gate(ir, pairs, reference)
    for b in result.branches:
        b.corrections = tuple(_STAGE1_CORRECTION.get(c, c) for c in b.corrections)
    return result
