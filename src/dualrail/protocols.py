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

Each gate is a circuit program for the engine in ``circuits``: a ``CircuitIR``,
checked and planned when it is made, once per policy and copy count. A call
runs its plan with the factors of its checked inputs in place of the program's.

Detectors herald success: the singlet component maps to exactly one photon
on D1 and none on D2. With the beam splitter convention of ``optics`` and
the mixer applied to the ordered pair (control arm, target rail), the
singlet lands on the slot of the second listed mode; that port *defines* D1.
The assignment is pinned by tests, not assumed.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import rails
from .circuits import (  # POLICIES, MAX_ENCODER_COPIES and SimulationInvariantError are re-exported
    MAX_ENCODER_COPIES,
    POLICIES,
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
    SimulationInvariantError,
    _dualrail_factor,
    _ket_factor,
    _run_checked,
)
from .fock import as_amplitude, as_int
from .rails import DualRailQubit, LogicalAmplitudes

# Bell states ordered to match the ancilla-amplitude indices 0, z, x, y.
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")
COMPONENT_LABELS = ("0", "z", "x", "y")

# The register pairs (0, 1), (2, 3), ..., built once: the gates decode their first n.
_REGISTER = tuple(DualRailQubit(2 * i, 2 * i + 1) for i in range(MAX_ENCODER_COPIES))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze a shared module array; one in-place write would corrupt later gates."""
    a.flags.writeable = False
    return a


_I, _X, _Y, _Z = (_read_only(np.array(rails.PAULIS[p], dtype=complex)) for p in "IXYZ")
PAULI = MappingProxyType({"0": _I, "I": _I, "z": _Z, "Z": _Z, "x": _X, "X": _X, "y": _Y, "Y": _Y})

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


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def csign_reference() -> np.ndarray:
    """The conditional sign flip on the basis {|00>,|01>,|10>,|11>}."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


_CSIGN = _read_only(csign_reference())


# --------------------------------------------------------------------------
# Qubit-level teleportation table (Bell vectors decoded from rails.bell_state)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BellAmplitudes:
    """Ancilla-pair expansion coefficients over (psi+, psi-, phi+, phi-)."""

    u0: complex
    uz: complex
    ux: complex
    uy: complex

    def __post_init__(self) -> None:
        for u in (self.u0, self.uz, self.ux, self.uy):
            as_amplitude(u, "Bell amplitude")  # a check only: the fields keep their type

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
    """``rails.bell_state(label)`` decoded to 4 logical amplitudes, the left qubit first."""
    pairs = _REGISTER[:2]
    return rails.decode_register(rails.bell_state(label, *pairs, 4), pairs)


@functools.cache
def derive_teleport_coefficients() -> np.ndarray:
    """First-principles 4x4 coefficient table a[b, i].

    Row b runs over measurement outcomes (psi+, psi-, phi+, phi-) mapped to
    Pauli labels (I, z, x, y); column i over ancilla components. Defined by
    M_{b,i} = (a[b,i]/2) * sigma_b sigma_i, which the derivation also checks
    holds exactly. M_{b,i} is the operator with <b|_12 (|q>_1 |i>_23) =
    M_{b,i} |q>_3, the one 2x2 contraction
    M[q3, q1] = sum_q2 <b|q1 q2> <q2 q3|i>.

    The table is derived once per process, on the first call; every call
    returns that same read-only array.
    """
    table = np.zeros((4, 4), dtype=complex)
    bells = [_bell_vector(label).reshape(2, 2) for label in BELL_LABELS]  # [q1, q2] or [q2, q3]
    for r, outcome in enumerate(BELL_LABELS):
        for c, component in enumerate(COMPONENT_LABELS):
            m = (bells[r].conj() @ bells[c]).T
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
    if not rails.is_normalized((u.u0, u.uz, u.ux, u.uy), "Bell amplitude"):
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
    status: str  # "match" | "mismatch"


@dataclass
class CoefficientReport:
    derived: np.ndarray
    literature: np.ndarray
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

    Each entry is a match or a mismatch; the derived table is authoritative.
    No phase or label choice reconciles them: the literature table breaks the
    orthogonality of distinct ancilla components that the Bell-basis rewrite
    needs (``tests/test_teleport.py``).
    """
    derived = derive_teleport_coefficients()
    literature = LITERATURE_COEFFICIENTS
    entries = []
    for r, outcome in enumerate(BELL_LABELS):
        for c, component in enumerate(COMPONENT_LABELS):
            status = "match" if abs(derived[r, c] - literature[r, c]) < 1e-9 else "mismatch"
            entries.append(
                CoefficientComparison(
                    outcome, component, complex(derived[r, c]), complex(literature[r, c]), status
                )
            )
    return CoefficientReport(derived, literature, entries)


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


# The input amplitudes a gate's program is built and checked with: logical |0>.
_UNBOUND = (1.0, 0.0)


# Each gate's program, built on its first call per key. The gates check the policy
# and copy count first, so at most 2 + 2 + 2 * 19 = 42 are kept.
@functools.cache
def _destructive_program(policy: str) -> CircuitIR:
    return CircuitIR(
        4,
        ("1'", "2'", "3", "4"),
        (
            PrepareDualRail(*_UNBOUND, 0, 1),
            PrepareDualRail(*_UNBOUND, 2, 3),
            *_destructive_stage(DualRailQubit(0, 1), DualRailQubit(2, 3), policy),
        ),
    )


@functools.cache
def _encoder_program(policy: str, n: int) -> CircuitIR:
    labels = [f"{string.ascii_lowercase[i % 26]}{r}" for i in range(n) for r in (1, 2)] + ["1", "2"]
    product = PrepareKet(tuple(_encoder_terms(n, *_UNBOUND)))
    return CircuitIR(2 * n + 2, tuple(labels), (product, *_encoder_stage(n, policy)))


def _encoder_terms(n: int, a0: complex, a1: complex) -> list[tuple[tuple[int, ...], complex]]:
    """The ket terms of the register (|0101...01> - |1010...10>)/sqrt2 times the input a0|0>_L + a1|1>_L."""
    zero, one = rails.RAIL_KETS
    s = 1.0 / math.sqrt(2.0)
    return [(r + q, ra * qa) for r, ra in ((zero * n, s), (one * n, -s)) for q, qa in zip(rails.RAIL_KETS, (a0, a1))]


@functools.cache
def _nondestructive_program(policy: str) -> CircuitIR:
    return CircuitIR(
        8,
        ("a1", "a2", "1'", "b2", "1", "2", "3", "4"),
        (
            # The n=2 register (|0101> - |1010>)/sqrt2 is the Bell state phi-.
            PrepareBell("phi-", (0, 1, 2, 3)),
            PrepareDualRail(*_UNBOUND, 4, 5),
            *_encoder_stage(2, policy),
            # The target joins after the encoder's herald, as a fresh factor.
            PrepareDualRail(*_UNBOUND, 6, 7),
            *_destructive_stage(DualRailQubit(2, 5), DualRailQubit(6, 7), policy),
        ),
    )


def _run_gate(ir: CircuitIR, factors: tuple, pairs: tuple[DualRailQubit, ...], reference: np.ndarray | None) -> RunResult:
    """Run a gate's program ``ir`` with its inputs' ``factors``; decode the accepted residuals
    on ``pairs``, which must agree up to global phase, and align the first to ``reference``."""
    result = _run_checked(ir._plan, factors)
    decoded = [rails.decode_register(b.residual, pairs) for b in result.branches if b.accepted]
    if decoded:
        first = decoded[0]
        for other in decoded[1:]:
            if abs(abs(np.vdot(first, other)) - 1.0) > 1e-9:
                raise SimulationInvariantError("accepted branches decode to different states")
        result.output_logical = out = _align_phase(first, reference)
        if reference is not None:
            result.fidelity_vs_reference = float(abs(np.vdot(reference, out)) ** 2)
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
    with a Z, doubling the acceptance. The program is checked once per policy.
    """
    _check_policy(policy)
    # Before the reference, which numpy would compute with a warning, and in place of
    # the rule pass, which the kept plan skips.
    rails.require_normalized(control)
    rails.require_normalized(target)
    expected = control.a0 * target.as_array() + control.a1 * (_Z @ target.as_array())
    norm = float(np.linalg.norm(expected))
    reference = expected / norm if norm > 1e-12 else None
    factors = _dualrail_factor(control.a0, control.a1), _dualrail_factor(target.a0, target.a1)
    return _run_gate(_destructive_program(policy), factors, _REGISTER[:1], reference)


def run_quantum_encoder(
    qubit: LogicalAmplitudes, n_copies: int = 2, policy: str = "strict"
) -> RunResult:
    """Copy the basis states of a qubit onto an n-qubit entangled register.

    The register starts in (|0101...01> - |1010...10>)/sqrt2 on 2n modes; the
    last register mode is mixed with the input's first rail and the singlet
    herald (one photon on Da1, none on Da2) leaves
    a1|0...0>_L + a2|1...1>_L on the n encoded qubits, the last of which is
    carried by the surviving register rail and the input's second rail.
    The program is checked once per policy and copy count.
    """
    _check_policy(policy)
    rails.require_normalized(qubit)
    n = as_int(n_copies, "copy count")
    if n < 2:
        raise ValueError("the encoder needs at least two copies")
    if n > MAX_ENCODER_COPIES:
        raise ValueError(f"the encoder supports at most {MAX_ENCODER_COPIES} copies")
    reference = np.zeros(2**n, dtype=complex)
    reference[0] = qubit.a0
    reference[-1] = qubit.a1
    factors = (_ket_factor(2 * n + 2, _encoder_terms(n, qubit.a0, qubit.a1)),)
    return _run_gate(_encoder_program(policy, n), factors, _REGISTER[:n], reference)


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
    is applied at both heralding stages. The program is checked once per policy.
    """
    _check_policy(policy)
    rails.require_normalized(control)
    rails.require_normalized(target)
    # The products np.kron takes, in its order, without its reshaping.
    reference = _CSIGN @ np.multiply.outer(control.as_array(), target.as_array()).ravel()
    factors = _dualrail_factor(control.a0, control.a1), _dualrail_factor(target.a0, target.a1)
    result = _run_gate(_nondestructive_program(policy), factors, _REGISTER[:2], reference)
    for b in result.branches:
        b.corrections = tuple(_STAGE1_CORRECTION.get(c, c) for c in b.corrections)
    return result
