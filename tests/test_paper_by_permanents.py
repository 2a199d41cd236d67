"""The paper's claims recomputed by permanents, a method ``optics`` does not share.

Each gate's beam splitters compose into one interferometer matrix U. No
element after a detection touches a detected mode, so every detection can be
deferred to the end: the amplitude of an output ket t is the sum over input
kets s of <t|U|s> = Per(U[t, s]) / sqrt(prod s! prod t!), and a detector
outcome keeps the kets t that show its counts. A feed-forward Z is the phase
-1 on its rail1 photon, applied for the outcomes that meet its condition: a
final correction multiplies the output amplitudes, and fig2's first-stage Z,
whose mode a later splitter mixes, is a phase shifter inside U.
"""

import itertools
import math

import numpy as np
import pytest

import dualrail
from dualrail import circuits
from dualrail.circuits import (
    ApplyBS,
    CorrectZ,
    Detect,
    PostSelect,
    PrepareBell,
    PrepareDualRail,
    PrepareKet,
)
from dualrail.protocols import csign_reference
from dualrail.rails import LogicalAmplitudes

from conftest import random_qubit
from reference_kernels import oracle_amplitude, sector
from test_protocols import bound_program

S = 1.0 / math.sqrt(2.0)
Z = np.diag([1.0, -1.0]).astype(complex)
# The documented convention: the first listed mode is the matrix's first input.
HADAMARD = np.array([[S, S], [-S, S]], dtype=complex)
# (|00>_L - |11>_L)/sqrt2 on (rail1, rail0, rail1, rail0); a rail0 photon is |0>_L.
PHI_MINUS = (((0, 1, 0, 1), S), ((1, 0, 1, 0), -S))


def holds(predicate, counts: dict[str, int]) -> bool:
    return any(all(counts[name] == value for name, value in clause) for clause in predicate)


def prepared(ir) -> dict[tuple[int, ...], complex]:
    """The product of the program's preparations, as {ket: amplitude}."""
    state = {(0,) * ir.mode_count: 1.0 + 0j}
    for e in ir.elements:
        if isinstance(e, PrepareKet):
            modes, terms = range(ir.mode_count), e.terms
        elif isinstance(e, PrepareDualRail):
            modes, terms = (e.rail1, e.rail0), (((0, 1), e.a0), ((1, 0), e.a1))
        elif isinstance(e, PrepareBell):
            assert e.kind == "phi-"
            modes, terms = e.modes, PHI_MINUS
        else:
            continue
        grown: dict[tuple[int, ...], complex] = {}
        for ket, amp in state.items():
            for sub, sub_amp in terms:
                out = list(ket)
                for m, n in zip(modes, sub):
                    out[m] = n
                grown[tuple(out)] = grown.get(tuple(out), 0j) + amp * sub_amp
        state = grown
    return state


def interferometer(ir, counts: dict[str, int]) -> np.ndarray:
    """U of the program's splitters and of each Z whose condition ``counts`` meet."""
    u = np.eye(ir.mode_count, dtype=complex)
    detected: set[int] = set()
    for e in ir.elements:
        step = np.eye(ir.mode_count, dtype=complex)
        if isinstance(e, Detect):
            detected.add(e.mode)
        elif isinstance(e, ApplyBS):
            assert e.matrix is None and not detected & set(e.modes)  # deferrable
            step[np.ix_(e.modes, e.modes)] = HADAMARD
        elif isinstance(e, CorrectZ) and holds(e.condition, counts):
            assert not detected & {e.rail1, e.rail0}
            step[e.rail1, e.rail1] = -1.0
        u = step @ u
    return u


def accepted_registers(ir) -> list[np.ndarray]:
    """Per accepted detector outcome, its unnormalized register amplitudes.

    The register's qubits are the undetected modes two at a time, rail1
    first; the first is the most significant bit. Any weight outside the
    register fails the check.
    """
    state = prepared(ir)
    photons = sum(next(iter(state)))
    detectors = {e.name: e.mode for e in ir.elements if isinstance(e, Detect)}
    live = [m for m in range(ir.mode_count) if m not in detectors.values()]
    predicates = [e.predicate for e in ir.elements if isinstance(e, PostSelect)]
    registers = []
    for pattern in itertools.product(range(photons + 1), repeat=len(detectors)):
        counts = dict(zip(detectors, pattern))
        if sum(pattern) > photons or not all(holds(p, counts) for p in predicates):
            continue
        u = interferometer(ir, counts)
        register = np.zeros(2 ** (len(live) // 2), dtype=complex)
        for rest in sector(len(live), photons - sum(pattern)):
            t = [0] * ir.mode_count
            for m, n in zip([*detectors.values(), *live], pattern + rest):
                t[m] = n
            amp = sum(a * oracle_amplitude(u, s, t) for s, a in state.items())
            if all(a + b == 1 for a, b in zip(rest[::2], rest[1::2])):
                register[int("".join(map(str, rest[::2])), 2)] = amp
            else:
                assert abs(amp) <= 1e-12, f"leakage into {t}"
        registers.append(register)
    return registers


def check_claims(ir, reference: np.ndarray, probability: float) -> None:
    """Accepted weight ``probability`` and every accepted output equal to ``reference``."""
    registers = accepted_registers(ir)
    assert abs(sum(np.vdot(r, r).real for r in registers) - probability) <= 1e-12
    reference = reference / np.linalg.norm(reference)
    for r in registers:
        assert abs(abs(np.vdot(reference, r)) ** 2 / np.vdot(r, r).real - 1.0) <= 1e-12


@pytest.mark.parametrize("policy, probability", [("strict", 1 / 4), ("feedforward", 1 / 2)])
def test_destructive_gate(rng, policy, probability):
    for control in (LogicalAmplitudes.zero(), LogicalAmplitudes.one()):
        target = random_qubit(rng)
        reference = control.a0 * target.as_array() + control.a1 * (Z @ target.as_array())
        check_claims(bound_program("destructive", control, target, policy, 2), reference, probability)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("policy, probability", [("strict", 1 / 4), ("feedforward", 1 / 2)])
def test_quantum_encoder(rng, n, policy, probability):
    qubit = random_qubit(rng)
    reference = np.zeros(2**n, dtype=complex)
    reference[0], reference[-1] = qubit.a0, qubit.a1
    check_claims(bound_program("encoder", qubit, None, policy, n), reference, probability)


@pytest.mark.parametrize("policy, probability", [("strict", 1 / 16), ("feedforward", 1 / 4)])
def test_nondestructive_gate(rng, policy, probability):
    control, target = random_qubit(rng), random_qubit(rng)
    reference = csign_reference() @ np.kron(control.as_array(), target.as_array())
    check_claims(bound_program("nondestructive", control, target, policy, 2), reference, probability)


@pytest.mark.parametrize(
    "name, reference, probability",
    [("fig1.loc", [S, -S], 1 / 4), ("fig2.loc", [0, 0, S, -S], 1 / 4)],
)
def test_shipped_circuits(name, reference, probability):
    # Both prepare control |1>_L and target (|0>_L + |1>_L)/sqrt2.
    ir = circuits.load(str(dualrail.data_path(name)))
    check_claims(ir, np.array(reference, dtype=complex), probability)
