"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import dualrail
from dualrail import circuits, measure
from dualrail.fock import FockState, equal_up_to_global_phase
from dualrail.optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from dualrail.protocols import (
    BellAmplitudes,
    run_destructive_csign,
    run_nondestructive_csign,
    run_quantum_encoder,
    csign_reference,
    teleport_gate_table,
    verify_a_matrix,
)
from dualrail.rails import DualRailQubit, LogicalAmplitudes, decode_register

from conftest import random_fock_state, random_qubit, random_unitary
from reference_kernels import teleport_outcome_branches
from test_circuits import random_program

S = 1.0 / math.sqrt(2.0)
Z = np.diag([1.0, -1.0]).astype(complex)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number} PASS - {description}")


def test_criterion_1_destructive_strict():
    rng = np.random.default_rng(101)
    with criterion(1, "destructive gate, strict policy: p=1/4 and conditional sign flip"):
        for _ in range(100):
            flip = bool(rng.integers(2))
            control = LogicalAmplitudes.one() if flip else LogicalAmplitudes.zero()
            target = random_qubit(rng)
            run = run_destructive_csign(control, target, "strict")
            assert abs(run.accepted_probability - 0.25) <= 1e-12
            expected = np.array([target.a0, -target.a1 if flip else target.a1])
            fidelity = abs(np.vdot(expected, run.output_logical)) ** 2
            assert fidelity >= 1.0 - 1e-12


def test_criterion_2_destructive_feedforward():
    rng = np.random.default_rng(102)
    with criterion(2, "destructive gate, feed-forward: p=1/2, same output after Z"):
        for _ in range(100):
            control = LogicalAmplitudes.one() if rng.integers(2) else LogicalAmplitudes.zero()
            target = random_qubit(rng)
            strict = run_destructive_csign(control, target, "strict")
            ff = run_destructive_csign(control, target, "feedforward")
            assert abs(ff.accepted_probability - 0.5) <= 1e-12
            for branch in ff.branches:
                if not branch.accepted:
                    continue
                decoded = decode_register(branch.residual, [DualRailQubit(0, 1)])
                overlap = abs(np.vdot(strict.output_logical, decoded)) ** 2
                assert overlap >= 1.0 - 1e-12


def test_criterion_3_detector_pattern_mapping():
    rng = np.random.default_rng(103)
    with criterion(3, "herald is the single D1 click; 0/2-photon patterns carry 1/2"):
        for _ in range(50):
            control = LogicalAmplitudes.one() if rng.integers(2) else LogicalAmplitudes.zero()
            run = run_destructive_csign(control, random_qubit(rng), "strict")
            accepted = [b for b in run.branches if b.accepted]
            assert len(accepted) == 1
            assert accepted[0].counts == {"D1": 1, "D2": 0}
            remainder = sum(
                b.probability
                for b in run.branches
                if b.counts["D1"] + b.counts["D2"] in (0, 2)
            )
            assert abs(remainder - 0.5) <= 1e-12


def test_criterion_4_quantum_encoder():
    rng = np.random.default_rng(104)
    with criterion(4, "encoder: strict 1/4 with basis copying, feed-forward 1/2, n up to 4"):
        for _ in range(20):
            qubit = random_qubit(rng)
            run = run_quantum_encoder(qubit, 2, "strict")
            assert abs(run.accepted_probability - 0.25) <= 1e-12
            expected = np.array([qubit.a0, 0, 0, qubit.a1])
            assert abs(np.vdot(expected, run.output_logical)) ** 2 >= 1.0 - 1e-12
            ff = run_quantum_encoder(qubit, 2, "feedforward")
            assert abs(ff.accepted_probability - 0.5) <= 1e-12
        for n in (3, 4):
            qubit = random_qubit(rng)
            run = run_quantum_encoder(qubit, n, "strict")
            assert abs(run.accepted_probability - 0.25) <= 1e-12
            expected = np.zeros(2**n, dtype=complex)
            expected[0], expected[-1] = qubit.a0, qubit.a1
            assert abs(np.vdot(expected, run.output_logical)) ** 2 >= 1.0 - 1e-12


def test_criterion_5_nondestructive_gate():
    rng = np.random.default_rng(105)
    with criterion(5, "nondestructive gate: p=1/4, unit fidelity, (+,+,+,-) signs"):
        for _ in range(100):
            control, target = random_qubit(rng), random_qubit(rng)
            run = run_nondestructive_csign(control, target, "feedforward")
            assert abs(run.accepted_probability - 0.25) <= 1e-12
            reference = csign_reference() @ np.kron(control.as_array(), target.as_array())
            assert abs(np.vdot(reference, run.output_logical)) ** 2 >= 1.0 - 1e-12
        basis = (LogicalAmplitudes.zero(), LogicalAmplitudes.one())
        signs = []
        for i, control in enumerate(basis):
            for j, target in enumerate(basis):
                run = run_nondestructive_csign(control, target, "feedforward")
                value = run.output_logical[2 * i + j]
                assert abs(abs(value) - 1.0) <= 1e-12
                signs.append(round(value.real))
        assert signs == [1, 1, 1, -1]


def test_criterion_6_teleportation_table():
    rng = np.random.default_rng(106)
    with criterion(6, "psi+ teleportation reconstructs on all outcomes; table compared"):
        u = BellAmplitudes(1.0, 0.0, 0.0, 0.0)
        for _ in range(25):
            qubit = random_qubit(rng)
            rows = {r.outcome: r for r in teleport_gate_table(u, qubit)}
            branches = teleport_outcome_branches(u, qubit)
            assert len(branches) == 4
            for outcome, (p, vec) in branches.items():
                assert abs(p - 0.25) <= 1e-12
                undone = rows[outcome].operator.conj().T @ vec
                assert abs(np.vdot(qubit.as_array(), undone)) ** 2 >= 1.0 - 1e-12
        report = verify_a_matrix()
        assert len(report.entries) == 16
        itemized = {(e.outcome, e.component) for e in report.mismatches}
        assert len(itemized) == len(report.mismatches)
        text = "\n".join(report.lines())
        for entry in report.mismatches:
            assert f"{entry.outcome:8} {entry.component:9}" in text


def test_criterion_7_physics_invariants():
    rng = np.random.default_rng(107)
    with criterion(7, "norm/photon conservation, complete distributions, HOM"):
        for _ in range(100):
            state = random_fock_state(rng, 6, max_total=3)
            modes = [int(m) for m in rng.choice(6, size=2, replace=False)]
            u = ModeUnitary(random_unitary(rng, 2))
            out = apply_mode_unitary(state, modes, u)
            assert abs(out.norm_squared() - state.norm_squared()) <= 1e-12
            assert out.total_photons() <= state.total_photons()
            detectors = [int(m) for m in rng.choice(6, size=2, replace=False)]
            total = sum(b.probability for b in measure.outcome_distribution(out, detectors))
            assert abs(total - 1.0) <= 1e-12
        hom = apply_mode_unitary(FockState.ket((1, 1)), [0, 1], hadamard_bs())
        assert abs(hom.amplitude((1, 1))) <= 1e-14


def test_criterion_8_parser_and_shipped_circuits():
    rng = np.random.default_rng(108)
    with criterion(8, "parse/format round-trip corpus; fig1/fig2 match the protocols"):
        for _ in range(200):
            ir = random_program(rng)
            assert circuits.parse(circuits.format(ir)) == ir

        fig1 = circuits.execute(circuits.parse(dualrail.data_path("fig1.loc").read_text()))
        gate1 = run_destructive_csign(LogicalAmplitudes.one(), LogicalAmplitudes(S, S), "strict")
        accepted1 = [b for b in gate1.branches if b.accepted]
        assert len(fig1.branches) == len(accepted1) == 1
        assert fig1.branches[0].counts == accepted1[0].counts
        assert abs(fig1.branches[0].probability - accepted1[0].probability) <= 1e-12
        assert equal_up_to_global_phase(
            fig1.branches[0].residual, accepted1[0].residual, 1e-10
        ).equal

        fig2 = circuits.execute(circuits.parse(dualrail.data_path("fig2.loc").read_text()))
        gate2 = run_nondestructive_csign(
            LogicalAmplitudes.one(), LogicalAmplitudes(S, S), "feedforward"
        )
        accepted2 = {
            tuple(sorted(b.counts.items())): b for b in gate2.branches if b.accepted
        }
        assert len(fig2.branches) == len(accepted2) == 4
        for branch in fig2.branches:
            want = accepted2[tuple(sorted(branch.counts.items()))]
            assert abs(branch.probability - want.probability) <= 1e-12
            assert equal_up_to_global_phase(branch.residual, want.residual, 1e-10).equal
