import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail import circuits, protocols
from dualrail.fock import FockState, equal_up_to_global_phase
from dualrail.optics import apply_mode_unitary, hadamard_bs
from dualrail.protocols import (
    MAX_ENCODER_COPIES,
    POLICIES,
    BellAmplitudes,
    SimulationInvariantError,
    csign_reference,
    run_destructive_csign,
    run_nondestructive_csign,
    run_quantum_encoder,
    teleport_gate_table,
)
from dualrail.measure import outcome_distribution
from dualrail.rails import DualRailQubit, LogicalAmplitudes, decode_register, encode, pauli_correction

from conftest import random_qubit
from test_circuits import branch_bits, gate_ir
from reference_kernels import project_onto_state, teleport_outcome_branches, tensor

S = 1.0 / math.sqrt(2.0)
Z = np.diag([1.0, -1.0]).astype(complex)


def build_pre_mixer_state(control: LogicalAmplitudes, target: LogicalAmplitudes) -> FockState:
    """Control and target through the first splitter only (modes 1',2',3,4)."""
    state = tensor(encode(control, DualRailQubit(0, 1), 2), encode(target, DualRailQubit(0, 1), 2))
    return apply_mode_unitary(state, [1, 0], hadamard_bs())


def single_rail_bell(kind: str) -> FockState:
    """Bell states of two vacuum/one-photon modes, |n_first n_second>."""
    s = 1.0 / math.sqrt(2.0)
    return {
        "psi+": FockState(2, {(1, 0): s, (0, 1): s}),
        "psi-": FockState(2, {(1, 0): s, (0, 1): -s}),
        "phi+": FockState(2, {(0, 0): s, (1, 1): s}),
        "phi-": FockState(2, {(0, 0): s, (1, 1): -s}),
    }[kind]


class TestCsignReference:
    def test_entries(self):
        u = csign_reference()
        assert u[3, 3] == -1.0
        assert np.allclose(np.diag(u), [1, 1, 1, -1])

    def test_unitary_hermitian_involution(self):
        u = csign_reference()
        assert np.allclose(u @ u.conj().T, np.eye(4))
        assert np.allclose(u, u.conj().T)
        assert np.allclose(u @ u, np.eye(4))


def test_whole_state_after_the_control_hadamard(rng):
    """Triplet control times arbitrary target, term for term on (1',2',3,4)."""
    target = random_qubit(rng)
    a, b = target.a0, target.a1
    state = build_pre_mixer_state(LogicalAmplitudes.one(), target)
    assert state.amplitude((0, 1, 0, 1)) == pytest.approx(S * a, abs=1e-12)
    assert state.amplitude((0, 1, 1, 0)) == pytest.approx(S * b, abs=1e-12)
    assert state.amplitude((1, 0, 0, 1)) == pytest.approx(S * a, abs=1e-12)
    assert state.amplitude((1, 0, 1, 0)) == pytest.approx(S * b, abs=1e-12)
    assert len(state.terms) == 4


class TestBellDecomposition:
    """The pre-mixer state splits over Bell components of the mixed modes."""

    def test_triplet_control_branches(self, rng):
        target = random_qubit(rng)
        a, b = target.a0, target.a1
        state = build_pre_mixer_state(LogicalAmplitudes.one(), target)
        want = {
            "psi+": FockState(2, {(0, 1): a, (1, 0): b}).normalized(),
            "psi-": FockState(2, {(0, 1): a, (1, 0): -b}).normalized(),
            "phi+": FockState(2, {(1, 1): a, (0, 0): b}).normalized(),
            "phi-": FockState(2, {(1, 1): a, (0, 0): -b}).normalized(),
        }
        for kind, expected in want.items():
            prob, residual = project_onto_state(state, [1, 2], single_rail_bell(kind))
            assert prob == pytest.approx(0.25, abs=1e-12)
            assert equal_up_to_global_phase(residual, expected, 1e-10).equal

    def test_singlet_control_flips_the_pairing(self, rng):
        target = random_qubit(rng)
        a, b = target.a0, target.a1
        state = build_pre_mixer_state(LogicalAmplitudes.zero(), target)
        prob, residual = project_onto_state(state, [1, 2], single_rail_bell("psi-"))
        assert prob == pytest.approx(0.25, abs=1e-12)
        expected = FockState(2, {(0, 1): a, (1, 0): b}).normalized()
        assert equal_up_to_global_phase(residual, expected, 1e-10).equal


def test_singlet_lands_on_the_second_mixer_slot():
    """Pins the detector port assignment: psi- exits on the D1 side."""
    out = apply_mode_unitary(single_rail_bell("psi-"), [0, 1], hadamard_bs())
    assert set(out.terms) == {(0, 1)}
    out = apply_mode_unitary(single_rail_bell("psi+"), [0, 1], hadamard_bs())
    assert set(out.terms) == {(1, 0)}


def test_bell_mixer_photon_statistics():
    """phi+- produce only zero- or two-photon events after the mixer."""
    for kind in ("phi+", "phi-"):
        out = apply_mode_unitary(single_rail_bell(kind), [0, 1], hadamard_bs())
        assert all(sum(ket) in (0, 2) for ket in out.terms)


class TestDestructiveGate:
    def test_control_one_strict(self, rng):
        target = random_qubit(rng)
        run = run_destructive_csign(LogicalAmplitudes.one(), target, "strict")
        assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)
        expected = np.array([target.a0, -target.a1])
        assert abs(np.vdot(expected, run.output_logical)) == pytest.approx(1.0, abs=1e-12)

    def test_control_zero_strict(self, rng):
        target = random_qubit(rng)
        run = run_destructive_csign(LogicalAmplitudes.zero(), target, "strict")
        assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)
        assert abs(np.vdot(target.as_array(), run.output_logical)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_feedforward_doubles_acceptance(self, rng):
        for control in (LogicalAmplitudes.zero(), LogicalAmplitudes.one()):
            target = random_qubit(rng)
            strict = run_destructive_csign(control, target, "strict")
            ff = run_destructive_csign(control, target, "feedforward")
            assert ff.accepted_probability == pytest.approx(0.5, abs=1e-12)
            assert abs(np.vdot(strict.output_logical, ff.output_logical)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_accepted_branch_is_the_d1_click(self, rng):
        run = run_destructive_csign(LogicalAmplitudes.one(), random_qubit(rng), "strict")
        accepted = [b for b in run.branches if b.accepted]
        assert len(accepted) == 1
        assert accepted[0].counts == {"D1": 1, "D2": 0}

    def test_z_correction_restores_the_strict_output(self, rng):
        """Brute force over branches: the D2 click needs exactly a Z."""
        target = random_qubit(rng)
        run = run_destructive_csign(LogicalAmplitudes.one(), target, "strict")
        d2_branch = [b for b in run.branches if b.counts == {"D1": 0, "D2": 1}][0]
        strict_branch = [b for b in run.branches if b.accepted][0]
        corrected = decode_register(d2_branch.residual, [DualRailQubit(0, 1)])
        assert abs(np.vdot(Z @ corrected, decode_register(strict_branch.residual, [DualRailQubit(0, 1)]))) == pytest.approx(1.0, abs=1e-12)

    def test_branch_probabilities_are_input_independent(self, rng):
        """Single-click patterns carry 1/4 each for any target and basis control."""
        allowed = {(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)}
        for control in (LogicalAmplitudes.zero(), LogicalAmplitudes.one()):
            for _ in range(10):
                run = run_destructive_csign(control, random_qubit(rng), "strict")
                table = {(b.counts["D1"], b.counts["D2"]): b.probability for b in run.branches}
                assert set(table) <= allowed
                assert table[(0, 1)] == pytest.approx(0.25, abs=1e-12)
                assert table[(1, 0)] == pytest.approx(0.25, abs=1e-12)
                rest = sum(p for pat, p in table.items() if pat not in ((0, 1), (1, 0)))
                assert rest == pytest.approx(0.5, abs=1e-12)

    def test_branches_cover_everything(self, rng):
        run = run_destructive_csign(LogicalAmplitudes.one(), random_qubit(rng), "strict")
        assert sum(b.probability for b in run.branches) == pytest.approx(1.0, abs=1e-12)

    def test_superposition_control_reference(self, rng):
        """The accepted output follows (a0 I + a1 Z) target for any control."""
        control, target = random_qubit(rng), random_qubit(rng)
        run = run_destructive_csign(control, target, "strict")
        expected = control.a0 * target.as_array() + control.a1 * (Z @ target.as_array())
        norm = np.linalg.norm(expected)
        assert run.accepted_probability == pytest.approx(norm**2 / 4.0, abs=1e-12)
        if norm > 1e-9:
            assert abs(np.vdot(expected / norm, run.output_logical)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(ValueError, match="policy"):
            run_destructive_csign(LogicalAmplitudes.one(), random_qubit(rng), "maybe")


class TestQuantumEncoder:
    def test_two_copies_strict(self, rng):
        qubit = random_qubit(rng)
        run = run_quantum_encoder(qubit, 2, "strict")
        assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)
        expected = np.array([qubit.a0, 0, 0, qubit.a1])
        assert abs(np.vdot(expected, run.output_logical)) == pytest.approx(1.0, abs=1e-12)

    def test_accepted_residual_kets(self):
        """The heralded branch carries a1|0101> + a2|1010> on (a1,a2,b1,2)."""
        qubit = LogicalAmplitudes(0.6, 0.8)
        run = run_quantum_encoder(qubit, 2, "strict")
        branch = [b for b in run.branches if b.accepted][0]
        expected = FockState(4, {(0, 1, 0, 1): 0.6, (1, 0, 1, 0): 0.8})
        assert equal_up_to_global_phase(branch.residual, expected, 1e-10).equal

    def test_feedforward(self, rng):
        run = run_quantum_encoder(random_qubit(rng), 2, "feedforward")
        assert run.accepted_probability == pytest.approx(0.5, abs=1e-12)
        assert run.fidelity_vs_reference == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_longer_strings(self, rng, n):
        qubit = random_qubit(rng)
        run = run_quantum_encoder(qubit, n, "strict")
        assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)
        expected = np.zeros(2**n, dtype=complex)
        expected[0], expected[-1] = qubit.a0, qubit.a1
        assert abs(np.vdot(expected, run.output_logical)) == pytest.approx(1.0, abs=1e-12)

    def test_detector_names(self, rng):
        run = run_quantum_encoder(random_qubit(rng), 2, "strict")
        assert tuple(run.branches[0].counts) == ("Da1", "Da2")
        accepted = [b for b in run.branches if b.accepted]
        assert accepted[0].counts == {"Da1": 1, "Da2": 0}

    def test_too_few_copies_rejected(self, rng):
        with pytest.raises(ValueError, match="at least two"):
            run_quantum_encoder(random_qubit(rng), 1, "strict")

    def test_too_many_copies_rejected_before_allocating(self, rng):
        # Only the validation path: a valid n this large would need dense
        # 2^n vectors.
        with pytest.raises(ValueError, match="at most 20"):
            run_quantum_encoder(random_qubit(rng), MAX_ENCODER_COPIES + 1, "strict")

    @pytest.mark.parametrize("n_copies", [2.0, "3"])
    def test_non_integral_copy_count_rejected(self, rng, n_copies):
        with pytest.raises(ValueError, match=f"^expected integer copy count, got {n_copies!r}$"):
            run_quantum_encoder(random_qubit(rng), n_copies, "strict")

    def test_numpy_integer_copy_count_runs(self):
        run = run_quantum_encoder(LogicalAmplitudes.one(), np.int64(3), "strict")
        assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)


class TestNondestructiveGate:
    def test_basis_sign_pattern(self):
        """Only |11> picks up a minus sign."""
        basis = (LogicalAmplitudes.zero(), LogicalAmplitudes.one())
        for i, control in enumerate(basis):
            for j, target in enumerate(basis):
                run = run_nondestructive_csign(control, target, "feedforward")
                expected = np.zeros(4, dtype=complex)
                expected[2 * i + j] = -1.0 if (i, j) == (1, 1) else 1.0
                assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)
                got = run.output_logical
                assert abs(np.vdot(expected, got)) == pytest.approx(1.0, abs=1e-12)
                # Reference-aligned output shows the sign pattern directly.
                assert np.allclose(got, expected, atol=1e-10)

    def test_matches_reference_unitary_on_random_inputs(self, rng):
        for _ in range(10):
            control, target = random_qubit(rng), random_qubit(rng)
            run = run_nondestructive_csign(control, target, "feedforward")
            reference = csign_reference() @ np.kron(control.as_array(), target.as_array())
            assert run.accepted_probability == pytest.approx(0.25, abs=1e-12)
            assert abs(np.vdot(reference, run.output_logical)) ** 2 >= 1.0 - 1e-12

    def test_strict_probability_is_the_branch_product(self, rng):
        run = run_nondestructive_csign(random_qubit(rng), random_qubit(rng), "strict")
        assert run.accepted_probability == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert run.fidelity_vs_reference >= 1.0 - 1e-12

    def test_total_probability_is_one(self, rng):
        run = run_nondestructive_csign(random_qubit(rng), random_qubit(rng), "feedforward")
        assert sum(b.probability for b in run.branches) == pytest.approx(1.0, abs=1e-12)

    def test_four_accepted_branches_under_feedforward(self, rng):
        run = run_nondestructive_csign(random_qubit(rng), random_qubit(rng), "feedforward")
        accepted = [b for b in run.branches if b.accepted]
        assert len(accepted) == 4
        for branch in accepted:
            assert branch.probability == pytest.approx(1.0 / 16.0, abs=1e-12)
            singles = {k: v for k, v in branch.counts.items()}
            assert singles["Da1"] + singles["Da2"] == 1
            assert singles["D1"] + singles["D2"] == 1

    def test_no_leakage_in_accepted_branches(self, rng):
        """100 random pairs decode cleanly on both output pairs."""
        for _ in range(100):
            run = run_nondestructive_csign(random_qubit(rng), random_qubit(rng), "feedforward")
            for branch in run.branches:
                if branch.accepted:
                    amps = decode_register(
                        branch.residual, [DualRailQubit(0, 1), DualRailQubit(2, 3)]
                    )
                    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-9)


class TestTableVersusPhotons:
    """The abstract teleport table predicts the photonic gate's branches.

    After the control Hadamard, the arms (2', 1') hold psi+ (control |1>_L)
    or psi- (control |0>_L); the Bell measurement on (2', 3) then induces on
    the surviving rail exactly the operator the table assigns. Outcomes map
    to detectors as psi- -> D1 click, psi+ -> D2 click, phi+- -> 0/2-photon
    events.
    """

    @pytest.mark.parametrize(
        "control, ancilla",
        [
            (LogicalAmplitudes.one(), BellAmplitudes(1.0, 0.0, 0.0, 0.0)),
            (LogicalAmplitudes.zero(), BellAmplitudes(0.0, 1.0, 0.0, 0.0)),
        ],
    )
    def test_single_click_branches(self, rng, control, ancilla):
        target = random_qubit(rng)
        run = run_destructive_csign(control, target, "strict")
        photonic = {(b.counts["D1"], b.counts["D2"]): b for b in run.branches}
        abstract = teleport_outcome_branches(ancilla, target)
        for outcome, pattern in (("psi-", (1, 0)), ("psi+", (0, 1))):
            p, vec = abstract[outcome]
            branch = photonic[pattern]
            assert branch.probability == pytest.approx(p, abs=1e-12)
            decoded = decode_register(branch.residual, [DualRailQubit(0, 1)])
            assert abs(np.vdot(vec, decoded)) == pytest.approx(1.0, abs=1e-12)

    def test_remainder_matches_the_phi_outcomes(self, rng):
        target = random_qubit(rng)
        run = run_destructive_csign(LogicalAmplitudes.one(), target, "strict")
        abstract = teleport_outcome_branches(BellAmplitudes(1.0, 0.0, 0.0, 0.0), target)
        zeros_and_twos = sum(
            b.probability for b in run.branches if (b.counts["D1"] + b.counts["D2"]) != 1
        )
        phi_weight = abstract["phi+"][0] + abstract["phi-"][0]
        assert zeros_and_twos == pytest.approx(phi_weight, abs=1e-12)


def test_policies_constant():
    assert POLICIES == ("strict", "feedforward")


def test_invariant_error_is_a_runtime_error():
    assert issubclass(SimulationInvariantError, RuntimeError)


HUGE = LogicalAmplitudes(1e200, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_destructive_csign(HUGE, LogicalAmplitudes.zero()),
        lambda: run_nondestructive_csign(LogicalAmplitudes.zero(), HUGE),
        lambda: run_quantum_encoder(HUGE, 2),
        lambda: encode(HUGE, DualRailQubit(0, 1), 2),
        lambda: teleport_gate_table(BellAmplitudes(1e200, 0, 0, 0), LogicalAmplitudes.zero()),
        lambda: teleport_gate_table(BellAmplitudes(1.0, 0, 0, 0), HUGE),
    ],
    ids=["destructive", "nondestructive", "encoder", "encode", "table-ancilla", "table-qubit"],
)
def test_overflowing_amplitudes_are_rejected_without_a_warning(call):
    # Squaring 1e200 overflows: abs(a) ** 2 raises OverflowError, numpy warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="normalized"):
            call()


BIG_STATE = FockState(1, {(1,): 1e200})
LEAKING = FockState(3, {(0, 1, 0): 1.0, (1, 1, 0): 1e200})
# Finite, but abs() of it overflows once a splitter mixes two of them.
NEAR_MAX = 1.7e308 * cmath.exp(0.25j * cmath.pi)


@pytest.mark.parametrize(
    "call, message",
    [
        (BIG_STATE.norm_squared, "squared norm of the state overflows a float"),
        (BIG_STATE.normalized, "squared norm of the state overflows a float"),
        (
            lambda: equal_up_to_global_phase(BIG_STATE, BIG_STATE),
            "squared norm of the state overflows a float",
        ),
        (
            lambda: outcome_distribution(FockState(2, {(1, 0): 1e200, (0, 1): 1.0}), [0]),
            "branch probability overflows a float",
        ),
        (HUGE.normalized, "squared norm of the logical amplitudes overflows a float"),
        (
            lambda: decode_register(LEAKING, [DualRailQubit(0, 1)]),
            "state leaks outside the dual-rail subspace (leakage weight inf)",
        ),
        (
            lambda: pauli_correction(LEAKING, DualRailQubit(0, 1), "X"),
            "Pauli correction outside the dual-rail subspace (leakage weight inf)",
        ),
        (
            lambda: FockState(1, {(1,): complex(1.5e308, 1.5e308)}),
            "amplitude modulus overflows a float",
        ),
        (
            lambda: apply_mode_unitary(
                FockState(2, {(1, 0): NEAR_MAX, (0, 1): NEAR_MAX}), [0, 1], hadamard_bs()
            ),
            "amplitude modulus overflows a float",
        ),
    ],
    ids=[
        "norm_squared", "normalized", "phase", "outcomes", "logical", "decode", "pauli",
        "construct", "splitter",
    ],
)
def test_squares_that_overflow_raise_a_one_line_value_error(call, message):
    # The amplitudes are finite, but abs(a) ** 2, or abs(a), raises OverflowError on them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_destructive_csign(LogicalAmplitudes("1", "0"), LogicalAmplitudes(1, 0)),
        lambda: run_destructive_csign(LogicalAmplitudes(1, 0), LogicalAmplitudes("0", "1")),
        lambda: run_quantum_encoder(LogicalAmplitudes("1", "0"), 3),
        lambda: run_nondestructive_csign(LogicalAmplitudes(1, 0), LogicalAmplitudes(0, "1")),
    ],
    ids=["destructive-control", "destructive-target", "encoder", "nondestructive-target"],
)
def test_a_string_amplitude_is_one_value_error_at_entry(call):
    # Unchecked, numpy's UFuncTypeError, a CircuitError and a bare TypeError.
    with pytest.raises(ValueError, match=r"^expected a number as logical amplitude, got '[01]'$") as info:
        call()
    assert type(info.value) is ValueError


# --------------------------------------------------------------------------
# Gate programs: checked once per shape, bound per call
# --------------------------------------------------------------------------

GATES = {
    "destructive": lambda control, target, policy, n: run_destructive_csign(control, target, policy),
    "encoder": lambda control, target, policy, n: run_quantum_encoder(control, n, policy),
    "nondestructive": lambda control, target, policy, n: run_nondestructive_csign(control, target, policy),
}


@st.composite
def qubits(draw):
    """Random unit qubits as Python complex, numpy complex128 or real numpy float64
    amplitudes, and the basis states as ints."""
    form = draw(st.sampled_from(["complex", "numpy-complex", "numpy-real", "basis"]))
    if form == "basis":
        return draw(st.sampled_from([LogicalAmplitudes(1, 0), LogicalAmplitudes(0, 1)]))
    theta = draw(st.floats(0.0, math.pi))
    phi = 0.0 if form == "numpy-real" else draw(st.floats(0.0, 2 * math.pi))
    q = LogicalAmplitudes.from_bloch(theta, phi)
    if form == "numpy-real":
        return LogicalAmplitudes(np.float64(q.a0), np.float64(q.a1.real))
    if form == "numpy-complex":
        return LogicalAmplitudes(np.complex128(q.a0), np.complex128(q.a1))
    return q


@given(
    gate=st.sampled_from(sorted(GATES)),
    policy=st.sampled_from(POLICIES),
    n=st.integers(2, 6),
    control=qubits(),
    target=qubits(),
)
@settings(max_examples=150, deadline=None)
def test_bound_programs_pass_the_rule_pass_and_run_as_run_branches(gate, policy, n, control, target):
    ir = gate_ir(lambda: GATES[gate](control, target, policy, n))
    result = GATES[gate](control, target, policy, n)
    circuits._validate(ir)
    expected = circuits.run_branches(ir)
    if gate == "nondestructive":
        for b in expected.branches:
            b.corrections = tuple(protocols._STAGE1_CORRECTION.get(c, c) for c in b.corrections)
    assert branch_bits(result) == branch_bits(expected)


def test_the_policy_is_part_of_the_program_key():
    target = LogicalAmplitudes(0.6, 0.8)
    accepted = [
        run_destructive_csign(LogicalAmplitudes.one(), target, policy).accepted_probability
        for policy in ("strict", "feedforward", "strict")
    ]
    assert accepted == pytest.approx([1 / 4, 1 / 2, 1 / 4], abs=1e-12)


def test_the_memo_stores_only_valid_keys_and_frozen_programs():
    q = LogicalAmplitudes.zero()
    for policy in POLICIES:
        run_destructive_csign(q, q, policy)
        run_nondestructive_csign(q, q, policy)
        for n in range(2, MAX_ENCODER_COPIES + 1):
            run_quantum_encoder(q, n, policy)
    programs = dict(protocols._PROGRAMS)
    assert len(programs) == 42
    assert all(type(ir) is circuits.CircuitIR for ir in programs.values())
    for call in (
        lambda: run_destructive_csign(q, q, "lenient"),
        lambda: run_nondestructive_csign(q, q, "lenient"),
        lambda: run_quantum_encoder(q, 1),
        lambda: run_quantum_encoder(q, MAX_ENCODER_COPIES + 1),
        lambda: run_quantum_encoder(q, 2.0),
        lambda: run_quantum_encoder(q, 2, "lenient"),
    ):
        with pytest.raises(ValueError):
            call()
    assert protocols._PROGRAMS == programs


def test_a_program_is_checked_on_its_first_call_only():
    protocols._PROGRAMS.clear()
    q = LogicalAmplitudes(0.6, 0.8)
    with mock.patch.object(protocols, "_validate", wraps=circuits._validate) as validate:
        for _ in range(3):
            run_destructive_csign(q, q, "strict")
            run_quantum_encoder(q, 3, "strict")
    assert validate.call_count == 2
