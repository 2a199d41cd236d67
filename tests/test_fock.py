import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail.fock import FockState, equal_up_to_global_phase, layout
from dualrail.measure import outcome_distribution, project_detection
from dualrail.optics import apply_mode_unitary, hadamard_bs
from dualrail.rails import DualRailQubit, LogicalAmplitudes, decode_register, encode, pauli_correction

from conftest import random_fock_state
from reference_kernels import distance, tensor

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestConstruction:
    def test_single_ket(self):
        s = FockState(2, [((1, 0), 1.0)])
        assert s.terms == {(1, 0): 1.0 + 0j}
        assert s.norm_squared() == pytest.approx(1.0)

    def test_duplicate_kets_are_summed(self):
        s = FockState(2, [((0, 1), 0.25), ((0, 1), 0.5)])
        assert s.amplitude((0, 1)) == pytest.approx(0.75)

    def test_exact_cancellation_is_rejected(self):
        with pytest.raises(ValueError, match="vanished"):
            FockState(2, [((0, 1), SQRT_HALF), ((0, 1), -SQRT_HALF)])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            FockState(2, [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            FockState(3, [((1, 0), 1.0)])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FockState(2, [((1, -1), 1.0)])

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            FockState(1, [((1,), float("nan"))])

    def test_finite_amplitudes_summing_past_the_float_range_are_rejected(self):
        with pytest.raises(ValueError) as info:
            FockState(2, [((1, 0), 1e308), ((1, 0), 1e308)])
        assert str(info.value) == "non-finite amplitude (inf+0j) for ket (1, 0)"

    def test_entangled_register_state(self):
        # The maximally entangled 4-mode register used by the encoder.
        s = FockState(4, [((0, 1, 0, 1), SQRT_HALF), ((1, 0, 1, 0), -SQRT_HALF)])
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert s.amplitude((1, 0, 1, 0)) == pytest.approx(-SQRT_HALF)


class TestAlgebra:
    def test_tensor_of_basis_kets(self):
        left = FockState.ket((1, 0))
        right = FockState.ket((0, 1))
        assert tensor(left, right).terms == {(1, 0, 0, 1): 1.0 + 0j}

    def test_tensor_distributes(self):
        alpha, beta = 0.6, 0.8j
        q = FockState(2, {(0, 1): alpha, (1, 0): beta})
        out = tensor(q, FockState.ket((0, 1)))
        assert out.amplitude((0, 1, 0, 1)) == pytest.approx(alpha)
        assert out.amplitude((1, 0, 0, 1)) == pytest.approx(beta)

    def test_norm_squared(self):
        assert FockState.ket((1, 0)).norm_squared() == pytest.approx(1.0)
        assert FockState.ket((1, 0), 0.5).norm_squared() == pytest.approx(0.25)

    def test_total_photons(self):
        s = FockState(2, {(2, 0): 0.5, (0, 1): 0.5})
        assert s.total_photons() == {1, 2}


class TestGlobalPhase:
    def test_identity(self):
        s = FockState(2, {(0, 1): SQRT_HALF, (1, 0): SQRT_HALF})
        match = equal_up_to_global_phase(s, s, 1e-12)
        assert match.equal and match.phase == pytest.approx(1.0)

    def test_global_sign(self):
        s = FockState(2, {(0, 1): SQRT_HALF, (1, 0): SQRT_HALF})
        match = equal_up_to_global_phase(s, s.scaled(-1.0), 1e-12)
        assert match.equal and match.phase == pytest.approx(-1.0)

    def test_relative_sign_is_physical(self):
        a = FockState(2, {(0, 1): 0.6, (1, 0): 0.8})
        b = FockState(2, {(0, 1): 0.6, (1, 0): -0.8})
        assert not equal_up_to_global_phase(a, b, 1e-9).equal

    def test_disjoint_supports(self):
        a = FockState.ket((1, 0))
        b = FockState.ket((0, 1))
        assert not equal_up_to_global_phase(a, b, 1e-9).equal


def test_canonical_rendering():
    s = FockState(2, {(1, 0): -0.5j, (0, 1): 0.5})
    assert s.to_lines() == ["(0.5,0.0) |0,1>", "(0.0,-0.5) |1,0>"]


def test_rendering_is_lexicographic():
    s = FockState(3, {(0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 0, 0): SQRT_HALF})
    kets = [line.split("|")[1] for line in s.to_lines()]
    assert kets == ["0,0,1>", "0,1,0>", "1,0,0>"]


# Hypothesis strategies for small random states.


@st.composite
def fock_states(draw, modes=None):
    m = modes if modes is not None else draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        ket = tuple(draw(st.integers(0, 2)) for _ in range(m))
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False))
        terms[ket] = complex(re, im)
    norm = math.sqrt(sum(abs(v) ** 2 for v in terms.values()))
    if norm < 1e-3:
        terms[(0,) * m] = terms.get((0,) * m, 0j) + 1.0
        norm = math.sqrt(sum(abs(v) ** 2 for v in terms.values()))
    return FockState(m, {k: v / norm for k, v in terms.items()})


@given(a=fock_states(), b=fock_states(), c=fock_states())
@settings(max_examples=60)
def test_tensor_is_associative(a, b, c):
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert distance(left, right) < 1e-12


@given(a=fock_states(), b=fock_states())
@settings(max_examples=60)
def test_norm_is_multiplicative_under_tensor(a, b):
    assert tensor(a, b).norm_squared() == pytest.approx(
        a.norm_squared() * b.norm_squared(), abs=1e-12
    )


@given(s=fock_states(), angles=st.tuples(st.floats(0, 6.29), st.floats(0, 6.29)))
@settings(max_examples=60)
def test_phase_equality_is_an_equivalence(s, angles):
    """Reflexive, symmetric, transitive on states related by phase rotation."""
    t = s.scaled(complex(math.cos(angles[0]), math.sin(angles[0])))
    u = s.scaled(complex(math.cos(angles[1]), math.sin(angles[1])))
    assert equal_up_to_global_phase(s, s, 1e-9).equal
    assert equal_up_to_global_phase(s, t, 1e-9).equal
    assert equal_up_to_global_phase(t, s, 1e-9).equal
    assert equal_up_to_global_phase(t, u, 1e-9).equal


def test_roundtrip_is_lossless_above_prune_tolerance(rng):
    for _ in range(25):
        s = random_fock_state(rng, 4)
        rebuilt = FockState(s.mode_count, dict(s.items()))
        assert distance(s, rebuilt) == 0.0


TWO_MODES = FockState(2, {(1, 0): 1.0})


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_mode_unitary(TWO_MODES, [0, 5], hadamard_bs()),
        lambda: outcome_distribution(TWO_MODES, [5]),
        lambda: project_detection(TWO_MODES, [5], [0]),
        lambda: encode(LogicalAmplitudes.zero(), DualRailQubit(0, 5), 2),
        lambda: decode_register(TWO_MODES, [DualRailQubit(0, 5)]),
        lambda: pauli_correction(TWO_MODES, DualRailQubit(0, 5), "Z"),
    ],
    ids=["apply", "outcomes", "project", "encode", "decode", "pauli"],
)
def test_every_kernel_reports_a_mode_out_of_range_alike(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "mode 5 out of range for 2 modes"


@pytest.mark.parametrize(
    "call, listed",
    [
        (lambda: apply_mode_unitary(TWO_MODES, [1, 1], hadamard_bs()), "[1, 1]"),
        (lambda: outcome_distribution(TWO_MODES, [1, 1]), "[1, 1]"),
        (
            lambda: decode_register(TWO_MODES, [DualRailQubit(0, 1), DualRailQubit(1, 0)]),
            "[0, 1, 1, 0]",
        ),
    ],
    ids=["apply", "outcomes", "decode"],
)
def test_every_kernel_reports_a_repeated_mode_alike(call, listed):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"duplicate modes in {listed}"


def test_layout_modes_are_ints():
    assert layout(3, (np.int64(2), 0)).modes == (2, 0)
    assert all(type(m) is int for m in layout(3, (np.int64(2), 0)).modes)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FockState(2, [((1.9, 0), 1.0)]), "expected integer photon counts, got (1.9, 0)"),
        (lambda: FockState(2, [(("1", 0), 1.0)]), "expected integer photon counts, got ('1', 0)"),
        (lambda: FockState.ket((1.0, 0)), "expected integer photon counts, got (1.0, 0)"),
        (lambda: TWO_MODES.amplitude((0.9, 0)), "expected integer photon counts, got (0.9, 0)"),
        (
            lambda: project_detection(FockState.ket((1, 0)), [0], [1.5]),
            "expected integer photon counts, got [1.5]",
        ),
        (lambda: outcome_distribution(TWO_MODES, [0.9]), "expected integer modes, got [0.9]"),
        (
            lambda: apply_mode_unitary(TWO_MODES, [0.5, 1.7], hadamard_bs()),
            "expected integer modes, got [0.5, 1.7]",
        ),
    ],
    ids=["construct", "string", "ket", "amplitude", "project", "outcomes", "apply"],
)
def test_non_integral_counts_and_modes_are_rejected_not_truncated(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_an_integral_float_mode_is_rejected_even_once_its_int_is_cached():
    # 1.0 hashes like 1, so a memo looked up before the conversion would
    # take it for the cached entry of 1.
    for call, ints, floats in [
        (lambda modes: outcome_distribution(TWO_MODES, modes), [1], [1.0]),
        (lambda modes: project_detection(TWO_MODES, modes, [0]), [1], [1.0]),
        (lambda modes: apply_mode_unitary(TWO_MODES, modes, hadamard_bs()), [0, 1], [0.0, 1.0]),
    ]:
        call(ints)
        with pytest.raises(ValueError, match="expected integer modes"):
            call(floats)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FockState(2.0, [((1, 0), 1.0)]), "expected integer mode count, got 2.0"),
        (lambda: FockState.vacuum(2.0), "expected integer mode count, got 2.0"),
        (lambda: FockState("2", [((1, 0), 1.0)]), "expected integer mode count, got '2'"),
    ],
    ids=["construct", "vacuum", "string"],
)
def test_a_non_integral_mode_count_is_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


ZERO = LogicalAmplitudes.zero()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_mode_unitary(TWO_MODES, [1, 1], hadamard_bs()), "duplicate modes in [1, 1]"),
        (lambda: project_detection(TWO_MODES, [1, 1], [0, 0]), "duplicate modes in [1, 1]"),
        (lambda: outcome_distribution(TWO_MODES, [1, 1]), "duplicate modes in [1, 1]"),
        (
            lambda: decode_register(TWO_MODES, [DualRailQubit(0, 1), DualRailQubit(1, 0)]),
            "duplicate modes in [0, 1, 1, 0]",
        ),
        # A pair cannot repeat a mode, so the pair itself refuses it.
        (lambda: pauli_correction(TWO_MODES, DualRailQubit(1, 1), "X"), "rail1 and rail0 must be distinct modes"),
        (lambda: encode(ZERO, DualRailQubit(1, 1), 2), "rail1 and rail0 must be distinct modes"),
        (lambda: apply_mode_unitary(TWO_MODES, [0, 2], hadamard_bs()), "mode 2 out of range for 2 modes"),
        (lambda: project_detection(TWO_MODES, [2], [0]), "mode 2 out of range for 2 modes"),
        (lambda: outcome_distribution(TWO_MODES, [2]), "mode 2 out of range for 2 modes"),
        (lambda: decode_register(TWO_MODES, [DualRailQubit(2, 0)]), "mode 2 out of range for 2 modes"),
        (lambda: pauli_correction(TWO_MODES, DualRailQubit(2, 0), "X"), "mode 2 out of range for 2 modes"),
        (lambda: encode(ZERO, DualRailQubit(2, 0), 2), "mode 2 out of range for 2 modes"),
        (
            lambda: apply_mode_unitary(TWO_MODES, [0.5, 1], hadamard_bs()),
            "expected integer modes, got [0.5, 1]",
        ),
        (lambda: project_detection(TWO_MODES, [0.5], [0]), "expected integer modes, got [0.5]"),
        (lambda: outcome_distribution(TWO_MODES, [0.5]), "expected integer modes, got [0.5]"),
        (
            lambda: decode_register(TWO_MODES, [DualRailQubit(0.5, 1)]),
            "expected integer modes, got [0.5, 1]",
        ),
        (
            lambda: pauli_correction(TWO_MODES, DualRailQubit(0.5, 1), "X"),
            "expected integer modes, got (0.5, 1)",
        ),
        (lambda: encode(ZERO, DualRailQubit(0.5, 1), 2), "expected integer modes, got (0.5, 1)"),
    ],
    ids=[
        f"{fault}-{kernel}"
        for fault in ("duplicate", "out-of-range", "non-integral")
        for kernel in ("apply", "project", "outcomes", "decode", "pauli", "encode")
    ],
)
def test_every_kernel_raises_the_same_listing_error_on_a_repeated_call(call, message):
    # An invalid listing must not be stored by the layout memo, so a second
    # call raises what the first did.
    assert raised(call) == raised(call) == message


def test_an_integral_float_rail_is_rejected_even_once_its_int_is_cached():
    for call in [
        lambda pair: decode_register(TWO_MODES, [pair]),
        lambda pair: pauli_correction(TWO_MODES, pair, "X"),
        lambda pair: encode(ZERO, pair, 2),
    ]:
        call(DualRailQubit(0, 1))
        with pytest.raises(ValueError, match="expected integer modes"):
            call(DualRailQubit(0.0, 1.0))
