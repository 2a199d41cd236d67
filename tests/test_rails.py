import itertools
import math

import numpy as np
import pytest

from dualrail.fock import FockState
from dualrail.rails import (
    BELL_KINDS,
    DualRailQubit,
    LeakageError,
    LogicalAmplitudes,
    bell_state,
    decode,
    decode_register,
    encode,
    is_normalized,
    pauli_correction,
)

from conftest import random_qubit

SQRT_HALF = 1.0 / math.sqrt(2.0)
PAIR = DualRailQubit(0, 1)
# Leaking kets of weight 5e-12 in all, below LEAK_TOL, so a Pauli correction goes through.
TOLERATED_LEAK = FockState(3, {(1, 0, 0): 0.6, (0, 1, 0): 0.8, (2, 0, 0): 1e-6, (1, 1, 0): 2e-6j})


class TestEncodeDecode:
    def test_logical_zero_is_photon_in_second_rail(self):
        s = encode(LogicalAmplitudes.zero(), PAIR, 2)
        assert s.terms == {(0, 1): 1.0 + 0j}

    def test_a_pair_listed_against_mode_order(self):
        s = encode(LogicalAmplitudes(0.6, 0.8), DualRailQubit(2, 0), 3)
        assert list(s.terms.items()) == [((1, 0, 0), 0.6 + 0j), ((0, 0, 1), 0.8 + 0j)]

    def test_logical_one_is_photon_in_first_rail(self):
        s = encode(LogicalAmplitudes.one(), PAIR, 2)
        assert s.terms == {(1, 0): 1.0 + 0j}

    def test_superposition(self):
        s = encode(LogicalAmplitudes(SQRT_HALF, SQRT_HALF), PAIR, 2)
        assert s.amplitude((0, 1)) == pytest.approx(SQRT_HALF)
        assert s.amplitude((1, 0)) == pytest.approx(SQRT_HALF)

    def test_encode_is_an_isometry(self, rng):
        for _ in range(20):
            q = random_qubit(rng)
            assert encode(q, PAIR, 4).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip(self, rng):
        for _ in range(20):
            q = random_qubit(rng)
            got = decode(encode(q, DualRailQubit(2, 0), 3), DualRailQubit(2, 0))
            assert got.a0 == pytest.approx(q.a0, abs=1e-12)
            assert got.a1 == pytest.approx(q.a1, abs=1e-12)

    def test_two_photon_term_is_leakage(self):
        with pytest.raises(LeakageError):
            decode(FockState.ket((1, 1)), PAIR)

    def test_photon_outside_register_is_leakage(self):
        s = FockState(3, {(0, 1, 1): 1.0})
        with pytest.raises(LeakageError):
            decode_register(s, [PAIR])

    def test_leakage_weight_is_reported(self):
        s = FockState(2, {(0, 1): SQRT_HALF, (2, 0): SQRT_HALF})
        with pytest.raises(LeakageError) as err:
            decode(s, PAIR)
        assert err.value.leakage == pytest.approx(0.5, abs=1e-12)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            encode(LogicalAmplitudes(1.0, 1.0), PAIR, 2)

    def test_non_integral_mode_count_rejected(self):
        with pytest.raises(ValueError, match=r"^expected integer mode count, got 2\.0$"):
            encode(LogicalAmplitudes.zero(), PAIR, 2.0)

    def test_out_of_range_placement(self):
        with pytest.raises(ValueError, match="out of range"):
            encode(LogicalAmplitudes.zero(), DualRailQubit(0, 5), 2)

    def test_register_bit_order(self):
        # First listed pair is the most significant bit.
        state = FockState(4, {(1, 0, 0, 1): 1.0})
        amps = decode_register(state, [DualRailQubit(0, 1), DualRailQubit(2, 3)])
        assert np.allclose(amps, [0, 0, 1, 0])


class TestBellStates:
    def test_psi_plus_kets(self):
        s = bell_state("psi+", DualRailQubit(0, 1), DualRailQubit(2, 3), 4)
        assert s.amplitude((1, 0, 0, 1)) == pytest.approx(SQRT_HALF)
        assert s.amplitude((0, 1, 1, 0)) == pytest.approx(SQRT_HALF)

    def test_phi_minus_kets(self):
        s = bell_state("phi-", DualRailQubit(0, 1), DualRailQubit(2, 3), 4)
        assert s.amplitude((0, 1, 0, 1)) == pytest.approx(SQRT_HALF)
        assert s.amplitude((1, 0, 1, 0)) == pytest.approx(-SQRT_HALF)

    def test_orthonormal_family(self):
        pair_a, pair_b = DualRailQubit(0, 1), DualRailQubit(2, 3)
        states = [bell_state(kind, pair_a, pair_b, 4) for kind in BELL_KINDS]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                overlap = sum(
                    amp.conjugate() * b.terms.get(ket, 0j) for ket, amp in a.terms.items()
                )
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_mode_collision_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            bell_state("phi+", DualRailQubit(0, 1), DualRailQubit(1, 2), 4)

    @pytest.mark.parametrize("pair_a, mode", [(DualRailQubit(-1, 0), -1), (DualRailQubit(9, 0), 9)])
    def test_out_of_range_mode_rejected(self, pair_a, mode):
        with pytest.raises(ValueError, match=f"^mode {mode} out of range for 4 modes$"):
            bell_state("phi+", pair_a, DualRailQubit(1, 2), 4)

    def test_non_integral_mode_count_rejected(self):
        with pytest.raises(ValueError, match=r"^expected integer mode count, got 4\.0$"):
            bell_state("phi+", DualRailQubit(0, 1), DualRailQubit(2, 3), 4.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("omega", DualRailQubit(0, 1), DualRailQubit(2, 3), 4)


class TestPauli:
    def test_z_flips_the_one_component(self, rng):
        q = random_qubit(rng)
        out = decode(pauli_correction(encode(q, PAIR, 2), PAIR, "Z"), PAIR)
        assert out.a0 == pytest.approx(q.a0, abs=1e-12)
        assert out.a1 == pytest.approx(-q.a1, abs=1e-12)

    def test_x_swaps_rails(self):
        out = pauli_correction(encode(LogicalAmplitudes.zero(), PAIR, 2), PAIR, "X")
        assert out.terms == {(1, 0): 1.0 + 0j}

    def test_y_matrix_convention(self):
        # Y = [[0, -i], [i, 0]] on (|0>_L, |1>_L).
        out0 = decode(pauli_correction(encode(LogicalAmplitudes.zero(), PAIR, 2), PAIR, "Y"), PAIR)
        out1 = decode(pauli_correction(encode(LogicalAmplitudes.one(), PAIR, 2), PAIR, "Y"), PAIR)
        assert out0.a1 == pytest.approx(1j)
        assert out1.a0 == pytest.approx(-1j)

    def test_pauli_algebra_on_the_logical_subspace(self):
        """X^2 = Z^2 = I and ZX = -XZ, checked on a basis."""
        for basis in (LogicalAmplitudes.zero(), LogicalAmplitudes.one()):
            s = encode(basis, PAIR, 2)
            for label in ("X", "Z"):
                twice = pauli_correction(pauli_correction(s, PAIR, label), PAIR, label)
                assert twice.terms == s.terms
            zx = pauli_correction(pauli_correction(s, PAIR, "X"), PAIR, "Z")
            xz = pauli_correction(pauli_correction(s, PAIR, "Z"), PAIR, "X")
            fused = {k: -v for k, v in xz.terms.items()}
            assert all(abs(zx.terms[k] - fused[k]) < 1e-12 for k in zx.terms)

    def test_other_modes_ride_along(self):
        s = FockState(4, {(0, 1, 1, 0): SQRT_HALF, (1, 0, 0, 1): SQRT_HALF})
        out = pauli_correction(s, DualRailQubit(2, 3), "Z")
        assert out.amplitude((0, 1, 1, 0)) == pytest.approx(-SQRT_HALF)
        assert out.amplitude((1, 0, 0, 1)) == pytest.approx(SQRT_HALF)

    def test_subspace_violation_rejected(self):
        with pytest.raises(LeakageError):
            pauli_correction(FockState.ket((2, 0)), PAIR, "Z")

    @pytest.mark.parametrize(
        "which, expected",
        [
            ("X", [((0, 1, 1), 0.6 + 0j), ((1, 1, 0), 0.8 + 0j)]),
            ("Y", [((0, 1, 1), 0.6j), ((1, 1, 0), -0.8j)]),
        ],
    )
    def test_a_pair_listed_against_mode_order_swaps_its_own_rails(self, which, expected):
        # rail1 = 2 and rail0 = 0 are listed in descending mode order, with a
        # spectator photon on mode 1 between them.
        s = FockState(3, {(1, 1, 0): 0.6, (0, 1, 1): 0.8})
        out = pauli_correction(s, DualRailQubit(2, 0), which)
        assert list(out.terms.items()) == expected

    @pytest.mark.parametrize(
        "which, written",
        [
            ("X", {(0, 2, 0): 1e-6, (1, 1, 0): 2e-6j}),
            ("Y", {(0, 2, 0): 1e-6j, (1, 1, 0): 2e-6}),
            ("Z", {(1, 1, 0): -2e-6j, (2, 0, 0): 1e-6}),
        ],
    )
    def test_a_tolerated_leak_rides_through(self, which, written):
        # X and Y swap a leaking ket's counts too, and rail1 holding one photon
        # picks logical 1's phase: (1, 1) takes it, (2, 0) takes logical 0's.
        out = pauli_correction(TOLERATED_LEAK, PAIR, which)
        assert {k: out.terms[k] for k in written} == written

    @pytest.mark.parametrize("which", ["Q", ["X"]])  # an unhashable label is unknown too
    def test_unknown_label_rejected(self, which):
        with pytest.raises(ValueError, match="Pauli"):
            pauli_correction(FockState.ket((0, 1)), PAIR, which)


def test_bloch_parametrization():
    q = LogicalAmplitudes.from_bloch(math.pi / 2, 0.0)
    assert q.a0 == pytest.approx(SQRT_HALF)
    assert q.a1 == pytest.approx(SQRT_HALF)
    assert LogicalAmplitudes.from_bloch(0.0, 0.0).a0 == pytest.approx(1.0)


def test_is_normalized_takes_numpy_scalars_without_a_warning():
    # numpy scalars are read as Python complex, whose products overflow to inf silently.
    assert is_normalized((np.float64(0.6), np.complex128(0.8j)))
    assert not is_normalized((np.float64(1e200), np.complex128(0)))
    with pytest.raises(ValueError, match=r"^amplitude overflows a float$"):
        is_normalized((10**400, 0))  # the reader's error, not a norm verdict
