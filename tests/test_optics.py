import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualrail import optics
from dualrail.fock import FockState
from dualrail.optics import MAX_EXPANSION_TERMS, ModeUnitary, apply_mode_unitary, hadamard_bs

from conftest import random_fock_state, random_unitary
from reference_kernels import distance, oracle_amplitude, permanent, sector

SQRT_HALF = 1.0 / math.sqrt(2.0)


def oracle_apply(u: np.ndarray, state: FockState, modes) -> FockState:
    k = len(modes)
    out = {}
    for ket, amp in state.terms.items():
        occ_in = tuple(ket[m] for m in modes)
        total = sum(occ_in)
        for occ_out in itertools.product(range(total + 1), repeat=k):
            if sum(occ_out) != total:
                continue
            a = oracle_amplitude(u, occ_in, occ_out)
            if a == 0:
                continue
            new_ket = list(ket)
            for pos, m in enumerate(modes):
                new_ket[m] = occ_out[pos]
            key = tuple(new_ket)
            out[key] = out.get(key, 0j) + amp * a
    return FockState(state.mode_count, out)


class TestHadamard:
    def test_matrix_entries(self):
        h = hadamard_bs().matrix
        assert np.allclose(h, [[SQRT_HALF, SQRT_HALF], [-SQRT_HALF, SQRT_HALF]])

    def test_is_unitary(self):
        h = hadamard_bs().matrix
        assert np.allclose(h @ h.conj().T, np.eye(2), atol=1e-15)

    def test_squared_is_not_identity(self):
        h = hadamard_bs().matrix
        assert np.allclose(h @ h, [[0, 1], [-1, 0]], atol=1e-15)


class TestModeUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            ModeUnitary([[1, 0], [0, 2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300], ids=["nan", "inf", "overflow"])
    def test_rejects_non_finite_products_without_warning(self, bad):
        # A nan defect used to compare as "not above the tolerance".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                ModeUnitary([[bad, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ModeUnitary([[1, 0, 0], [0, 1, 0]])


class TestApply:
    def test_identity_is_a_no_op(self, rng):
        for _ in range(10):
            s = random_fock_state(rng, 3)
            out = apply_mode_unitary(s, [0, 2], ModeUnitary(np.eye(2)))
            assert distance(s, out) < 1e-14

    def test_triplet_from_logical_one(self):
        # Photon in the first rail, Hadamard listed as (rail0, rail1).
        out = apply_mode_unitary(FockState.ket((1, 0)), [1, 0], hadamard_bs())
        assert out.amplitude((0, 1)) == pytest.approx(SQRT_HALF)
        assert out.amplitude((1, 0)) == pytest.approx(SQRT_HALF)

    def test_singlet_from_logical_zero(self):
        out = apply_mode_unitary(FockState.ket((0, 1)), [1, 0], hadamard_bs())
        assert out.amplitude((0, 1)) == pytest.approx(SQRT_HALF)
        assert out.amplitude((1, 0)) == pytest.approx(-SQRT_HALF)

    def test_hong_ou_mandel(self):
        """Two photons on a balanced splitter never split up."""
        out = apply_mode_unitary(FockState.ket((1, 1)), [0, 1], hadamard_bs())
        assert abs(out.amplitude((1, 1))) <= 1e-14
        assert out.amplitude((2, 0)) == pytest.approx(SQRT_HALF)
        assert out.amplitude((0, 2)) == pytest.approx(-SQRT_HALF)

    def test_matches_permanent_oracle(self, rng):
        for _ in range(30):
            s = random_fock_state(rng, 4, max_total=3)
            modes = [int(m) for m in rng.choice(4, size=2, replace=False)]
            u = random_unitary(rng, 2)
            got = apply_mode_unitary(s, modes, ModeUnitary(u))
            want = oracle_apply(u, s, modes)
            assert distance(got, want) < 1e-12

    def test_three_mode_element_matches_oracle(self, rng):
        for _ in range(5):
            s = random_fock_state(rng, 4, max_total=3)
            modes = [int(m) for m in rng.choice(4, size=3, replace=False)]
            u = random_unitary(rng, 3)
            got = apply_mode_unitary(s, modes, ModeUnitary(u))
            want = oracle_apply(u, s, modes)
            assert distance(got, want) < 1e-12

    def test_norm_preserved(self, rng):
        for _ in range(25):
            s = random_fock_state(rng, 4, max_total=3)
            u = ModeUnitary(random_unitary(rng, 2))
            out = apply_mode_unitary(s, [1, 3], u)
            assert out.norm_squared() == pytest.approx(s.norm_squared(), abs=1e-12)

    def test_photon_number_conserved(self, rng):
        for _ in range(25):
            s = random_fock_state(rng, 4, max_total=3)
            u = ModeUnitary(random_unitary(rng, 2))
            out = apply_mode_unitary(s, [0, 1], u)
            assert out.total_photons() <= s.total_photons()

    def test_composition_matches_matrix_product(self, rng):
        for _ in range(15):
            s = random_fock_state(rng, 3, max_total=2)
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 2)
            stepwise = apply_mode_unitary(
                apply_mode_unitary(s, [0, 2], ModeUnitary(u)), [0, 2], ModeUnitary(v)
            )
            fused = apply_mode_unitary(s, [0, 2], ModeUnitary(v @ u))
            assert distance(stepwise, fused) < 1e-12

    def test_single_photon_sector_acts_as_the_matrix(self, rng):
        for _ in range(15):
            u = random_unitary(rng, 2)
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            s = FockState(2, {(1, 0): c[0], (0, 1): c[1]})
            out = apply_mode_unitary(s, [0, 1], ModeUnitary(u))
            expect = u @ c
            assert out.amplitude((1, 0)) == pytest.approx(expect[0], abs=1e-12)
            assert out.amplitude((0, 1)) == pytest.approx(expect[1], abs=1e-12)

    def test_validation_errors(self):
        s = FockState.ket((1, 0))
        with pytest.raises(ValueError, match="duplicate"):
            apply_mode_unitary(s, [0, 0], hadamard_bs())
        with pytest.raises(ValueError, match="out of range"):
            apply_mode_unitary(s, [0, 5], hadamard_bs())
        with pytest.raises(ValueError, match="2-mode"):
            apply_mode_unitary(s, [0], hadamard_bs())

    @pytest.mark.parametrize(
        "modes, matrix",
        [([0, 1], hadamard_bs().matrix), ([0, 1, 2], np.eye(3)), ([0, 1], [[0, 1], [1, 0]])],
        ids=["closed-form", "three-mode", "zero-entry"],
    )
    def test_too_many_photons_fail_in_one_line(self, modes, matrix):
        # 200! passes the float range; 170 photons still expand.
        u = ModeUnitary(matrix)
        with pytest.raises(ValueError) as err:
            apply_mode_unitary(FockState.ket((200, 0, 0)), modes, u)
        assert str(err.value) == "more than 170 photons on the listed modes: sqrt(n!) overflows a float"
        assert err.value.__cause__ is None and err.value.__suppress_context__
        assert apply_mode_unitary(FockState.ket((170, 0, 0)), modes, u).norm_squared() > 0

    def test_a_sparse_element_expands_171_photons_that_stay_split(self):
        # Only the output (86, 85) arises, and sqrt(86! 85!) fits in a float.
        s = FockState.ket((86, 85))
        assert apply_mode_unitary(s, [0, 1], ModeUnitary(np.eye(2))).amplitude((86, 85)) == pytest.approx(1)



def no_expansion(terms, *rest):
    """Stands in for the direct expansion, so only the pre-check's verdict is tested."""
    return dict(terms)


class TestOutputBound:
    def test_a_64_mode_ket_of_64_photons_is_refused_at_once(self):
        state = FockState.ket((64,) + (0,) * 63)
        with pytest.raises(ValueError) as err:
            apply_mode_unitary(state, range(64), ModeUnitary(np.eye(64)))
        assert str(err.value) == (
            f"a 64-mode unitary could output {math.comb(127, 63)} terms, "
            f"above the limit of {MAX_EXPANSION_TERMS}"
        )

    def test_the_bound_sums_over_kets_and_admits_its_limit(self):
        # 2 photons on 3 listed modes give at most C(4, 2) = 6 outputs, 1 photon 3.
        state = FockState(4, {(2, 0, 0, 1): 0.6, (0, 1, 0, 0): 0.8})
        u = ModeUnitary(random_unitary(np.random.default_rng(3), 3))
        with mock.patch.object(optics, "MAX_EXPANSION_TERMS", 9):
            assert apply_mode_unitary(state, [2, 0, 1], u).norm_squared() == pytest.approx(1.0)
        with mock.patch.object(optics, "MAX_EXPANSION_TERMS", 8):
            message = "^a 3-mode unitary could output 9 terms, above the limit of 8$"
            with pytest.raises(ValueError, match=message):
                apply_mode_unitary(state, [2, 0, 1], u)

    def test_two_mode_elements_are_not_bounded_here(self):
        with mock.patch.object(optics, "MAX_EXPANSION_TERMS", 0):
            assert apply_mode_unitary(FockState.ket((3, 1)), [0, 1], hadamard_bs()).terms

    @given(k=st.integers(3, 64), photons=st.lists(st.integers(0, 64), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_the_pre_check_refuses_exactly_the_expansions_past_the_limit(self, k, photons):
        # Ket i holds photons[i] on the first listed mode and i on an unlisted
        # one, so the kets are distinct; nothing is expanded either way.
        state = FockState(k + 1, {(n,) + (0,) * (k - 1) + (i,): 1.0 for i, n in enumerate(photons)})
        bound = sum(math.comb(n + k - 1, k - 1) for n in photons)
        with mock.patch.object(optics, "_expand_direct", no_expansion):
            if bound > MAX_EXPANSION_TERMS:
                with pytest.raises(ValueError, match=f"^a {k}-mode unitary could output {bound} terms"):
                    apply_mode_unitary(state, range(k), ModeUnitary(np.eye(k)))
            else:
                assert apply_mode_unitary(state, range(k), ModeUnitary(np.eye(k))).terms == state.terms


def test_ryser_matches_the_permutation_sum(rng):
    for n in range(5):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        by_definition = sum(
            math.prod(a[i, j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(n))
        )
        assert permanent(a) == pytest.approx(by_definition, abs=1e-12)


@st.composite
def transitions(draw):
    """A basis ket and a random, permutation or Hadamard element on some of its modes."""
    mode_count = draw(st.integers(1, 5))
    ket = draw(st.sampled_from(sector(mode_count, draw(st.integers(0, 5)))))
    k = draw(st.integers(1, mode_count))
    modes = draw(st.permutations(range(mode_count)))[:k]
    kind = draw(st.sampled_from(["random", "permutation", "hadamard"]))
    if kind == "random":
        u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k)
    elif kind == "permutation":
        u = np.eye(k, dtype=complex)[draw(st.permutations(range(k)))]
    else:
        u = np.fft.fft(np.eye(k)) / math.sqrt(k)  # complex Hadamard; the real one at k = 2
    return ket, modes, u


@given(transitions())
@settings(max_examples=150, deadline=None)
def test_every_transition_amplitude_matches_the_permanent(transition):
    """<t|U|s> = Per(U[t, s]) / sqrt(prod s! prod t!) for every output ket t
    of the input's sector; spectator modes keep their photons."""
    ket, modes, u = transition
    got = apply_mode_unitary(FockState.ket(ket), modes, ModeUnitary(u))
    occ_in = [ket[m] for m in modes]
    expected = {}
    for occ_out in sector(len(modes), sum(occ_in)):
        out = list(ket)
        for m, n in zip(modes, occ_out):
            out[m] = n
        expected[tuple(out)] = oracle_amplitude(u, occ_in, occ_out)
    assert set(got.terms) <= set(expected)
    for out, amp in expected.items():
        assert abs(got.amplitude(out) - amp) <= 1e-12
