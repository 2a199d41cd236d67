import itertools
import math
import warnings

import numpy as np
import pytest

from dualrail.fock import FockState, distance
from dualrail.optics import ModeUnitary, apply_mode_unitary, hadamard_bs

from conftest import random_fock_state, random_unitary

SQRT_HALF = 1.0 / math.sqrt(2.0)


# Independent oracle: the transition amplitude of a linear element is the
# permanent of the unitary with rows/columns repeated by occupation.
def _permanent(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0j
        for i, j in enumerate(perm):
            p *= mat[i, j]
        total += p
    return complex(total)


def oracle_amplitude(u: np.ndarray, occ_in, occ_out) -> complex:
    if sum(occ_in) != sum(occ_out):
        return 0j
    rows = [i for i, m in enumerate(occ_out) for _ in range(m)]
    cols = [j for j, n in enumerate(occ_in) for _ in range(n)]
    norm = math.sqrt(
        math.prod(math.factorial(n) for n in occ_in)
        * math.prod(math.factorial(m) for m in occ_out)
    )
    return _permanent(u[np.ix_(rows, cols)]) / norm


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
