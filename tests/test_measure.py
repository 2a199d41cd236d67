import math

import pytest

from dualrail.fock import FockState
from dualrail.measure import (
    DetectionPattern,
    outcome_distribution,
    project_detection,
)

from conftest import random_fock_state
from reference_kernels import project_onto_state

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestDetectionPattern:
    def test_requirements_view(self):
        p = DetectionPattern({2: 1, 0: 0})
        assert p.items == ((0, 0), (2, 1))
        assert p.modes == (0, 2)
        assert p.requirements == {0: 0, 2: 1}

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DetectionPattern([(1, 0), (1, 1)])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DetectionPattern({0: -1})


class TestProjectDetection:
    def test_certain_click(self):
        br = project_detection(FockState.ket((1, 0)), DetectionPattern({0: 1}))
        assert br.probability == pytest.approx(1.0)
        assert br.residual.terms == {(0,): 1.0 + 0j}
        assert br.kept_modes == (1,)

    def test_sign_folds_into_residual(self):
        s = FockState(2, {(0, 1): SQRT_HALF, (1, 0): -SQRT_HALF})
        br = project_detection(s, DetectionPattern({0: 1, 1: 0}))
        assert br.probability == pytest.approx(0.5, abs=1e-12)
        assert br.residual is None  # every mode was measured
        assert br.kept_modes == ()

    def test_partial_projection_keeps_phase(self):
        s = FockState(3, {(0, 1, 1): SQRT_HALF, (1, 0, 0): -SQRT_HALF})
        br = project_detection(s, DetectionPattern({2: 1}))
        assert br.probability == pytest.approx(0.5, abs=1e-12)
        assert br.residual.amplitude((0, 1)) == pytest.approx(1.0)
        # The matched term's sign folds into the residual phase.
        negative = project_detection(s, DetectionPattern({2: 0}))
        assert negative.residual.amplitude((1, 0)) == pytest.approx(-1.0)

    def test_empty_branch_is_explicit(self):
        br = project_detection(FockState.ket((1, 0)), DetectionPattern({0: 2}))
        assert br.probability == 0.0
        assert br.residual is None

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            project_detection(FockState.ket((1, 0)), DetectionPattern({7: 1}))

    def test_projecting_a_removed_mode_errors(self):
        """Measured modes are consumed; reusing their index is an error."""
        s = FockState(2, {(0, 1): SQRT_HALF, (1, 0): SQRT_HALF})
        first = project_detection(s, DetectionPattern({1: 0}))
        with pytest.raises(ValueError, match="out of range"):
            project_detection(first.residual, DetectionPattern({1: 0}))


class TestOutcomeDistribution:
    def test_single_deterministic_outcome(self):
        branches = outcome_distribution(FockState.ket((1, 0)), [0])
        assert len(branches) == 1
        assert branches[0].probability == pytest.approx(1.0)

    def test_completeness_on_random_states(self, rng):
        for _ in range(20):
            s = random_fock_state(rng, 4)
            branches = outcome_distribution(s, [1, 2])
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
            patterns = [b.pattern.items for b in branches]
            assert len(set(patterns)) == len(patterns)
            assert patterns == sorted(patterns)

    def test_matches_single_projection(self, rng):
        s = random_fock_state(rng, 3)
        for branch in outcome_distribution(s, [0, 1]):
            redo = project_detection(s, branch.pattern)
            assert redo.probability == pytest.approx(branch.probability, abs=1e-12)

    def test_invariant_under_global_phase(self, rng):
        s = random_fock_state(rng, 3)
        rotated = s.scaled(complex(math.cos(1.1), math.sin(1.1)))
        p1 = [b.probability for b in outcome_distribution(s, [0, 2])]
        p2 = [b.probability for b in outcome_distribution(rotated, [0, 2])]
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_duplicate_detectors_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            outcome_distribution(FockState.ket((1, 0)), [0, 0])


class TestProjectOntoState:
    def test_bell_projection_weight(self):
        # (|1,0> - |0,1>)/sqrt2 on modes (0,1) of |1,0,1>: overlap with the
        # first term only.
        s = FockState(3, {(1, 0, 1): SQRT_HALF, (0, 0, 0): SQRT_HALF})
        singlet = FockState(2, {(1, 0): SQRT_HALF, (0, 1): -SQRT_HALF})
        prob, residual = project_onto_state(s, [0, 1], singlet)
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert residual.terms == {(1,): pytest.approx(1.0)}

    def test_zero_overlap(self):
        s = FockState.ket((1, 1, 0))
        singlet = FockState(2, {(1, 0): SQRT_HALF, (0, 1): -SQRT_HALF})
        prob, residual = project_onto_state(s, [0, 1], singlet)
        assert prob == 0.0 and residual is None

    def test_reference_must_be_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            project_onto_state(FockState.ket((1, 0)), [0, 1], FockState.ket((1, 0), 0.5))
