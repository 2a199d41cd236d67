"""Each documented tolerance, tested just inside and just outside its bound.

Loosening any of these tolerances by orders of magnitude would otherwise
pass every other test; ``mutants.py`` holds those loosened versions, and the
last test here keeps its snippets in step with ``src``.
"""

import math

import numpy as np
import pytest

from dualrail.circuits import ParseError, parse
from dualrail.fock import FockState, equal_up_to_global_phase
from dualrail.optics import ModeUnitary
from dualrail.rails import DualRailQubit, LeakageError, decode_register

from mutants import MUTANTS, ROOT


def test_mode_unitary_accepts_a_defect_of_1e_14_and_rejects_1e_6():
    ModeUnitary(np.diag([1 + 5e-15, 1.0]))  # |m m^dag - 1| = 1e-14
    with pytest.raises(ValueError, match=r"not unitary \(defect 1\.000e-06\)"):
        ModeUnitary(np.diag([1 + 5e-7, 1.0]))


def test_mode_unitary_accepts_a_defect_of_exactly_its_tolerance():
    # U U^H - I is [[e^2, e], [e, 0]], and 1 + e^2 rounds to 1: the defect is e itself.
    ModeUnitary([[1, 1e-12], [0, 1]])
    with pytest.raises(ValueError, match=r"not unitary \(defect 2\.000e-12\)"):
        ModeUnitary([[1, 2e-12], [0, 1]])


def test_decode_register_keeps_1e_12_leaked_weight_and_rejects_1e_4():
    def leaky(weight):  # the qubit's |0>_L plus a two-photon term of that weight
        return FockState(2, {(0, 1): math.sqrt(1 - weight), (1, 1): math.sqrt(weight)})

    amps = decode_register(leaky(1e-12), [DualRailQubit(0, 1)])
    assert amps.tolist() == [math.sqrt(1 - 1e-12), 0]
    with pytest.raises(LeakageError) as err:
        decode_register(leaky(1e-4), [DualRailQubit(0, 1)])
    assert err.value.leakage == pytest.approx(1e-4, rel=1e-9)


@pytest.mark.parametrize(
    "line, message",
    [
        ("dualrail {} 0 0 0 on 1 2", "dualrail amplitudes are not normalized"),
        ("ket |1,0> amp {} 0", "ket amplitudes are not normalized"),
    ],
)
def test_loc_norms_pass_within_1e_7_and_fail_at_1e_4(line, message):
    parse(f"modes 2\n{line.format(math.sqrt(1 + 1e-7))}\n")
    with pytest.raises(ParseError, match=message):
        parse(f"modes 2\n{line.format(math.sqrt(1 + 1e-4))}\n")


def test_phase_equality_separates_states_5e_9_apart():
    target = FockState(2, {(1, 0): 1j})
    near = FockState(2, {(1, 0): 1.0, (0, 1): 5e-10})
    far = FockState(2, {(1, 0): 1.0, (0, 1): 5e-9})
    assert equal_up_to_global_phase(near, target).equal
    assert not equal_up_to_global_phase(far, target).equal


def test_phase_equality_rejects_a_squared_norm_of_1_01():
    target = FockState.ket((1, 0))
    equal_up_to_global_phase(FockState(2, {(1, 0): math.sqrt(1 + 1e-7)}), target)
    with pytest.raises(ValueError, match="expects normalized states"):
        equal_up_to_global_phase(FockState(2, {(1, 0): math.sqrt(1.01)}), target)


def test_every_mutant_snippet_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (ROOT / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.snippet) == 1, mutant
        assert mutant.replacement != mutant.snippet, mutant
