"""Every way a caller's number enters the package reads it with ``fock.as_amplitude``.

A value that is not a number, or an int past the float range, is one
``ValueError`` naming what was read (one ``CircuitError`` in the circuit rule
pass) at every way in; and any number type gives the amplitude bits its
``complex()`` gives.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualrail import circuits
from dualrail.circuits import ApplyBS, CircuitError, CircuitIR, PrepareDualRail, PrepareKet
from dualrail.fock import FockState
from dualrail.optics import ModeUnitary
from dualrail.protocols import (
    BellAmplitudes,
    run_destructive_csign,
    run_nondestructive_csign,
    run_quantum_encoder,
    teleport_gate_table,
)
from dualrail.rails import DualRailQubit, LogicalAmplitudes, encode, is_normalized

ONE = LogicalAmplitudes(1, 0)


def hand_built(element):
    """Run a one-element hand-built program, which goes through the rule pass."""
    return circuits.run_branches(CircuitIR(2, None, (element,)))


# (what the error names, the call with the value v read at that way in)
WAYS_IN = {
    "fock-state": ("amplitude", lambda v: FockState(2, {(1, 0): v})),
    "ket": ("amplitude", lambda v: FockState.ket((1, 0), v)),
    "scaled": ("scale factor", lambda v: FockState.ket((1, 0)).scaled(v)),
    "mode-unitary": ("unitary entry", lambda v: ModeUnitary([[v, 0], [0, 1]])),
    "is-normalized": ("amplitude", lambda v: is_normalized((v, 0))),
    "logical-amplitudes-fields": ("logical amplitude", lambda v: LogicalAmplitudes(v, 0).as_array()),
    "bell-amplitudes-fields": ("Bell amplitude", lambda v: BellAmplitudes(v, 0, 0, 0).as_array()),
    "bell-amplitudes": ("Bell amplitude", lambda v: teleport_gate_table(BellAmplitudes(v, 0, 0, 0), ONE)),
    "teleported-qubit": ("logical amplitude", lambda v: teleport_gate_table(BellAmplitudes(1, 0, 0, 0), LogicalAmplitudes(v, 0))),
    "encode": ("logical amplitude", lambda v: encode(LogicalAmplitudes(v, 0), DualRailQubit(0, 1), 2)),
    "destructive": ("logical amplitude", lambda v: run_destructive_csign(ONE, LogicalAmplitudes(0, v))),
    "encoder": ("logical amplitude", lambda v: run_quantum_encoder(LogicalAmplitudes(v, 0), 2)),
    "nondestructive": ("logical amplitude", lambda v: run_nondestructive_csign(LogicalAmplitudes(v, 0), ONE)),
    "hand-built-dualrail": ("dualrail amplitude", lambda v: hand_built(PrepareDualRail(v, 0, 0, 1))),
    "hand-built-ket": ("ket amplitude", lambda v: hand_built(PrepareKet((((1, 0), v),)))),
    "hand-built-bs": ("bs matrix amplitude", lambda v: hand_built(ApplyBS((0, 1), (v, 0, 0, 1)))),
}

NOT_NUMBERS = {"str": "1", "none": None, "bytes": b"1", "array": np.array([1.0, 0.0]), "huge-int": 10**400}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("way_in", WAYS_IN.keys())
def test_a_value_that_is_not_a_number_is_one_error_at_every_way_in(way_in, value):
    # Unchecked, "1" builds a state or a unitary or passes a norm check
    # (complex() and np.array parse it), None and an array raise a bare
    # TypeError, and 10**400 a bare OverflowError.
    what, call = WAYS_IN[way_in]
    expected = f"{what} overflows a float" if value is NOT_NUMBERS["huge-int"] else (
        f"expected a number as {what}, got {value!r}"
    )
    with pytest.raises((ValueError, CircuitError)) as info:
        call(value)
    assert type(info.value) is (CircuitError if way_in.startswith("hand-built") else ValueError)
    assert str(info.value) == expected


def amplitude_bits(state: FockState) -> list:
    return [(k, struct.pack("<dd", v.real, v.imag)) for k, v in state.terms.items()]


def outcome(value):
    """The amplitude bits of a state holding ``value``, or the error it raises."""
    try:
        return amplitude_bits(FockState(2, [((1, 0), value), ((0, 1), 1.0)]))
    except ValueError as exc:
        return str(exc)


REAL_TYPES = [float, int, bool, Fraction, np.float16, np.float32, np.float64, np.longdouble, np.int64, np.array]
COMPLEX_TYPES = [complex, np.complex64, np.complex128, np.clongdouble]


@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    y=st.floats(allow_nan=False, allow_infinity=False),
    kind=st.sampled_from(REAL_TYPES + COMPLEX_TYPES),
)
@example(x=-0.0, y=-0.0, kind=float)
@example(x=-0.0, y=-0.0, kind=np.complex128)
@settings(max_examples=300, deadline=None)
def test_every_number_type_gives_the_bits_of_its_complex_value(x, y, kind):
    if kind is np.int64 and not abs(x) < 2**63:
        x = math.fmod(x, 2**63)
    with np.errstate(over="ignore"):  # a narrow float type rounds a large x to inf
        value = kind(complex(x, y)) if kind in COMPLEX_TYPES else kind(x)
    assert outcome(value) == outcome(complex(value))


def test_a_unitary_keeps_the_signed_zeros_of_its_entries():
    # ModeUnitary.matrix is public: the entry check reads each entry, but the
    # stored matrix is np.array's, whose -1j keeps its -0.0 real part.
    u = ModeUnitary([[1, 0], [0, -1j]])
    assert math.copysign(1.0, u.matrix[1, 1].real) == -1.0
    assert u.matrix.tobytes() == np.array([[1, 0], [0, -1j]], dtype=complex).tobytes()


@pytest.mark.parametrize("factor", [np.float16(1), np.float32(1), np.complex64(1)], ids=["float16", "float32", "complex64"])
def test_a_narrow_numpy_factor_scales_in_double_precision(factor):
    # Multiplied unread, numpy 2 keeps a Python complex times a float32 in
    # complex64, which rounds 0.1 to 0.10000000149011612.
    assert FockState.ket((1, 0), 0.1).scaled(factor).terms == {(1, 0): 0.1 + 0j}


def test_the_amplitude_pairs_check_their_fields_but_keep_them():
    # A check only: the stored value, and so every bit computed from it, is the caller's.
    q = LogicalAmplitudes(np.float64(0.6), np.float32(0.8))
    assert type(q.a0) is np.float64 and type(q.a1) is np.float32
    u = BellAmplitudes(np.float64(1.0), 0, 0, 0)
    assert type(u.u0) is np.float64 and type(u.uz) is int
