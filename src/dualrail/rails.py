"""Dual-rail logical layer.

A qubit lives on two spatial modes: a photon in the first rail means logical
|1>, in the second rail logical |0> (so |1>_L is the Fock ket |10> on the
pair and |0>_L is |01>), written once as ``RAIL_KETS``. This module
translates between logical amplitudes and Fock kets, builds Bell pairs, and
applies Pauli corrections on a pair, with the Paulis written once as ``PAULIS``.

``is_normalized``, the one normalization check, reads each amplitude through
``fock.as_amplitude``, for a gate's entry check and the circuit rule pass alike.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Sequence

from .fock import FockState, _checked_mode_count, as_amplitude, layout

# Weight outside the one-photon-per-pair subspace above this is reported as
# leakage instead of being silently renormalized: post-selected branches in
# the gate protocols must be exactly leakage-free, so any leakage is a bug
# signal.
LEAK_TOL = 1e-10

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")

# The counts on a pair listed (rail1, rail0) for logical 0 and 1, and back.
RAIL_KETS = ((0, 1), (1, 0))
_BIT_OF = {ket: bit for bit, ket in enumerate(RAIL_KETS)}

# The package's one Pauli definition, on (|0>_L, |1>_L): [row][column] is <row|P|column>.
PAULIS = MappingProxyType(
    {"I": ((1, 0), (0, 1)), "X": ((0, 1), (1, 0)), "Y": ((0, -1j), (1j, 0)), "Z": ((1, 0), (0, -1))}
)


class LeakageError(ValueError):
    """State has weight outside the dual-rail subspace on a qubit pair."""

    def __init__(self, message: str, leakage: float) -> None:
        super().__init__(f"{message} (leakage weight {leakage:.3e})")
        self.leakage = leakage


@dataclass(frozen=True)
class DualRailQubit:
    """Mode pair carrying one qubit; photon in ``rail1`` = logical |1>."""

    rail1: int
    rail0: int

    def __post_init__(self) -> None:
        if self.rail1 == self.rail0:
            raise ValueError("rail1 and rail0 must be distinct modes")

    @property
    def modes(self) -> tuple[int, int]:
        return (self.rail1, self.rail0)


@dataclass(frozen=True)
class LogicalAmplitudes:
    """Coefficients (a0, a1) of logical |0> and |1>."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        for a in (self.a0, self.a1):
            as_amplitude(a, "logical amplitude")  # a check only: the fields keep their type

    @classmethod
    def zero(cls) -> LogicalAmplitudes:
        return cls(1.0, 0.0)

    @classmethod
    def one(cls) -> LogicalAmplitudes:
        return cls(0.0, 1.0)

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> LogicalAmplitudes:
        return cls(math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0))

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([self.a0, self.a1], dtype=complex)

    def norm_squared(self) -> float:
        try:
            return abs(self.a0) ** 2 + abs(self.a1) ** 2
        except OverflowError:
            raise ValueError("squared norm of the logical amplitudes overflows a float") from None

    def normalized(self) -> LogicalAmplitudes:
        n = math.sqrt(self.norm_squared())
        if n == 0.0:
            raise ValueError("cannot normalize a zero amplitude pair")
        return LogicalAmplitudes(self.a0 / n, self.a1 / n)


def is_normalized(amplitudes: Iterable[complex], what: str = "amplitude") -> bool:
    """Whether the squared norm of the ``amplitudes``, each read by ``as_amplitude`` naming
    ``what``, is within 1e-6 of 1; false if it overflows or is nan."""
    # Not abs(a) ** 2, which raises OverflowError where these products give inf.
    norm_squared = 0.0
    for a in amplitudes:
        z = as_amplitude(a, what)
        norm_squared += z.real * z.real + z.imag * z.imag
    return abs(norm_squared - 1.0) <= 1e-6


def require_normalized(q: LogicalAmplitudes) -> None:
    """A ``ValueError`` unless both amplitudes are numbers whose squared norm ``is_normalized``."""
    if not is_normalized((q.a0, q.a1), "logical amplitude"):
        raise ValueError("logical amplitudes are not normalized")


def encode(q: LogicalAmplitudes, placement: DualRailQubit, total_modes: int) -> FockState:
    """Place a logical qubit on its rail pair; every other mode is vacuum."""
    require_normalized(q)
    total_modes = _checked_mode_count(total_modes)
    place = layout(total_modes, placement.modes).place
    vacuum = (0,) * total_modes
    terms = [(place(vacuum + local), a) for local, a in zip(RAIL_KETS, (q.a0, q.a1)) if a != 0]
    return FockState(total_modes, terms)


def decode_register(state: FockState, pairs: Sequence[DualRailQubit]) -> np.ndarray:
    """Read a register of dual-rail qubits back into 2^n logical amplitudes.

    Every stored ket must carry one of the ``RAIL_KETS`` on each pair and
    nothing anywhere else; offending weight raises ``LeakageError``. The
    first pair is the most significant bit of the returned index.
    """
    import numpy as np
    _, local_of, _, rest_of, _ = layout(state.mode_count, [m for p in pairs for m in p.modes])
    amps = np.zeros(2 ** len(pairs), dtype=complex)
    leakage = 0.0
    try:
        for ket, amp in state.terms.items():
            local = local_of(ket)
            bits = [_BIT_OF.get(pair) for pair in zip(local[::2], local[1::2])]
            if None in bits or any(rest_of(ket)):
                leakage += abs(amp) ** 2
                continue
            index = 0
            for bit in bits:
                index = index * 2 + bit
            amps[index] += amp
    except OverflowError:  # a finite amplitude squared past the float range
        leakage = math.inf
    if leakage > LEAK_TOL:
        raise LeakageError("state leaks outside the dual-rail subspace", leakage)
    return amps


def decode(state: FockState, placement: DualRailQubit) -> LogicalAmplitudes:
    """Inverse of ``encode`` for a single qubit (all other modes vacuum)."""
    a0, a1 = decode_register(state, [placement])
    return LogicalAmplitudes(complex(a0), complex(a1))


def bell_state(
    kind: str, pair_a: DualRailQubit, pair_b: DualRailQubit, total_modes: int
) -> FockState:
    """One of the four Bell states on two dual-rail qubits.

    phi+- = (|00> +- |11>)/sqrt2 and psi+- = (|10> +- |01>)/sqrt2 in logical
    notation, with pair_a the left qubit.
    """
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {BELL_KINDS}")
    modes = pair_a.modes + pair_b.modes
    if len(set(modes)) != 4:
        raise ValueError("Bell state needs four distinct modes")
    total_modes = _checked_mode_count(total_modes)
    place = layout(total_modes, modes).place
    vacuum = (0,) * total_modes
    sign = 1.0 if kind.endswith("+") else -1.0
    zero, one = RAIL_KETS
    left, right = (zero + zero, one + one) if kind.startswith("phi") else (one + zero, zero + one)
    s = 1.0 / math.sqrt(2.0)
    return FockState(total_modes, [(place(vacuum + left), s), (place(vacuum + right), sign * s)])


def pauli_correction(state: FockState, placement: DualRailQubit, which: str) -> FockState:
    """Apply ``PAULIS[which]`` on one dual-rail pair; other modes ride along.

    Restricted to the pair, every term must hold exactly one photon. Each ket goes to
    one ket: X and Y swap the pair's counts, rail1 holding one photon picks the column's
    phase, and 0j + leaves every zero positive, as the public constructor's sum does.
    """
    if which not in tuple(PAULIS):  # a tuple, so an unhashable label is unknown too
        raise ValueError(f"unknown Pauli label {which!r}")
    matrix = PAULIS[which]
    swap = matrix[0][0] == 0
    phases = (matrix[swap][0], matrix[not swap][1])  # each column's entry in the row it goes to
    _, local_of, _, _, place = layout(state.mode_count, placement.modes)
    out: dict[tuple[int, ...], complex] = {}
    leakage = 0.0
    try:
        for ket, amp in state.terms.items():
            local = local_of(ket)
            if local not in RAIL_KETS:
                leakage += abs(amp) ** 2
            out[place(ket + local[::-1]) if swap else ket] = 0j + phases[local[0] == 1] * amp
    except OverflowError:  # a finite amplitude squared past the float range
        leakage = math.inf
    if leakage > LEAK_TOL:
        raise LeakageError("Pauli correction outside the dual-rail subspace", leakage)
    return FockState._trusted(state.mode_count, out)
