"""Exact Fock-state simulation of dual-rail linear-optical circuits.

The package simulates number-state qubits (one photon across two spatial
modes) through beam splitters, photon counting and feed-forward, and ships
the heralded conditional sign-flip constructions built on teleportation:
a destructive gate, a quantum encoder, and the encoder-backed
nondestructive gate. A small circuit language (``.loc`` files) expresses
the same optical layouts as data.

The gates' names from ``protocols``, which imports numpy, load on first use
through a module ``__getattr__`` (PEP 562), so ``import dualrail`` loads no numpy.
"""

from importlib import resources

from .circuits import CircuitIR, ParseError, RunResult, execute, parse
from .fock import FockState, PhaseMatch, equal_up_to_global_phase
from .measure import BranchResult, outcome_distribution, project_detection
from .optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from .rails import (
    DualRailQubit,
    LeakageError,
    LogicalAmplitudes,
    bell_state,
    decode,
    decode_register,
    encode,
    pauli_correction,
)

__version__ = "0.1.0"

__all__ = [
    "BellAmplitudes",
    "BranchResult",
    "CircuitIR",
    "DualRailQubit",
    "FockState",
    "LeakageError",
    "LogicalAmplitudes",
    "ModeUnitary",
    "ParseError",
    "PhaseMatch",
    "RunResult",
    "apply_mode_unitary",
    "bell_state",
    "csign_reference",
    "data_path",
    "decode",
    "decode_register",
    "encode",
    "equal_up_to_global_phase",
    "execute",
    "hadamard_bs",
    "outcome_distribution",
    "parse",
    "pauli_correction",
    "project_detection",
    "run_destructive_csign",
    "run_nondestructive_csign",
    "run_quantum_encoder",
    "teleport_gate_table",
    "verify_a_matrix",
]


def data_path(name: str):
    """Filesystem path of a shipped data file (e.g. ``fig1.loc``)."""
    return resources.files(__package__).joinpath("data", name)


def __getattr__(name: str):
    if name in __all__:  # only the names from ``protocols`` are not bound at import
        from . import protocols
        return getattr(protocols, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
