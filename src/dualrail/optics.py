"""Linear-optical elements applied exactly to Fock states.

A k-mode element is a k x k unitary acting on the creation operators of the
modes it touches: a_j^dag -> sum_k U[k, j] a_k^dag, where column j is the
input mode and row k the output mode. With the amplitude vector of a single
photon ordered like the listed modes, this makes the one-photon sector
transform as c -> U c, so the logical-gate picture and the Fock picture
agree by construction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fock import FockState

UNITARY_TOL = 1e-12


class ModeUnitary:
    """Unitary matrix of a linear-optical element on ``dim`` modes."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan entries
            defect = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if not defect <= UNITARY_TOL:  # also rejects a nan defect
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModeUnitary({self.matrix.tolist()})"


def hadamard_bs() -> ModeUnitary:
    """The balanced beam splitter used throughout: (1/sqrt 2) [[1, 1], [-1, 1]].

    Acts as a Hadamard on a dual-rail qubit when applied to the ordered mode
    pair (rail0, rail1). Note it is not self-inverse: H @ H = [[0,1],[-1,0]].
    """
    s = 1.0 / math.sqrt(2.0)
    return ModeUnitary([[s, s], [-s, s]])


def apply_mode_unitary(state: FockState, modes: Sequence[int], u: ModeUnitary) -> FockState:
    """Transform ``state`` by the element ``u`` acting on the listed modes.

    Each ket is rewritten through the creation-operator substitution with
    exact sqrt(n!) normalization, so photon number per term and the state
    norm are both preserved. Untouched modes pass through unchanged.
    """
    modes = [int(m) for m in modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    for m in modes:
        if not 0 <= m < state.mode_count:
            raise ValueError(f"mode {m} out of range for {state.mode_count} modes")
    if u.dim != len(modes):
        raise ValueError(f"unitary is {u.dim}-mode but {len(modes)} modes were listed")

    k = u.dim
    mat = u.matrix
    out: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        local = [ket[m] for m in modes]
        base = amp / math.sqrt(math.prod(math.factorial(n) for n in local))
        # Expand prod_j (sum_k U[k,j] a_k^dag)^{n_j} one creation operator at
        # a time; monomials are tracked as output occupation tuples.
        poly: dict[tuple[int, ...], complex] = {(0,) * k: base}
        for j, n in enumerate(local):
            col = mat[:, j]
            for _ in range(n):
                grown: dict[tuple[int, ...], complex] = {}
                for mono, coeff in poly.items():
                    for r in range(k):
                        c = col[r]
                        if c == 0:
                            continue
                        key = mono[:r] + (mono[r] + 1,) + mono[r + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * c
                poly = grown
        for mono, coeff in poly.items():
            new_ket = list(ket)
            for r, m in enumerate(modes):
                new_ket[m] = mono[r]
            weight = coeff * math.sqrt(math.prod(math.factorial(q) for q in mono))
            key = tuple(new_ket)
            out[key] = out.get(key, 0j) + weight
    return FockState(state.mode_count, out)
