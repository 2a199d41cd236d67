"""Linear-optical elements applied exactly to Fock states.

A k-mode element is a k x k unitary acting on the creation operators of the
modes it touches: a_j^dag -> sum_k U[k, j] a_k^dag, where column j is the
input mode and row k the output mode. With the amplitude vector of a single
photon ordered like the listed modes, this makes the one-photon sector
transform as c -> U c, so the logical-gate picture and the Fock picture
agree by construction.

``apply_mode_unitary`` records and replays. Kets with the same photon counts
on the listed modes (the same local occupation) expand through the same
monomials, so the expansion is recorded once per local occupation as a
program of (source, target, coefficient) steps and replayed on each ket's
amplitude with list indexing instead of tuple slicing and dict hashing.
Replay repeats the floating-point operations of a direct expansion in the
same order (amp / sqrt(prod n!), then 0j + ... sums, then * sqrt(prod q!)),
and results are scattered in input-ket order, so output keys, their order
and every amplitude bit equal the direct expansion's. A program is dropped
after the last ket that uses it, so a dense k-mode input, whose kets each
have a local occupation of their own, holds one program at a time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fock import FockState, occupation_getter

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

    n = state.mode_count
    # Column j of U as its nonzero rows r and entries U[r, j] (Python complex).
    columns = []
    for col in u.matrix.T.tolist():
        rows = [r for r, c in enumerate(col) if c != 0]
        columns.append((rows, [col[r] for r in rows]))
    locals_ = list(map(occupation_getter(modes), state.terms))
    last = {local: i for i, local in enumerate(locals_)}  # each program's last ket
    # An output ket is the input ket with its listed modes overwritten by
    # the output local occupation, read from ket + local in one gather.
    positions = list(range(n))
    for r, m in enumerate(modes):
        positions[m] = n + r
    place = occupation_getter(positions)

    programs: dict[tuple[int, ...], tuple] = {}
    out: dict[tuple[int, ...], complex] = {}
    for i, ((ket, amp), local) in enumerate(zip(state.terms.items(), locals_)):
        program = programs.get(local)
        if program is None:
            program = programs[local] = _record_expansion(local, columns)
        if last[local] == i:
            del programs[local]
        norm, steps, outputs = program
        coeffs = [amp / norm]
        for size, factors, targets in steps:
            grown = [0j] * size
            for coeff, fanout in zip(coeffs, targets):
                for t, c in zip(fanout, factors):
                    grown[t] += coeff * c
            coeffs = grown
        for (mono, scale), coeff in zip(outputs, coeffs):
            key = place(ket + mono)
            out[key] = out.get(key, 0j) + coeff * scale
    return FockState._trusted(n, out)


def _record_expansion(local: tuple[int, ...], columns: list[tuple[list, list]]) -> tuple:
    """The creation-operator expansion of one local occupation, as a program.

    Expands prod_j (sum_r U[r,j] a_r^dag)^{n_j} one creation operator at a
    time, tracking monomials as output occupation tuples. A step is recorded
    as (size, factors, targets): monomial s of the previous step adds
    ``coeff[s] * factors[i]`` to monomial ``targets[s][i]`` of this one, in
    the order the sums run, so replaying it on any amplitude repeats the same
    floating-point operations. Returns (sqrt(prod n_j!), steps, outputs),
    where outputs are (output occupation, sqrt(prod q!)) in insertion order.
    """
    index: dict[tuple[int, ...], int] = {(0,) * len(columns): 0}
    steps = []
    for (rows, factors), n in zip(columns, local):
        for _ in range(n):
            grown: dict[tuple[int, ...], int] = {}
            targets = [
                [grown.setdefault(mono[:r] + (mono[r] + 1,) + mono[r + 1 :], len(grown)) for r in rows]
                for mono in index
            ]
            steps.append((len(grown), factors, targets))
            index = grown
    outputs = [(mono, math.sqrt(math.prod(map(math.factorial, mono)))) for mono in index]
    return math.sqrt(math.prod(map(math.factorial, local))), steps, outputs
