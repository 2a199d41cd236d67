"""Linear-optical elements applied exactly to Fock states.

A k-mode element is a k x k unitary acting on the creation operators of the
modes it touches: a_j^dag -> sum_k U[k, j] a_k^dag, where column j is the
input mode and row k the output mode. With the amplitude vector of a single
photon ordered like the listed modes, this makes the one-photon sector
transform as c -> U c, so the logical-gate picture and the Fock picture
agree by construction.

``apply_mode_unitary`` takes one of two paths, chosen by the unitary, and
both give output keys, their order and every amplitude bit equal to a direct
creation-operator expansion's (amp / sqrt(prod n!), then 0j + ... sums, then
* sqrt(prod q!), scattered in input-ket order).

A 2-mode unitary with no zero entry (every default ``bs``, the gates' splitters
and a random 2 x 2) is expanded in closed form: with (f0, f1) its column j,
each creation operator takes the coefficients c of the monomials (m - i, i)
to 0j + c[0]*f0, then 0j + c[i-1]*f1 + c[i]*f0, then 0j + c[-1]*f1, the
sums a recorded program would run, so nothing is recorded.

Every other element (k = 1, k >= 3, or a 2-mode unitary with a zero entry)
records and replays. Kets with the same photon counts on the listed modes
(the same local occupation) expand through the same monomials, so the
expansion is recorded once per local occupation as a program of (source,
target, coefficient) steps and replayed on each ket's amplitude with list
indexing instead of tuple slicing and dict hashing. A program is dropped
after the last ket that uses it, so a dense k-mode input, whose kets each
have a local occupation of their own, holds one program at a time.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .fock import FockState, checked_modes, occupation_getter

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
    modes = checked_modes(state.mode_count, modes)
    if u.dim != len(modes):
        raise ValueError(f"unitary is {u.dim}-mode but {len(modes)} modes were listed")

    n = state.mode_count
    # An output ket is the input ket with its listed modes overwritten by
    # the output local occupation, read from ket + local in one gather.
    positions = list(range(n))
    for r, m in enumerate(modes):
        positions[m] = n + r
    place = occupation_getter(positions)
    locals_ = map(occupation_getter(modes), state.terms)
    columns = u.matrix.T.tolist()  # column j of U, as Python complex
    expand = _expand_pairs if len(columns) == 2 and all(map(all, columns)) else _replay_programs
    return FockState._trusted(n, expand(state.terms, locals_, columns, place))


def _expand_pairs(terms: dict, locals_: Iterable, columns: list, place: Callable) -> dict:
    """Each ket's expansion, summed, in closed form (a 2-mode unitary, no zero entry)."""
    plans: dict[tuple[int, ...], tuple] = {}  # (sqrt(a! b!), outputs) per local occupation
    out: dict[tuple[int, ...], complex] = {}
    for (ket, amp), local in zip(terms.items(), locals_):
        plan = plans.get(local)
        if plan is None:
            a, b = local
            monos = [(a + b - i, i) for i in range(a + b + 1)]
            plan = plans[local] = (
                math.sqrt(math.factorial(a) * math.factorial(b)),
                [(mono, math.sqrt(math.factorial(mono[0]) * math.factorial(mono[1]))) for mono in monos],
            )
        norm, outputs = plan
        coeffs = [amp / norm]
        for (f0, f1), count in zip(columns, local):
            for _ in range(count):
                x = coeffs[0]
                grown = [0j + x * f0]
                for y in coeffs[1:]:  # x, y = c[i-1], c[i]
                    grown.append(0j + x * f1 + y * f0)
                    x = y
                grown.append(0j + x * f1)
                coeffs = grown
        for (mono, scale), coeff in zip(outputs, coeffs):
            key = place(ket + mono)
            out[key] = out.get(key, 0j) + coeff * scale
    return out


def _replay_programs(terms: dict, locals_: Iterable, columns: list, place: Callable) -> dict:
    """Each ket's expansion, summed, replaying one program per local occupation."""
    # Column j of U as its nonzero rows r and entries U[r, j].
    columns = [([r for r, c in enumerate(col) if c != 0], [c for c in col if c != 0]) for col in columns]
    locals_ = list(locals_)
    last = {local: i for i, local in enumerate(locals_)}  # each program's last ket
    programs: dict[tuple[int, ...], tuple] = {}
    out: dict[tuple[int, ...], complex] = {}
    for i, ((ket, amp), local) in enumerate(zip(terms.items(), locals_)):
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
    return out


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
