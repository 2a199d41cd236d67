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
sums the direct expansion runs on those monomials.

Every other element (k = 1, k >= 3, or a 2-mode unitary with a zero entry)
is expanded directly: each ket's monomials are kept in a dict, keyed by
output occupation, and grown one creation operator at a time over the
nonzero entries of its column.

If some sqrt(prod n!) passes the float range, either path raises a one-line
``ValueError``. That needs more than 170 photons on the listed modes, and
from 171 photons it always happens for a 2-mode unitary with no zero entry,
whose outputs include (171, 0); a sparse element such as a phase may still
expand 171 photons split as (86, 85).

Before a unitary on 3 or more modes is expanded, the outputs it could give
are bounded by integer work, C(N + k - 1, k - 1) per ket with N photons on
the k listed modes; a bound above ``MAX_EXPANSION_TERMS`` raises a one-line
``ValueError`` at once.

Setup that depends only on the element, the listed modes or a ket's local
occupation is done once, not per call or per branch. ``ModeUnitary`` keeps a
read-only copy of its matrix and works out at construction its columns as
Python complex numbers and whether it takes the closed form. ``_layout``
memoizes the checked modes and the two occupation getters per (mode count,
listed modes), and ``_pair_plan`` the closed form's sqrt(a! b!) and output
scales per local occupation (a, b); each keeps 256 entries, and an invalid
mode list raises and is not stored.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .fock import FockState, checked_modes, occupation_getter

UNITARY_TOL = 1e-12
# Most output terms a unitary on 3 or more modes may expand to, summed over
# the input kets. An output term holds about 200 bytes, so the limit keeps an
# expansion near 220 MB.
MAX_EXPANSION_TERMS = 2**20


class ModeUnitary:
    """Unitary matrix of a linear-optical element on ``dim`` modes.

    ``matrix`` is a read-only copy of the given matrix, so the caller's array
    stays writable and the columns and closed-form test worked out here from
    it cannot drift from it.
    """

    __slots__ = ("matrix", "_columns", "_closed_form")

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf/nan entries
            defect = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if not defect <= UNITARY_TOL:  # also rejects a nan defect
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        m.flags.writeable = False
        self.matrix = m
        self._columns = m.T.tolist()  # column j of U, as Python complex
        self._closed_form = len(self._columns) == 2 and all(map(all, self._columns))

    @property
    def dim(self) -> int:
        return len(self._columns)

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
    listed, local_of, place = _layout(state.mode_count, tuple(modes))
    if u.dim != listed:
        raise ValueError(f"unitary is {u.dim}-mode but {listed} modes were listed")
    if listed >= 3:
        _check_output_bound(state.terms, local_of, listed)
    expand = _expand_pairs if u._closed_form else _expand_direct
    try:
        terms = expand(state.terms, map(local_of, state.terms), u._columns, place)
    except OverflowError:  # math.sqrt of an int prod n! past the float range
        raise ValueError("more than 170 photons on the listed modes: sqrt(n!) overflows a float") from None
    return FockState._trusted(state.mode_count, terms)


@functools.lru_cache(maxsize=256)
def _layout(mode_count: int, modes: tuple) -> tuple[int, Callable, Callable]:
    """(number of listed modes, local-occupation getter, output-ket placer) of an element.

    An output ket is the input ket with its listed modes overwritten by the
    output local occupation, read from ket + local in one gather.
    """
    modes = checked_modes(mode_count, modes)
    positions = list(range(mode_count))
    for r, m in enumerate(modes):
        positions[m] = mode_count + r
    return len(modes), occupation_getter(modes), occupation_getter(positions)


def _check_output_bound(terms: dict, local_of: Callable, k: int) -> None:
    """Refuse a k-mode expansion that could output more than ``MAX_EXPANSION_TERMS`` terms.

    A ket with N photons on the k listed modes yields at most C(N+k-1, k-1)
    output kets, so the bound is integer work over the input kets.
    """
    photons = collections.Counter(map(sum, map(local_of, terms)))
    bound = sum(math.comb(n + k - 1, k - 1) * kets for n, kets in photons.items())
    if bound > MAX_EXPANSION_TERMS:
        raise ValueError(
            f"a {k}-mode unitary could output {bound} terms, above the limit of {MAX_EXPANSION_TERMS}"
        )


@functools.lru_cache(maxsize=256)
def _pair_plan(local: tuple[int, int]) -> tuple[float, tuple]:
    """(sqrt(a! b!), ((mono, sqrt(mono[0]! mono[1]!)), ...)) of the local occupation (a, b).

    The monomials are (a + b - i, i) for i = 0 .. a + b, in that order.
    """
    a, b = local
    monos = [(a + b - i, i) for i in range(a + b + 1)]
    return (
        math.sqrt(math.factorial(a) * math.factorial(b)),
        tuple((mono, math.sqrt(math.factorial(mono[0]) * math.factorial(mono[1]))) for mono in monos),
    )


def _expand_pairs(terms: dict, locals_: Iterable, columns: list, place: Callable) -> dict:
    """Each ket's expansion, summed, in closed form (a 2-mode unitary, no zero entry)."""
    out: dict[tuple[int, ...], complex] = {}
    for (ket, amp), local in zip(terms.items(), locals_):
        norm, outputs = _pair_plan(local)
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


def _expand_direct(terms: dict, locals_: Iterable, columns: list, place: Callable) -> dict:
    """Each ket's expansion, summed, one creation operator at a time."""
    # Column j of U as its nonzero rows r and entries U[r, j].
    columns = [[(r, c) for r, c in enumerate(col) if c != 0] for col in columns]
    vacuum = (0,) * len(columns)
    out: dict[tuple[int, ...], complex] = {}
    for (ket, amp), local in zip(terms.items(), locals_):
        monos = {vacuum: amp / math.sqrt(math.prod(map(math.factorial, local)))}
        for column, count in zip(columns, local):
            for _ in range(count):
                grown: dict[tuple[int, ...], complex] = {}
                for mono, coeff in monos.items():
                    for r, c in column:
                        key = mono[:r] + (mono[r] + 1,) + mono[r + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * c
                monos = grown
        for mono, coeff in monos.items():
            key = place(ket + mono)
            out[key] = out.get(key, 0j) + coeff * math.sqrt(math.prod(map(math.factorial, mono)))
    return out
