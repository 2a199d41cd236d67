"""Sparse exact representation of multimode bosonic Fock states.

A state is a map from occupation vectors (one photon count per spatial mode)
to complex amplitudes. Everything downstream -- beam splitters, detection,
the gate protocols -- works on these sparse maps, so no mode cutoff is ever
imposed beyond sparsity itself.

The package reads a caller's integers with ``as_ints``/``as_int`` and every
amplitude, scale factor and matrix entry with ``as_amplitude``, all here.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Mapping
from operator import index, itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

# Stored amplitudes below this modulus are dropped. This keeps exact-
# cancellation residue out of the sparse maps; all protocol amplitudes are
# products of 1/sqrt(2) factors, far above this floor.
PRUNE_TOL = 1e-14

Occupation = tuple[int, ...]
TermsLike = Mapping[Occupation, complex] | Iterable[tuple[Iterable[int], complex]]


class PhaseMatch(NamedTuple):
    """Result of a global-phase comparison: flag plus the recovered phase."""

    equal: bool
    phase: complex | None


def occupation_getter(positions: Sequence[int]) -> Callable[[Occupation], Occupation]:
    """A function returning the tuple of a ket's photon counts at ``positions``.

    ``operator.itemgetter`` returns a bare count for one position and takes
    no empty list, so those two cases slice the ket instead.
    """
    if len(positions) >= 2:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def as_ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, else a one-line ``ValueError`` naming ``what``.

    ``operator.index`` takes ints and integer types such as numpy's, and
    rejects floats and strings instead of truncating or parsing them.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"expected integer {what}, got {values!r}") from None


def as_int(value: int, what: str) -> int:
    """``value`` converted as ``as_ints`` converts each of its values."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"expected integer {what}, got {value!r}") from None


def as_amplitude(value: complex, what: str) -> complex:
    """``value`` as a Python complex, else a one-line ``ValueError`` naming ``what``.

    ``0j +`` rejects a string, which ``complex()`` would parse, and ``complex()`` an array,
    which ``0j +`` broadcasts. A -0.0 part comes out 0.0, as the constructor stores it."""
    try:
        return complex(0j + value)
    except TypeError:
        raise ValueError(f"expected a number as {what}, got {value!r}") from None
    except OverflowError:  # an int past the float range
        raise ValueError(f"{what} overflows a float") from None


class Layout(NamedTuple):
    """Where a listing of modes sits in a ket.

    ``local_of(ket)`` is the ket's counts on ``modes`` and ``place(ket + local)``
    the ket with ``local`` written onto them, both in listed order; ``rest_of(ket)``
    is its counts on ``rest``, the other modes, in mode order.
    """

    modes: tuple[int, ...]
    local_of: Callable[[Occupation], Occupation]
    rest: tuple[int, ...]
    rest_of: Callable[[Occupation], Occupation]
    place: Callable[[Occupation], Occupation]


def layout(mode_count: int, modes: Iterable[int]) -> Layout:
    """The ``Layout`` of ``modes`` in kets of ``mode_count`` modes, for every kernel.

    Memoized per (mode count, listing), 256 entries, once the listing is ints,
    as 1.0 hashes like 1. A listing that repeats a mode or names one outside
    range(mode_count) raises ``ValueError`` and is not stored.
    """
    return _layout(mode_count, as_ints(modes, "modes"))


@functools.lru_cache(maxsize=256)
def _layout(mode_count: int, modes: tuple[int, ...]) -> Layout:
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {list(modes)}")
    for m in modes:
        if not 0 <= m < mode_count:
            raise ValueError(f"mode {m} out of range for {mode_count} modes")
    rest = tuple(m for m in range(mode_count) if m not in modes)
    positions = list(range(mode_count))
    for r, m in enumerate(modes):
        positions[m] = mode_count + r
    return Layout(modes, occupation_getter(modes), rest, occupation_getter(rest), occupation_getter(positions))


def _checked_terms(terms: dict[Occupation, complex]) -> dict[Occupation, complex]:
    """``terms`` less those at or below ``PRUNE_TOL``: both constructors' last check. Raises
    ``ValueError`` on the first non-finite amplitude, a modulus past the float range or no term left."""
    if not all(map(cmath.isfinite, terms.values())):
        ket, amp = next((k, a) for k, a in terms.items() if not cmath.isfinite(a))
        raise ValueError(f"non-finite amplitude {amp} for ket {ket}")
    try:
        smallest = min(map(abs, terms.values())) if terms else 0.0
    except OverflowError:  # a finite amplitude whose modulus passes the float range
        raise ValueError("amplitude modulus overflows a float") from None
    if not smallest > PRUNE_TOL:
        terms = {k: v for k, v in terms.items() if abs(v) > PRUNE_TOL}
        if not terms:
            raise ValueError("all terms vanished (exact cancellation)")
    return terms


def _checked_mode_count(mode_count: int) -> int:
    """``mode_count`` as a positive int, else a one-line ``ValueError``."""
    mode_count = as_int(mode_count, "mode count")
    if mode_count <= 0:
        raise ValueError(f"mode_count must be positive, got {mode_count}")
    return mode_count


class FockState:
    """Multimode bosonic pure state, stored sparsely.

    Immutable by convention: all operations return new states, so instances
    are safe to share across concurrent tasks.

    Construction sums duplicate kets, validates occupation vectors and the
    finiteness of each given amplitude and of each sum, and prunes terms below
    ``PRUNE_TOL``. A state with no surviving term (e.g. exact cancellation of
    all inputs) is rejected.

    The internal constructor ``_trusted`` builds the states the package
    derives from another valid state: linear-optical outputs, detection
    residuals, Pauli corrections and a circuit's state with a preparation
    injected onto its vacuum modes, whose factor was checked once where it
    entered. Their kets are tuples of non-negative ints of the right length,
    each listed once, with complex amplitudes, so it skips the ket conversion,
    the length and sign checks and the duplicate sum, but ends in the same
    check and prune, ``_checked_terms``: same state or same error. ``_subset``
    checks nothing; it builds ``measure``'s per-outcome parts of a valid state.
    """

    __slots__ = ("mode_count", "terms")

    def __init__(self, mode_count: int, terms: TermsLike) -> None:
        mode_count = _checked_mode_count(mode_count)
        if isinstance(terms, Mapping):
            pairs: Iterable[tuple[Iterable[int], complex]] = terms.items()
        else:
            pairs = terms

        acc: dict[Occupation, complex] = {}
        for occ, amp in pairs:
            ket = as_ints(occ, "photon counts")
            if len(ket) != mode_count:
                raise ValueError(
                    f"occupation vector {ket} has length {len(ket)}, "
                    f"expected {mode_count}"
                )
            if min(ket) < 0:  # ket is not empty: mode_count is positive
                raise ValueError(f"negative photon count in {ket}")
            a = as_amplitude(amp, "amplitude")
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite amplitude {a} for ket {ket}")
            acc[ket] = acc.get(ket, 0j) + a

        if not acc:  # every pair either raised or added a key
            raise ValueError("at least one term is required")
        self.mode_count = mode_count
        self.terms = _checked_terms(acc)  # two finite amplitudes can sum to inf

    @classmethod
    def _trusted(cls, mode_count: int, terms: dict[Occupation, complex]) -> FockState:
        """A state on ``terms``, whose kets must already be valid and distinct.

        Takes ownership of ``terms``. Raises the public constructor's error
        for a non-finite amplitude or for a state whose terms all prune away.
        """
        state = cls.__new__(cls)
        state.mode_count, state.terms = mode_count, _checked_terms(terms)
        return state

    @classmethod
    def _subset(cls, mode_count: int, terms: dict[Occupation, complex]) -> FockState:
        """A state that takes ``terms`` unchecked: they must be a non-empty part of a valid state's terms."""
        state = cls.__new__(cls)
        state.mode_count, state.terms = mode_count, terms
        return state

    @classmethod
    def ket(cls, occ: Iterable[int], amp: complex = 1.0) -> FockState:
        """Single-ket state |n1,...,nk> with the given amplitude."""
        ket = as_ints(occ, "photon counts")
        return cls(len(ket), [(ket, amp)])

    @classmethod
    def vacuum(cls, mode_count: int) -> FockState:
        mode_count = _checked_mode_count(mode_count)
        return cls(mode_count, [((0,) * mode_count, 1.0)])

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self.terms.get(as_ints(occ, "photon counts"), 0j)

    def items(self) -> list[tuple[Occupation, complex]]:
        """Terms in canonical (lexicographic ket) order."""
        return sorted(self.terms.items())

    def norm_squared(self) -> float:
        try:
            return sum(abs(v) ** 2 for v in self.terms.values())
        except OverflowError:
            raise ValueError("squared norm of the state overflows a float") from None

    def scaled(self, factor: complex) -> FockState:
        factor = as_amplitude(factor, "scale factor")
        return FockState(self.mode_count, {k: factor * v for k, v in self.terms.items()})

    def normalized(self) -> FockState:
        n = math.sqrt(self.norm_squared())
        return self.scaled(1.0 / n)

    def total_photons(self) -> set[int]:
        """Distinct total photon numbers across stored kets."""
        return {sum(k) for k in self.terms}

    def to_lines(self) -> list[str]:
        """Canonical text rendering: one ``(re,im) |n1,...,nk>`` line per term."""
        lines = []
        for ket, amp in self.items():
            re = amp.real + 0.0  # normalizes -0.0
            im = amp.imag + 0.0
            body = ",".join(str(n) for n in ket)
            lines.append(f"({re!r},{im!r}) |{body}>")
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FockState({self.mode_count}, {{{', '.join(self.to_lines())}}})"


def equal_up_to_global_phase(a: FockState, b: FockState, tol: float = 1e-9) -> PhaseMatch:
    """Whether a unit-modulus lambda exists with ||a - lambda*b|| <= tol.

    Both states must be normalized. The candidate phase is recovered from the
    largest-modulus ket shared by both states; the full 2-norm distance is
    then checked against ``tol``.
    """
    if a.mode_count != b.mode_count:
        raise ValueError("mode counts differ")
    for s in (a, b):
        if abs(s.norm_squared() - 1.0) > 1e-6:
            raise ValueError("equal_up_to_global_phase expects normalized states")

    shared = set(a.terms) & set(b.terms)
    if not shared:
        return PhaseMatch(False, None)
    pivot = max(shared, key=lambda k: min(abs(a.terms[k]), abs(b.terms[k])))
    ratio = a.terms[pivot] / b.terms[pivot]
    phase = ratio / abs(ratio)
    kets = set(a.terms) | set(b.terms)
    dist = math.sqrt(
        sum(abs(a.terms.get(k, 0j) - phase * b.terms.get(k, 0j)) ** 2 for k in kets)
    )
    return PhaseMatch(dist <= tol, phase if dist <= tol else None)
