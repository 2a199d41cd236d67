"""Sparse exact representation of multimode bosonic Fock states.

A state is a map from occupation vectors (one photon count per spatial mode)
to complex amplitudes. Everything downstream -- beam splitters, detection,
the gate protocols -- works on these sparse maps, so no mode cutoff is ever
imposed beyond sparsity itself.
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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


class FockState:
    """Multimode bosonic pure state, stored sparsely.

    Immutable by convention: all operations return new states, so instances
    are safe to share across concurrent tasks.

    Construction sums duplicate kets, validates occupation vectors and
    amplitude finiteness, and prunes terms below ``PRUNE_TOL``. A state with
    no surviving term (e.g. exact cancellation of all inputs) is rejected.
    """

    __slots__ = ("mode_count", "terms")

    def __init__(self, mode_count: int, terms: TermsLike) -> None:
        if mode_count <= 0:
            raise ValueError(f"mode_count must be positive, got {mode_count}")
        if isinstance(terms, Mapping):
            pairs: Iterable[tuple[Iterable[int], complex]] = terms.items()
        else:
            pairs = terms

        acc: dict[Occupation, complex] = {}
        for occ, amp in pairs:
            ket = tuple(map(int, occ))
            if len(ket) != mode_count:
                raise ValueError(
                    f"occupation vector {ket} has length {len(ket)}, "
                    f"expected {mode_count}"
                )
            if min(ket) < 0:  # ket is not empty: mode_count is positive
                raise ValueError(f"negative photon count in {ket}")
            a = complex(amp)
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite amplitude {a} for ket {ket}")
            acc[ket] = acc.get(ket, 0j) + a

        if not acc:  # every pair either raised or added a key
            raise ValueError("at least one term is required")
        pruned = {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL}
        if not pruned:
            raise ValueError("all terms vanished (exact cancellation)")
        self.mode_count = mode_count
        self.terms = pruned

    @classmethod
    def ket(cls, occ: Iterable[int], amp: complex = 1.0) -> FockState:
        """Single-ket state |n1,...,nk> with the given amplitude."""
        ket = tuple(int(n) for n in occ)
        return cls(len(ket), [(ket, amp)])

    @classmethod
    def vacuum(cls, mode_count: int) -> FockState:
        return cls(mode_count, [((0,) * mode_count, 1.0)])

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self.terms.get(tuple(int(n) for n in occ), 0j)

    def items(self) -> list[tuple[Occupation, complex]]:
        """Terms in canonical (lexicographic ket) order."""
        return sorted(self.terms.items())

    def tensor(self, other: FockState) -> FockState:
        """Juxtapose registers: modes of ``other`` are appended after ours."""
        out: dict[Occupation, complex] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                out[ka + kb] = va * vb
        return FockState(self.mode_count + other.mode_count, out)

    def norm_squared(self) -> float:
        return sum(abs(v) ** 2 for v in self.terms.values())

    def scaled(self, factor: complex) -> FockState:
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
