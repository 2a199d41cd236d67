"""Reference implementations of the hot loops, kept as test oracles.

These are the per-term loops ``dualrail`` ran before its fast paths:
``apply_mode_unitary`` with numpy-scalar arithmetic and dict-based
expansion, ``project_detection``/``outcome_distribution`` with per-ket
generator scans, and the ``FockState`` constructor with generator-based
validation. The fast paths must reproduce them bit for bit: same keys in the
same order, same float bits, same exceptions and messages.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from dualrail.fock import PRUNE_TOL, FockState
from dualrail.measure import BranchResult, DetectionPattern, _validate_modes
from dualrail.optics import ModeUnitary


class ReferenceFockState(FockState):
    """``FockState`` built by the reference constructor."""

    __slots__ = ()

    def __init__(self, mode_count: int, terms) -> None:
        if mode_count <= 0:
            raise ValueError(f"mode_count must be positive, got {mode_count}")
        if isinstance(terms, Mapping):
            pairs: Iterable = terms.items()
        else:
            pairs = terms

        acc: dict = {}
        seen_any = False
        for occ, amp in pairs:
            seen_any = True
            ket = tuple(int(n) for n in occ)
            if len(ket) != mode_count:
                raise ValueError(
                    f"occupation vector {ket} has length {len(ket)}, "
                    f"expected {mode_count}"
                )
            if any(n < 0 for n in ket):
                raise ValueError(f"negative photon count in {ket}")
            a = complex(amp)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite amplitude {a} for ket {ket}")
            acc[ket] = acc.get(ket, 0j) + a

        if not seen_any:
            raise ValueError("at least one term is required")
        pruned = {k: v for k, v in acc.items() if abs(v) > PRUNE_TOL}
        if not pruned:
            raise ValueError("all terms vanished (exact cancellation)")
        self.mode_count = mode_count
        self.terms = pruned


def apply_mode_unitary(state: FockState, modes: Sequence[int], u: ModeUnitary) -> FockState:
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
    return ReferenceFockState(state.mode_count, out)


def project_detection(state: FockState, pattern: DetectionPattern) -> BranchResult:
    _validate_modes(state, pattern.modes)
    required = pattern.requirements
    kept = tuple(m for m in range(state.mode_count) if m not in required)

    residual_terms: dict[tuple[int, ...], complex] = {}
    weight = 0.0
    for ket, amp in state.terms.items():
        if any(ket[m] != c for m, c in required.items()):
            continue
        weight += abs(amp) ** 2
        rest = tuple(ket[m] for m in kept)
        residual_terms[rest] = residual_terms.get(rest, 0j) + amp

    if weight == 0.0 or not residual_terms:
        return BranchResult(pattern, 0.0, None, kept)
    if not kept:
        # Whole state measured: the branch keeps its probability, nothing remains.
        return BranchResult(pattern, weight, None, kept)
    scale = 1.0 / math.sqrt(weight)
    residual = ReferenceFockState(len(kept), {k: v * scale for k, v in residual_terms.items()})
    return BranchResult(pattern, weight, residual, kept)


def outcome_distribution(state: FockState, detector_modes: Sequence[int]) -> list[BranchResult]:
    modes = [int(m) for m in detector_modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate detector modes in {modes}")
    _validate_modes(state, modes)
    outcomes = sorted({tuple(ket[m] for m in modes) for ket in state.terms})
    return [
        project_detection(state, DetectionPattern(zip(modes, counts)))
        for counts in outcomes
    ]
