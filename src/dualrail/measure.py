"""Photon-counting detection and projective post-selection.

Detectors are ideal and destructive: measured modes are consumed and removed
from the residual state, which keeps downstream mode indices dense. Each
branch carries the original indices of the surviving modes so labels stay
traceable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .fock import FockState, occupation_getter


@dataclass(frozen=True)
class DetectionPattern:
    """Required photon counts on a set of modes, stored sorted by mode."""

    items: tuple[tuple[int, int], ...]

    def __init__(self, requirements: Mapping[int, int] | Iterable[tuple[int, int]]) -> None:
        pairs = requirements.items() if isinstance(requirements, Mapping) else requirements
        normalized = tuple(sorted((int(m), int(c)) for m, c in pairs))
        modes = [m for m, _ in normalized]
        if len(set(modes)) != len(modes):
            raise ValueError(f"duplicate modes in detection pattern {normalized}")
        if any(c < 0 for _, c in normalized):
            raise ValueError("photon counts must be non-negative")
        if not normalized:
            raise ValueError("detection pattern must cover at least one mode")
        object.__setattr__(self, "items", normalized)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.items)

    @property
    def requirements(self) -> dict[int, int]:
        return dict(self.items)


@dataclass
class BranchResult:
    """One post-selection outcome.

    ``residual`` is the normalized state on the surviving modes, or None for
    an explicit zero-probability branch. ``kept_modes`` maps residual mode
    positions back to the indices they had before detection.
    """

    pattern: DetectionPattern
    probability: float
    residual: FockState | None
    kept_modes: tuple[int, ...]


def _validate_modes(state: FockState, modes: Sequence[int]) -> None:
    for m in modes:
        if not 0 <= m < state.mode_count:
            raise ValueError(f"mode {m} out of range for {state.mode_count} modes")


def project_detection(state: FockState, pattern: DetectionPattern) -> BranchResult:
    """Project onto the given photon counts; consume the measured modes.

    The branch probability is the kept weight; the residual is renormalized.
    A pattern matching nothing yields an explicit empty branch (probability
    0, residual None) so acceptance policies can be total over patterns.
    """
    _validate_modes(state, pattern.modes)
    required = pattern.requirements
    kept = tuple(m for m in range(state.mode_count) if m not in required)
    measured = occupation_getter(pattern.modes)
    counts = tuple(required.values())
    rest_of = occupation_getter(kept)

    residual_terms: dict[tuple[int, ...], complex] = {}
    weight = 0.0
    try:
        for ket, amp in state.terms.items():
            if measured(ket) != counts:
                continue
            weight += abs(amp) ** 2
            rest = rest_of(ket)
            residual_terms[rest] = residual_terms.get(rest, 0j) + amp
    except OverflowError:
        raise ValueError("branch probability overflows a float") from None

    if weight == 0.0 or not residual_terms:
        return BranchResult(pattern, 0.0, None, kept)
    if not kept:
        # Whole state measured: the branch keeps its probability, nothing remains.
        return BranchResult(pattern, weight, None, kept)
    scale = 1.0 / math.sqrt(weight)
    # + 0j turns the -0.0 a product can underflow to into 0.0, as the public
    # constructor's sum does, so every stored zero is positive.
    residual = FockState._trusted(len(kept), {k: v * scale + 0j for k, v in residual_terms.items()})
    return BranchResult(pattern, weight, residual, kept)


def outcome_distribution(state: FockState, detector_modes: Sequence[int]) -> list[BranchResult]:
    """All photon-count outcomes on the listed modes, as disjoint branches.

    Only outcomes with support in the state appear; their probabilities sum
    to the state norm. Branches are ordered by count tuple, so enumeration is
    deterministic regardless of evaluation order.

    One pass groups the kets by their counts on the listed modes, keeping
    the state's ket order within each group. Each outcome is then projected
    from its own group's sub-state, which holds exactly the kets a
    projection of the whole state would keep, in the same order, so every
    sum runs in the same order and each branch is bit for bit the one
    ``project_detection(state, pattern)`` gives.
    """
    modes = [int(m) for m in detector_modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate detector modes in {modes}")
    _validate_modes(state, modes)
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for counts, (ket, amp) in zip(map(occupation_getter(modes), state.terms), state.terms.items()):
        groups.setdefault(counts, {})[ket] = amp
    return [
        project_detection(
            FockState._trusted(state.mode_count, groups[counts]),
            DetectionPattern(zip(modes, counts)),
        )
        for counts in sorted(groups)
    ]
