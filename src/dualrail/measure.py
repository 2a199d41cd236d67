"""Photon-counting detection and projective post-selection.

Detectors are ideal and destructive: measured modes are consumed and removed
from the residual state, which keeps downstream mode indices dense. Each
branch carries the original indices of the surviving modes so labels stay
traceable.

A detection is given as its modes and their photon counts, both in listed
order. Where the listed and the kept modes sit in a ket comes from
``fock.layout``; the counts are checked on every call. Every outcome is
projected through ``project_detection``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .fock import FockState, as_ints, layout


@dataclass
class BranchResult:
    """One post-selection outcome.

    ``counts`` are the detected photon counts, in the order the modes were
    listed. ``residual`` is the normalized state on the surviving modes, or
    None for an explicit zero-probability branch. ``kept_modes`` maps
    residual mode positions back to the indices they had before detection.
    """

    counts: tuple[int, ...]
    probability: float
    residual: FockState | None
    kept_modes: tuple[int, ...]


def project_detection(state: FockState, modes: Sequence[int], counts: Sequence[int]) -> BranchResult:
    """Project onto ``counts`` photons on the listed ``modes``; consume those modes.

    The branch probability is the kept weight; the residual is renormalized.
    Counts matching nothing yield an explicit empty branch (probability 0,
    residual None) so acceptance policies can be total over outcomes.
    """
    modes, counts_of, kept, rest_of, _ = layout(state.mode_count, modes)
    if not modes:
        raise ValueError("detection needs at least one mode")
    counts = as_ints(counts, "photon counts")
    if len(counts) != len(modes):
        raise ValueError(f"{len(counts)} photon counts given for {len(modes)} detector modes")
    if min(counts) < 0:
        raise ValueError(f"negative photon count in {counts}")
    matched = {}  # kets of one count pattern differ in their rest: one entry each
    weight = 0.0
    try:
        for ket, amp in state.terms.items():
            if counts_of(ket) == counts:
                weight += abs(amp) ** 2
                matched[rest_of(ket)] = amp
    except OverflowError:
        raise ValueError("branch probability overflows a float") from None

    if weight == 0.0 or not kept:
        # No ket matched, or the whole state was measured: nothing remains.
        return BranchResult(counts, weight, None, kept)
    scale = 1.0 / math.sqrt(weight)
    # + 0j turns the -0.0 a product can underflow to into 0.0, as the public
    # constructor's sum does, so every stored zero is positive.
    residual = FockState._trusted(len(kept), {rest: amp * scale + 0j for rest, amp in matched.items()})
    return BranchResult(counts, weight, residual, kept)


def outcome_distribution(state: FockState, detector_modes: Sequence[int]) -> list[BranchResult]:
    """All photon-count outcomes on the listed modes, as disjoint branches.

    Only outcomes with support in the state appear; their probabilities sum
    to the state norm. Branches are ordered by their counts in listed order,
    so enumeration is deterministic regardless of evaluation order.

    One pass groups the kets by their counts on the listed modes, keeping
    the state's ket order within each group. Each outcome is then projected
    from its group as a ``FockState._subset``, unchecked: the valid state's
    kets a projection of the whole state would keep, in the same order. So
    every sum runs in the same order, and each branch is bit for bit the one
    ``project_detection(state, modes, counts)`` gives, or the error it raises.
    """
    modes, counts_of, _, _, _ = layout(state.mode_count, detector_modes)
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for counts, (ket, amp) in zip(map(counts_of, state.terms), state.terms.items()):
        groups.setdefault(counts, {})[ket] = amp
    return [
        project_detection(FockState._subset(state.mode_count, groups[counts]), modes, counts)
        for counts in sorted(groups)
    ]
