"""The fast inner loops against their reference implementations, bit for bit.

``reference_kernels`` holds the loops as they were before the closed-form
expansion, itemgetter projections, the leaner ``FockState`` checks and the
one-pass outcome scan. The fast paths, and the direct expansion of every
element the closed form does not cover, must agree on key order, on every
bit of every amplitude and probability, and on every exception type and
message (except past 170 photons, where the reference's sqrt(n!) raises a
bare ``OverflowError``). So must ``FockState._trusted`` and the public constructor, on
every state the package builds with the former.
"""

import ast
import itertools
import math
import struct
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
import dualrail
from dualrail import measure, optics
from dualrail.fock import FockState
from dualrail.measure import DetectionPattern
from dualrail.optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from dualrail.rails import DualRailQubit, pauli_correction

from conftest import random_unitary

S = 1.0 / math.sqrt(2.0)


def bits(terms: dict) -> list:
    """Keys in order with the exact bits of each amplitude."""
    return [(k, struct.pack("<dd", v.real, v.imag)) for k, v in terms.items()]


def assert_same_branches(fast: list, slow: list) -> None:
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.pattern == b.pattern
        assert a.kept_modes == b.kept_modes
        assert struct.pack("<d", a.probability) == struct.pack("<d", b.probability)
        assert (a.residual is None) == (b.residual is None)
        if a.residual is not None:
            assert a.residual.mode_count == b.residual.mode_count
            assert bits(a.residual.terms) == bits(b.residual.terms)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def sector(modes: int, photons: int) -> list:
    return [k for k in itertools.product(range(photons + 1), repeat=modes) if sum(k) == photons]


@st.composite
def states(draw):
    """Sparse or dense states of 1-7 modes and up to 5 photons per ket."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = draw(st.integers(1, 7))
    photons = draw(st.integers(0, 5))
    if draw(st.booleans()) and math.comb(modes + photons - 1, photons) <= 126:
        kets = sector(modes, photons)
    else:
        kets = {
            tuple(int(n) for n in rng.multinomial(int(rng.integers(0, photons + 1)), [1 / modes] * modes))
            for _ in range(draw(st.integers(1, 12)))
        }
    kind = draw(st.sampled_from(["normal", "equal", "signed-zero"]))
    if kind == "normal":
        amps = [complex(rng.normal(), rng.normal()) for _ in kets]
    elif kind == "equal":  # exact cancellations, e.g. Hong-Ou-Mandel on |1,1>
        amps = [complex(S * (-1) ** i, 0.0) for i in range(len(kets))]
    else:
        amps = [complex(-0.0, float(rng.choice([-1.0, 1.0]))) for _ in kets]
    return FockState(modes, dict(zip(kets, amps)))


@st.composite
def elements(draw, modes: int):
    """Listed modes and a unitary on them: Hadamard, random, permutation or phase."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, min(modes, 5)))
    listed = [int(m) for m in rng.permutation(modes)[:k]]
    kind = draw(st.sampled_from(["hadamard", "random", "permutation"]))
    if kind == "hadamard" and k == 2:
        return listed, hadamard_bs()
    if kind == "permutation" or k == 1:  # zero entries; k == 1 is a phase
        matrix = np.zeros((k, k), dtype=complex)
        for row, col in enumerate(rng.permutation(k)):
            matrix[row, col] = np.exp(1j * rng.uniform(0, 2 * math.pi))
        return listed, ModeUnitary(matrix)
    return listed, ModeUnitary(random_unitary(rng, k))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_apply_mode_unitary_matches_the_reference(data):
    state = data.draw(states())
    listed, u = data.draw(elements(state.mode_count))
    slow = outcome(ref.apply_mode_unitary, state, listed, u)
    fast = outcome(apply_mode_unitary, state, listed, u)
    if isinstance(slow, tuple):  # every term cancelled
        assert fast == slow
        return
    assert fast.mode_count == slow.mode_count
    assert bits(fast.terms) == bits(slow.terms)

    detectors = data.draw(st.lists(st.sampled_from(range(state.mode_count)), min_size=1, unique=True))
    assert_same_branches(
        measure.outcome_distribution(fast, detectors), ref.outcome_distribution(slow, detectors)
    )


@given(state=states(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_project_detection_matches_the_reference(state, data):
    # Arbitrary patterns, including ones that match nothing, measure every
    # mode or leave one mode behind.
    modes = data.draw(st.lists(st.sampled_from(range(state.mode_count)), min_size=1, unique=True))
    pattern = DetectionPattern({m: data.draw(st.integers(0, 3)) for m in modes})
    assert_same_branches(
        [measure.project_detection(state, pattern)], [ref.project_detection(state, pattern)]
    )


@given(state=states())
@settings(max_examples=50, deadline=None)
def test_fock_state_construction_matches_the_reference(state):
    # Duplicate kets are summed and near-cancelled ones pruned.
    pairs = list(state.terms.items())
    pairs += [(ket, -amp * (1 - 2**-52)) for ket, amp in pairs[::2]]
    pairs += [(list(ket), amp) for ket, amp in pairs[1::3]]
    slow = outcome(ref.ReferenceFockState, state.mode_count, pairs)
    fast = outcome(FockState, state.mode_count, pairs)
    if isinstance(slow, tuple):  # every term cancelled
        assert fast == slow
        return
    assert bits(fast.terms) == bits(slow.terms)


@pytest.mark.parametrize(
    "mode_count, terms",
    [
        (0, [((), 1.0)]),
        (-1, [((1,), 1.0)]),
        (2, []),
        (2, {}),
        (2, [((1,), 1.0)]),
        (2, [((1, 0, 0), 1.0)]),
        (2, [((1, -1), 1.0)]),
        (2, [((1, 0), 1.0), ((-2, 3), 1.0)]),
        (2, [((1, 0), float("nan"))]),
        (2, [((1, 0), complex(1.0, float("inf")))]),
        (2, [((1, 0), float("-inf"))]),
        (2, [((1, 0), 1.0), ((1, 0), -1.0)]),
        (2, [((1, 0), 1e-15)]),
        (2, [(("a", 0), 1.0)]),
        (2, [((None, 0), 1.0)]),
        (2, [(5, 1.0)]),
        (2, [((1, 0), "x")]),
        (2, [((1, 0), None)]),
        (2, [((1, 0),)]),
        (2, [(1, 0)]),
    ],
)
def test_invalid_fock_states_fail_like_the_reference(mode_count, terms):
    expected = outcome(ref.ReferenceFockState, mode_count, terms)
    assert isinstance(expected, tuple)
    assert outcome(FockState, mode_count, terms) == expected


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_outcome_distribution_matches_the_reference_on_many_outcomes(data):
    # Dense sectors in shuffled ket order: each detector set sees up to
    # dozens of outcomes, whose kets interleave in the state.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    modes, photons = data.draw(st.sampled_from([(3, 6), (4, 5), (5, 4), (6, 3), (5, 5)]))
    kets = sector(modes, photons)
    state = FockState(
        modes, {kets[i]: complex(rng.normal(), rng.normal()) for i in rng.permutation(len(kets))}
    )
    detectors = data.draw(st.lists(st.sampled_from(range(modes)), min_size=1, unique=True))
    assert_same_branches(
        measure.outcome_distribution(state, detectors), ref.outcome_distribution(state, detectors)
    )


@st.composite
def extreme_states(draw):
    """``states()`` as drawn or rescaled to the edges of the float range."""
    state = draw(states())
    kind = draw(st.sampled_from(["plain", "tiny", "huge", "largest", "subnormal"]))
    edge = {
        "plain": lambda v: v,
        "tiny": lambda v: v * 3e-14,  # near PRUNE_TOL: elements prune terms
        "huge": lambda v: v / abs(v) * 1e200,  # squares overflow
        "largest": lambda v: math.copysign(sys.float_info.max, v.real),  # sums overflow
        # Moduli of at least 3 keep every weight above 4, so scaling a
        # residual by 1/sqrt(weight) < 1/2 takes -5e-324 to -0.0.
        "subnormal": lambda v: complex(-5e-324, 3.0 + abs(v)),
    }[kind]
    built = outcome(FockState, state.mode_count, {k: edge(v) for k, v in state.terms.items()})
    assume(not isinstance(built, tuple))  # e.g. every term pruned
    return built


@given(state=extreme_states(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_trusted_construction_matches_the_public_constructor(state, data):
    # Every state the package builds through _trusted, rebuilt by both
    # constructors: same keys in the same order, same bits, same errors.
    trusted = FockState._trusted
    built = []

    def record(mode_count, terms):
        built.append((mode_count, dict(terms)))
        return trusted(mode_count, terms)

    listed, u = data.draw(elements(state.mode_count))
    if data.draw(st.booleans()):  # unitary to 1e-12, but takes the largest float to inf
        u = ModeUnitary(np.diag([1 + 4e-13] + [1.0] * (u.dim - 1)))
    detectors = data.draw(st.lists(st.sampled_from(range(state.mode_count)), min_size=1, unique=True))
    pattern = DetectionPattern({m: data.draw(st.integers(0, 3)) for m in detectors})
    # A qubit on modes 0 and 1 ahead of the state, so every ket is dual-rail there.
    qubit = FockState(2, {(0, 1): data.draw(st.sampled_from([S, 1.0, 1e200])), (1, 0): -S})
    register = outcome(ref.tensor, qubit, state)
    with mock.patch.object(FockState, "_trusted", record):
        outcome(apply_mode_unitary, state, listed, u)
        outcome(measure.project_detection, state, pattern)
        outcome(measure.outcome_distribution, state, detectors)
        if not isinstance(register, tuple):
            for which in "XYZ":
                outcome(pauli_correction, register, DualRailQubit(0, 1), which)
    for mode_count, terms in built:
        fast = outcome(trusted, mode_count, dict(terms))
        slow = outcome(FockState, mode_count, terms)
        if isinstance(slow, tuple):
            assert fast == slow
        else:
            assert type(fast) is FockState and fast.mode_count == slow.mode_count
            assert bits(fast.terms) == bits(slow.terms)


def test_an_overflowing_splitter_output_is_still_rejected():
    # The slightly non-unitary entry takes the largest float to inf; a
    # fast path that only pruned would keep the inf as an amplitude. The
    # diagonal matrix is expanded directly, the full one in closed form.
    state = FockState(2, {(1, 0): sys.float_info.max})
    for matrix in ([[1 + 4e-13, 0], [0, 1]], [[1 + 4e-13, 1e-7], [-1e-7, 1 + 4e-13]]):
        with pytest.raises(ValueError) as info:
            apply_mode_unitary(state, [0, 1], ModeUnitary(matrix))
        assert str(info.value) == "non-finite amplitude (inf+nanj) for ket (1, 0)"


@pytest.mark.parametrize("photons", range(9))
def test_two_mode_closed_form_matches_the_reference_on_every_occupation(photons):
    # Every local occupation up to 8 photons, with a spectator mode, so each
    # sqrt(a! b!) and each monomial scale of the closed form is exercised.
    rng = np.random.default_rng(photons)
    kets = sector(3, photons)
    state = FockState(3, {k: complex(rng.normal(), rng.normal()) for k in kets})
    for u in (hadamard_bs(), ModeUnitary(random_unitary(rng, 2))):
        for listed in ([0, 1], [2, 0]):
            fast = apply_mode_unitary(state, listed, u)
            assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)


@pytest.mark.parametrize("photons", range(7))
def test_direct_expansion_matches_the_reference_on_every_occupation(photons):
    # Every local occupation up to 6 photons of a 3-mode sector, through each
    # kind of element the closed form leaves out, so each sqrt(prod n!) and
    # each monomial scale of the direct expansion is exercised.
    rng = np.random.default_rng(photons)
    kets = sector(3, photons)
    state = FockState(3, {k: complex(rng.normal(), rng.normal()) for k in kets})
    for listed, u in [
        ([2, 0], ModeUnitary([[0, 1j], [-1, 0]])),
        ([1], ModeUnitary([[1j]])),
        ([2, 0, 1], ModeUnitary(random_unitary(rng, 3))),
    ]:
        fast = apply_mode_unitary(state, listed, u)
        assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)


def test_only_elements_outside_the_closed_form_expand_directly():
    state = FockState(3, {(2, 1, 0): 0.6, (1, 1, 1): 0.8j})
    rng = np.random.default_rng(2)
    closed_form = [([0, 1], hadamard_bs()), ([0, 1], ModeUnitary(random_unitary(rng, 2)))]
    direct = [
        ([0, 1], ModeUnitary([[0, 1j], [-1, 0]])),
        ([0, 1], ModeUnitary([[1, 0], [0, -1]])),
        ([2], ModeUnitary([[1j]])),
        ([0, 1, 2], ModeUnitary(random_unitary(rng, 3))),
    ]
    for (listed, u), expands in [(e, False) for e in closed_form] + [(e, True) for e in direct]:
        with mock.patch.object(optics, "_expand_direct", wraps=optics._expand_direct) as spy:
            apply_mode_unitary(state, listed, u)
        assert spy.called is expands


def test_detection_memos_are_bounded_and_do_not_keep_errors():
    assert measure._pattern.cache_info().maxsize == 256
    assert measure._projection.cache_info().maxsize == 256
    state = FockState(2, {(1, 0): 1.0})
    for call, args, message in [
        (measure.project_detection, (state, DetectionPattern({5: 1})), "mode 5 out of range for 2 modes"),
        (measure._pattern, ((0, 0), (1, 1)), "duplicate modes in detection pattern ((0, 1), (0, 1))"),
    ]:
        assert outcome(call, *args) == outcome(call, *args) == (ValueError, message)


def test_element_and_outcome_memos_are_bounded_and_do_not_keep_errors():
    assert optics._layout.cache_info().maxsize == 256
    assert optics._pair_plan.cache_info().maxsize == 256
    assert measure._detectors.cache_info().maxsize == 256
    state = FockState(2, {(1, 0): 1.0})
    for call, args, message in [
        (apply_mode_unitary, (state, [0, 5], hadamard_bs()), "mode 5 out of range for 2 modes"),
        (apply_mode_unitary, (state, [1, 1], hadamard_bs()), "duplicate modes in [1, 1]"),
        (apply_mode_unitary, (state, [0], hadamard_bs()), "unitary is 2-mode but 1 modes were listed"),
        (measure.outcome_distribution, (state, [5]), "mode 5 out of range for 2 modes"),
        (measure.outcome_distribution, (state, [1, 1]), "duplicate modes in [1, 1]"),
    ]:
        assert outcome(call, *args) == outcome(call, *args) == (ValueError, message)


def test_a_reversed_listing_after_a_cached_one_matches_the_reference():
    # The element memo is keyed on the listing in order: [1, 0] must not
    # reuse the layout of [0, 1], for splitters and for outcome enumeration.
    rng = np.random.default_rng(10)
    state = FockState(3, {k: complex(rng.normal(), rng.normal()) for k in sector(3, 3)})
    for u in [hadamard_bs(), ModeUnitary(random_unitary(rng, 2)), ModeUnitary([[0, 1j], [-1, 0]])]:
        for listed in ([0, 1], [1, 0]):
            fast = apply_mode_unitary(state, listed, u)
            assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)
    for listed in ([0, 2], [2, 0]):
        assert_same_branches(
            measure.outcome_distribution(state, listed), ref.outcome_distribution(state, listed)
        )


def test_mode_unitary_keeps_a_read_only_copy_of_its_matrix():
    given_matrix = np.array(hadamard_bs().matrix)
    u = ModeUnitary(given_matrix)
    with pytest.raises(ValueError, match="read-only"):
        u.matrix[0, 0] = 1.0
    assert given_matrix.flags.writeable
    given_matrix[0, 0] = 1.0  # the caller's array is its own
    assert u.matrix[0, 0] == S and u.matrix is not given_matrix
    state = FockState(2, {(1, 1): 1.0})
    assert bits(apply_mode_unitary(state, [0, 1], u).terms) == bits(
        apply_mode_unitary(state, [0, 1], hadamard_bs()).terms
    )


# Where FockState._trusted may be called: each builds a state from another
# valid state, never from .loc text, argv or a library caller's terms.
TRUSTED_CALLERS = {
    ("optics", "apply_mode_unitary"),
    ("measure", "project_detection"),
    ("measure", "outcome_distribution"),
    ("rails", "pauli_correction"),
}


def trusted_references() -> set:
    """(module, enclosing function) of each name or attribute ``_trusted`` in ``src``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if "_trusted" in (getattr(node, "attr", None), getattr(node, "id", None)):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in Path(dualrail.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_trusted_construction_is_reached_only_from_internal_states():
    assert trusted_references() == TRUSTED_CALLERS


def test_expansion_programs_do_not_outlive_their_kets():
    # A dense 6-mode unitary gives every ket a local occupation of its own
    # and hundreds of monomials; keeping any per-ket expansion until the call
    # returns would show as a peak many times the reference's.
    rng = np.random.default_rng(6)
    kets = sector(6, 4)
    state = FockState(6, {k: complex(rng.normal(), rng.normal()) for k in kets})
    u = ModeUnitary(random_unitary(rng, 6))

    def peak(apply) -> int:
        apply(state, range(6), u)  # warm-up: lazy imports, interned objects
        tracemalloc.start()
        try:
            apply(state, range(6), u)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(apply_mode_unitary) <= 2 * peak(ref.apply_mode_unitary)
