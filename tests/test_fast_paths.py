"""The fast inner loops against their reference implementations, bit for bit.

``reference_kernels`` holds the loops as they were before the closed-form
expansion, itemgetter projections, the leaner ``FockState`` checks, the
one-pass outcome scan, compiled predicates and trusted injection. The fast paths, and the direct expansion of every
element the closed form does not cover, must agree on key order, on every
bit of every amplitude and probability, and on every exception type and
message (except past 170 photons, where the reference's sqrt(n!) raises a
bare ``OverflowError``). So must ``FockState._trusted`` and the public constructor, on
every state the package builds with the former, and the dual-rail layer
built on ``rails.RAIL_KETS`` and ``fock.layout`` and the one it replaced.
"""

import ast
import cmath
import itertools
import math
import struct
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
import dualrail
from dualrail import circuits, fock, measure, optics, protocols, rails
from dualrail.circuits import PrepareBell, PrepareDualRail, PrepareKet
from dualrail.fock import FockState
from dualrail.optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from dualrail.rails import BELL_KINDS, DualRailQubit, LogicalAmplitudes, pauli_correction

from conftest import random_qubit, random_unitary

S = 1.0 / math.sqrt(2.0)


def bits(terms: dict) -> list:
    """Keys in order with the exact bits of each amplitude."""
    return [(k, struct.pack("<dd", v.real, v.imag)) for k, v in terms.items()]


def assert_same_branches(fast: list, slow: list) -> None:
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.counts == b.counts
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
    # Arbitrary counts, including ones that match nothing, measure every
    # mode or leave one mode behind.
    modes = data.draw(st.lists(st.sampled_from(range(state.mode_count)), min_size=1, unique=True))
    counts = [data.draw(st.integers(0, 3)) for _ in modes]
    assert_same_branches(
        [measure.project_detection(state, modes, counts)], [ref.project_detection(state, modes, counts)]
    )


@given(state=states())
@example(state=FockState(2, {(0, 1): 1.0, (1, 0): 1e308}))  # (1, 0) is listed twice: 1e308 + 1e308
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
    counts = [data.draw(st.integers(0, 3)) for _ in detectors]
    # A qubit on modes 0 and 1 ahead of the state, so every ket is dual-rail there.
    qubit = FockState(2, {(0, 1): data.draw(st.sampled_from([S, 1.0, 1e200])), (1, 0): -S})
    register = outcome(ref.tensor, qubit, state)
    with mock.patch.object(FockState, "_trusted", record):
        outcome(apply_mode_unitary, state, listed, u)
        outcome(measure.project_detection, state, detectors, counts)
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
    assert fock._layout.cache_info().maxsize == 256
    state = FockState(2, {(1, 0): 1.0})
    project = measure.project_detection
    for call, args, message in [
        (project, (state, [0], [1, 0]), "2 photon counts given for 1 detector modes"),
        (project, (state, [0, 1], [1, -1]), "negative photon count in (1, -1)"),
        (project, (state, [], []), "detection needs at least one mode"),
        (project, (state, [1, 1], [0, 0]), "duplicate modes in [1, 1]"),
        (project, (state, [5], [1]), "mode 5 out of range for 2 modes"),
        (measure.outcome_distribution, (state, []), "detection needs at least one mode"),
    ]:
        assert outcome(call, *args) == outcome(call, *args) == (ValueError, message)


def test_element_and_outcome_memos_are_bounded_and_do_not_keep_errors():
    assert optics._pair_plan.cache_info().maxsize == 256
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


OUTCOME_NAMES = ("a", "b", "c")


@given(
    predicate=st.lists(
        st.lists(
            st.tuples(st.sampled_from(OUTCOME_NAMES), st.integers(0, 2)), min_size=1, max_size=3
        ).map(tuple),
        max_size=3,
    ).map(tuple),
    counts=st.fixed_dictionaries({name: st.integers(0, 2) for name in OUTCOME_NAMES}),
)
@example(predicate=((("a", 1), ("b", 0)),), counts={"a": 1, "b": 1, "c": 0})  # the second name decides
@example(predicate=(), counts={"a": 0, "b": 0, "c": 0})  # no clause holds
@settings(max_examples=300, deadline=None)
def test_compiled_predicate_matches_the_reference(predicate, counts):
    # Clauses of 1-3 names, a name repeated within a clause included; the
    # rule pass rejects an empty clause before a predicate is compiled.
    assert circuits._matcher(predicate)(counts) is ref.predicate_holds(predicate, counts)


def assert_same_injection(state: FockState, element) -> None:
    """``element`` injected into ``state``: keys, order, bits and errors as the reference's.

    Every amplitude must also be a Python complex, as the public constructor
    makes it: a numpy scalar would render differently.
    """
    ir = circuits.CircuitIR(state.mode_count, None, (element,))

    def run(preparation, inject):
        modes, factor = preparation(ir, element)
        return inject(state, list(modes), factor)

    slow = outcome(run, ref.preparation, ref.inject)
    fast = outcome(run, circuits._preparation, circuits._inject)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert fast.mode_count == slow.mode_count
    assert bits(fast.terms) == bits(slow.terms)
    assert {type(v) for v in fast.terms.values()} == {complex}


@st.composite
def injections(draw):
    """A preparation and a state whose modes it writes are vacuum.

    Dual-rail amplitudes come as complex, int, float or numpy.complex128
    numbers, or with one of them 0; kets as hand-built terms that may be
    duplicated, cancelling, negative or non-integral.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dualrail", "bell", "ket"]))
    if kind == "ket":
        mode_count = draw(st.integers(1, 4))
        terms = [
            (tuple(int(n) for n in rng.integers(0, 3, mode_count)), complex(rng.normal(), rng.normal()))
            for _ in range(draw(st.integers(1, 4)))
        ]
        for fault in draw(st.lists(st.sampled_from(["duplicated", "cancelling", "negative", "non-integral"]))):
            i = int(rng.integers(len(terms)))
            ket, amp = terms[i]
            if fault == "duplicated":
                terms.append((ket, complex(rng.normal(), rng.normal())))
            elif fault == "cancelling":
                terms.append((ket, -amp))
            else:
                bad = list(ket)
                bad[int(rng.integers(mode_count))] = -1 if fault == "negative" else 1.5
                terms[i] = (tuple(bad), amp)
        convert = draw(st.sampled_from([complex, np.complex128, lambda a: int(a.real)]))
        return FockState.vacuum(mode_count), PrepareKet(tuple((ket, convert(amp)) for ket, amp in terms))

    spectators = draw(states())
    width = 2 if kind == "dualrail" else 4
    mode_count = spectators.mode_count + width
    modes = tuple(int(m) for m in rng.permutation(mode_count)[:width])
    rest = fock.layout(mode_count, modes).rest
    widened = {}
    for ket, amp in spectators.terms.items():
        full = [0] * mode_count
        for m, n in zip(rest, ket):
            full[m] = n
        widened[tuple(full)] = amp
    state = FockState(mode_count, widened)
    if kind == "bell":
        return state, PrepareBell(draw(st.sampled_from(BELL_KINDS)), modes)

    theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
    a0, a1 = complex(math.cos(theta / 2)), cmath.exp(1j * phi) * math.sin(theta / 2)
    a0, a1 = draw(
        st.sampled_from(
            [
                (a0, a1),
                (np.complex128(a0), np.complex128(a1)),
                (1, 0),
                (0, -1),
                (S, -S),
                (0, cmath.exp(1j * phi)),
                (cmath.exp(1j * phi), 0),
            ]
        )
    )
    return state, PrepareDualRail(a0, a1, *modes)


@given(case=injections())
@settings(max_examples=300, deadline=None)
def test_trusted_injection_matches_the_reference(case):
    assert_same_injection(*case)


@pytest.mark.parametrize(
    "state, element",
    [
        (
            FockState(3, {(1, 0, 0): S, (0, 0, 0): S}),
            PrepareDualRail(np.complex128(0.6), np.complex128(0.8j), 1, 2),
        ),
        (FockState(3, {(1, 0, 0): 1j}), PrepareDualRail(-1, 0, 2, 1)),  # 1j * (-1+0j) has real part -0.0
        (FockState.vacuum(2), PrepareKet((((1, 0), 0.6), ((0, 1), 0.8), ((1, 0), -0.2)))),
        (FockState.vacuum(2), PrepareKet((((1, 0), 0.6), ((0, 1), 0.8), ((1, 0), -0.6), ((0, 1), -0.8)))),
        (FockState.vacuum(2), PrepareKet((((1, 0), 0.6), ((-1, 2), 0.8)))),
        (FockState.vacuum(2), PrepareKet((((1, 0), 0.6), ((1.5, 0), 0.8)))),
    ],
    ids=["numpy-amplitudes", "signed-zero", "duplicated", "cancelling", "negative", "non-integral"],
)
def test_trusted_injection_matches_the_reference_on_each_kind_of_input(state, element):
    assert_same_injection(state, element)


# Modes as listed by a caller: in range or not, and integral or not.
MODES = st.one_of(st.integers(-1, 6), st.sampled_from([1.0, 2.5, np.int64(3)]))


@st.composite
def rail_pairs(draw):
    rail1 = draw(MODES)
    return DualRailQubit(rail1, draw(MODES.filter(lambda m: m != rail1)))


@given(
    kind=st.sampled_from(BELL_KINDS),
    pair_a=rail_pairs(),
    pair_b=rail_pairs(),
    total_modes=st.sampled_from([4, 5, 7, 4.0, 3, 0]),
)
@example(kind="psi-", pair_a=DualRailQubit(3, 0), pair_b=DualRailQubit(1, 4), total_modes=5)
@example(kind="phi+", pair_a=DualRailQubit(0, 1), pair_b=DualRailQubit(1, 2), total_modes=4)
@example(kind="phi-", pair_a=DualRailQubit(0, 1), pair_b=DualRailQubit(2, 5), total_modes=4)
@example(kind="psi+", pair_a=DualRailQubit(0, 1.0), pair_b=DualRailQubit(2, 3), total_modes=4)
@example(kind="phi+", pair_a=DualRailQubit(0, 1), pair_b=DualRailQubit(2, 3), total_modes=4.0)
@settings(max_examples=200, deadline=None)
def test_bell_state_matches_the_reference(kind, pair_a, pair_b, total_modes):
    fast = outcome(rails.bell_state, kind, pair_a, pair_b, total_modes)
    slow = outcome(ref.bell_state, kind, pair_a, pair_b, total_modes)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert fast.mode_count == slow.mode_count
    assert bits(fast.terms) == bits(slow.terms)


# Counts on a pair: logical 0 and 1, or a leak of no, two or a doubled photon.
PAIR_COUNTS = st.sampled_from([(0, 1), (1, 0), (0, 1), (1, 0), (0, 0), (1, 1), (2, 0)])


@st.composite
def registers(draw):
    """A state and 0-3 pairs on it, whose kets may leak on a pair or off the pairs.

    Amplitudes are plain, small enough to leak below ``LEAK_TOL`` or large
    enough to overflow when squared.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pairs = draw(st.integers(0, 3))
    mode_count = 2 * n_pairs + draw(st.integers(0 if n_pairs else 1, 2))
    modes = [int(m) for m in rng.permutation(mode_count)]
    pairs = [DualRailQubit(modes[2 * i], modes[2 * i + 1]) for i in range(n_pairs)]
    scale = draw(st.sampled_from([1.0, 1.0, 1e-6, 1e200]))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        ket = [0] * mode_count
        for pair in pairs:
            ket[pair.rail1], ket[pair.rail0] = draw(PAIR_COUNTS)
        for m in modes[2 * n_pairs :]:
            ket[m] = draw(st.sampled_from([0, 0, 0, 1]))
        terms[tuple(ket)] = complex(rng.normal(), rng.normal()) * draw(st.sampled_from([1.0, scale]))
    return FockState(mode_count, terms), pairs


@given(case=registers())
@example(case=(FockState(2, {(0, 1): S, (1, 0): -S}), [DualRailQubit(0, 1)]))
@example(case=(FockState(2, {(0, 1): S, (0, 0): S}), [DualRailQubit(0, 1)]))
@example(case=(FockState(2, {(0, 1): S, (1, 1): S}), [DualRailQubit(1, 0)]))
@example(case=(FockState(3, {(2, 0, 0): S, (0, 1, 1): S}), [DualRailQubit(0, 1)]))
@example(case=(FockState(1, {(1,): 1.0}), []))
@settings(max_examples=300, deadline=None)
def test_decode_register_matches_the_reference(case):
    state, pairs = case
    fast = outcome(rails.decode_register, state, pairs)
    slow = outcome(ref.decode_register, state, pairs)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert fast.dtype == slow.dtype and fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_gate_outputs_match_the_reference(seed):
    # Each gate and policy on random inputs, and the destructive gate on an
    # input whose reference vanishes, so that it accepts nothing.
    rng = np.random.default_rng(seed)
    policy = protocols.POLICIES[seed % 2]
    minus = LogicalAmplitudes(S, -S)
    cases = [
        lambda: protocols.run_destructive_csign(random_qubit(rng), random_qubit(rng), policy),
        lambda: protocols.run_destructive_csign(minus, LogicalAmplitudes.zero(), policy),
        lambda: protocols.run_quantum_encoder(random_qubit(rng), 2 + seed, policy),
        lambda: protocols.run_nondestructive_csign(random_qubit(rng), random_qubit(rng), policy),
    ]
    run_gate, run_checked = protocols._run_gate, protocols._run_checked
    for case in cases:
        calls, programs = [], []

        def record(ir, pairs, reference):
            calls.append((pairs, reference))
            return run_gate(ir, pairs, reference)

        def record_program(ir):
            programs.append(ir)
            return run_checked(ir)

        with mock.patch.object(protocols, "_run_gate", record):
            with mock.patch.object(protocols, "_run_checked", record_program):
                fast = case()
        (pairs, reference), = calls
        (ir,) = programs
        result = circuits.run_branches(ir)
        decoded = [ref.decode_register(b.residual, pairs) for b in result.branches if b.accepted]
        out, fidelity = ref.collect_output(decoded, reference)
        assert (fast.output_logical is None) == (out is None)
        if out is not None:
            assert fast.output_logical.tobytes() == out.tobytes()
        assert repr(fast.fidelity_vs_reference) == repr(fidelity)  # repr keeps every bit of a float


# Where FockState._trusted may be called: each builds a state from another
# valid state, never from .loc text, argv or a library caller's terms.
TRUSTED_CALLERS = {
    ("circuits", "_inject"),
    ("optics", "apply_mode_unitary"),
    ("measure", "project_detection"),
    ("measure", "outcome_distribution"),
    ("rails", "pauli_correction"),
}


# Where the engine's run step after the rule pass may be called: the public
# entry, which runs the pass first, and the gates, whose programs took it once
# per shape and whose inputs are checked on entry.
RUN_CHECKED_CALLERS = {
    ("circuits", "run_branches"),
    ("protocols", "_run_gate"),
}


def references(name: str) -> set:
    """(module, enclosing function) of each name or attribute ``name`` in ``src``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if name in (getattr(node, "attr", None), getattr(node, "id", None)):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in Path(dualrail.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_trusted_construction_is_reached_only_from_internal_states():
    assert references("_trusted") == TRUSTED_CALLERS


def test_the_run_step_after_the_rule_pass_is_reached_only_from_checked_programs():
    assert references("_run_checked") == RUN_CHECKED_CALLERS


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
