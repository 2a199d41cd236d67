"""The fast inner loops against their reference implementations, bit for bit.

``reference_kernels`` holds the loops as they were before the closed-form
expansion, itemgetter projections, the leaner ``FockState`` checks, the
one-pass outcome scan, compiled predicates and trusted injection. The fast paths, and the direct expansion of every
element the closed form does not cover, must agree on key order, on every
bit of every amplitude and probability, and on every exception type and
message (except past 170 photons, where the reference's sqrt(n!) raises a
bare ``OverflowError``). So must ``FockState._trusted`` and the public constructor, on
every state the package builds with the former, and the dual-rail layer
built on ``rails.RAIL_KETS`` and ``fock.layout`` and the one it replaced, the
Pauli correction read from ``rails.PAULIS`` and its four-arm original (or, on a
refused state, the error and its leakage weight), and the planned circuit
engine and the inline one, on random programs and on every gate's kept plan
run with its inputs' factors.
"""

import ast
import cmath
import contextlib
import itertools
import math
import struct
import sys
import tracemalloc
import typing
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
from test_circuits import branch_bits, random_program
from test_protocols import GATES, bound_program, qubits
from test_rails import TOLERATED_LEAK

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


def sparse_unitary(rng: np.random.Generator, k: int) -> ModeUnitary:
    """A random k-mode unitary whose row 0 is zero past its first two entries: k - 2 zero
    entries, so it expands directly, not by a dense kernel."""
    a = np.eye(k, dtype=complex)
    a[1:, 1:] = random_unitary(rng, k - 1)
    b = np.eye(k, dtype=complex)
    b[:2, :2] = random_unitary(rng, 2)
    return ModeUnitary(a @ b)


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
        (2, [((1, 0),)]),
        (2, [(1, 0)]),
    ],
)
def test_invalid_fock_states_fail_like_the_reference(mode_count, terms):
    expected = outcome(ref.ReferenceFockState, mode_count, terms)
    assert isinstance(expected, tuple)
    assert outcome(FockState, mode_count, terms) == expected


@pytest.mark.parametrize("amp", ["x", None])
def test_an_amplitude_that_is_not_a_number_is_the_readers_error(amp):
    # The reference reads amplitudes with complex(), which raises a ValueError
    # for "x" and a TypeError for None; the constructor reads them with
    # fock.as_amplitude, which gives one ValueError for both.
    assert isinstance(outcome(ref.ReferenceFockState, 2, [((1, 0), amp)]), tuple)
    assert outcome(FockState, 2, [((1, 0), amp)]) == (ValueError, f"expected a number as amplitude, got {amp!r}")


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


@pytest.mark.parametrize("photons", range(optics.KERNEL_PHOTONS + 2))
def test_two_mode_closed_form_matches_the_reference_on_every_occupation(photons):
    # Every local occupation up to one photon past the generated kernels' cap,
    # with a spectator mode, so each sqrt(a! b!), each monomial scale and each
    # generated kernel of the closed form is exercised, and the direct loop past it.
    rng = np.random.default_rng(photons)
    kets = sector(3, photons)
    state = FockState(3, {k: complex(rng.normal(), rng.normal()) for k in kets})
    for u in (hadamard_bs(), ModeUnitary(random_unitary(rng, 2))):
        for listed in ([0, 1], [2, 0]):
            fast = apply_mode_unitary(state, listed, u)
            assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)
    kernels = [optics._pair_plan((a, photons - a))[1] for a in range(photons + 1)]
    direct = [kernel is None for kernel in kernels]
    assert direct == [photons > optics.KERNEL_PHOTONS] * (photons + 1)


def test_a_pair_of_max_photons_expands_through_the_loop_and_compiles_nothing():
    # A generated kernel's text grows as the square of its photons: compiling
    # one for 64 peaks at 8.6 MB, where the direct loop's whole expansion
    # peaks near 0.1 MB. The bits are the reference's.
    local = (40, circuits.MAX_PHOTONS - 40)
    state = FockState(3, {(*local, 0): 0.6, (1, 1, 1): 0.8j})
    u = ModeUnitary(random_unitary(np.random.default_rng(64), 2))
    optics._pair_plan.cache_clear()
    tracemalloc.start()
    try:
        fast = apply_mode_unitary(state, [0, 1], u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert optics._pair_plan(local) == (None, None)
    assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, [0, 1], u).terms)


@pytest.mark.parametrize("modes, photons", [(10, 4), (8, 6)])
def test_closed_form_matches_the_reference_on_a_dense_sector(modes, photons):
    # Every ket of the sector: 46 % (10 modes) and 27 % (8 modes) have no
    # photon on a listed pair and pass through; the rest grow over up to six
    # creation operators.
    rng = np.random.default_rng(modes * 10 + photons)
    kets = [
        tuple(map(picked.count, range(modes)))
        for picked in itertools.combinations_with_replacement(range(modes), photons)
    ]
    state = FockState(modes, {k: complex(rng.normal(), rng.normal()) for k in kets})
    for u in (hadamard_bs(), ModeUnitary(random_unitary(rng, 2))):
        for listed in ([0, 1], [3, modes - 1], [modes - 2, 2]):
            fast = apply_mode_unitary(state, listed, u)
            assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)


@st.composite
def paired_states(draw):
    """A sparse state on 2-12 modes, a pair of them, adjacent or the farthest apart, listed in
    either order, and a splitter: its kets hold up to ``top`` photons on the pair, one of them
    exactly ``top``, 0 to one past ``KERNEL_PHOTONS``, and up to two on every other mode."""
    modes = draw(st.integers(2, 12))
    first = draw(st.integers(0, modes - 2))
    listed = draw(st.permutations([first, draw(st.sampled_from([first + 1, modes - 1]))]))
    top = draw(st.integers(0, optics.KERNEL_PHOTONS + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = {}
    for i in range(draw(st.integers(1, 12))):
        ket = [int(n) for n in rng.integers(0, 3, size=modes)]
        on_pair = top if i == 0 else int(rng.integers(0, top + 1))
        ket[listed[0]] = int(rng.integers(0, on_pair + 1))
        ket[listed[1]] = on_pair - ket[listed[0]]
        kets[tuple(ket)] = complex(rng.normal(), rng.normal())
    u = hadamard_bs() if draw(st.booleans()) else ModeUnitary(random_unitary(rng, 2))
    return FockState(modes, kets), listed, u


@given(case=paired_states())
@settings(max_examples=100, deadline=1000)
def test_positional_writes_match_the_reference(case):
    # The pair kernels write each output onto a list of its ket at the listed
    # positions; a ket past KERNEL_PHOTONS sends the whole state to the loop.
    state, listed, u = case
    modes, local_of, *_ = fock.layout(state.mode_count, listed)
    out = optics._expand_pairs(state.terms, map(local_of, state.terms), u._columns, modes)
    slow = ref.apply_mode_unitary(state, listed, u)
    assert (out is None) == (max(map(sum, map(local_of, state.terms))) > optics.KERNEL_PHOTONS)
    if out is not None:
        assert bits(FockState._trusted(state.mode_count, out).terms) == bits(slow.terms)
    assert bits(apply_mode_unitary(state, listed, u).terms) == bits(slow.terms)


@pytest.mark.parametrize("photons", range(7))
def test_direct_expansion_matches_the_reference_on_every_occupation(photons):
    # Every local occupation up to 6 photons of a 3-mode sector, through each
    # kind of element the closed form leaves out, so each sqrt(prod n!) and
    # each monomial scale of the direct expansion is exercised (the dense
    # 3-mode unitary runs a dense kernel, the sparse one the direct loop).
    rng = np.random.default_rng(photons)
    kets = sector(3, photons)
    state = FockState(3, {k: complex(rng.normal(), rng.normal()) for k in kets})
    for listed, u in [
        ([2, 0], ModeUnitary([[0, 1j], [-1, 0]])),
        ([1], ModeUnitary([[1j]])),
        ([2, 0, 1], ModeUnitary(random_unitary(rng, 3))),
        ([1, 2, 0], sparse_unitary(rng, 3)),
    ]:
        fast = apply_mode_unitary(state, listed, u)
        assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)


@pytest.mark.parametrize(
    "terms, listed",
    [
        ({(0, 1, 0, 0): 0.6, (0, 0, 0, 1): 0.8j}, [1, 3, 0]),
        ({(0, 2, 0, 0): 0.6, (0, 0, 0, 1): 0.8j}, [1, 3, 0]),
        ({(0, 5, 0, 0): 0.6, (0, 0, 0, 1): 0.8j}, [1, 3, 0]),
        ({(2, 1, 0, 0): 1.0}, [0, 1, 2]),
    ],
    ids=["one-photon-on-one-mode", "two-on-one-mode", "five-on-one-mode", "asymmetric"],
)
def test_direct_expansion_puts_each_photon_on_its_listed_mode(terms, listed):
    # Every photon of a ket on one listed mode, or an asymmetric ket: a step
    # written at the wrong position of an occupation tuple, or an output
    # tuple read in the wrong order, puts photons on the wrong modes.
    state = FockState(4, terms)
    rng = np.random.default_rng(3)
    for u in (ModeUnitary(random_unitary(rng, 3)), sparse_unitary(rng, 3)):
        fast = apply_mode_unitary(state, listed, u)
        assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)


def test_only_elements_outside_the_closed_form_expand_directly():
    # A unitary with no zero entry takes the closed form on 2 modes and the
    # dense kernels on 3 or more; every other element, the direct loop.
    state = FockState(3, {(2, 1, 0): 0.6, (1, 1, 1): 0.8j})
    rng = np.random.default_rng(2)
    paths = [
        ("_expand_pairs", [0, 1], hadamard_bs()),
        ("_expand_pairs", [0, 1], ModeUnitary(random_unitary(rng, 2))),
        ("_expand_dense", [0, 1, 2], ModeUnitary(random_unitary(rng, 3))),
        ("_expand_direct", [0, 1], ModeUnitary([[0, 1j], [-1, 0]])),
        ("_expand_direct", [0, 1], ModeUnitary([[1, 0], [0, -1]])),
        ("_expand_direct", [2], ModeUnitary([[1j]])),
        ("_expand_direct", [0, 1, 2], sparse_unitary(rng, 3)),
    ]
    names = ("_expand_pairs", "_expand_dense", "_expand_direct")
    for path, listed, u in paths:
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(optics, n, wraps=getattr(optics, n))) for n in names]
            apply_mode_unitary(state, listed, u)
        assert [n for n, spy in zip(names, spies) if spy.called] == [path]


@pytest.mark.parametrize("k", range(3, 7))
def test_dense_kernels_match_the_reference_on_mixed_photon_totals(k):
    # Listings of every mode (one rest, every total its own group) and of k
    # modes out of k + 2 (many rests), kets of up to 4 and 3 photons in a
    # shuffled order: each group sums in ket order and its keys come out in
    # the direct loop's order of first appearance.
    rng = np.random.default_rng(k)
    for modes, photons in ((k, 4), (k + 2, 3)):
        kets = [ket for n in range(photons + 1) for ket in sector(modes, n)]
        rng.shuffle(kets)
        state = FockState(modes, {ket: complex(rng.normal(), rng.normal()) for ket in kets})
        u = ModeUnitary(random_unitary(rng, k))
        for listed in (list(range(k)), [int(m) for m in rng.permutation(modes)[:k]]):
            fast = apply_mode_unitary(state, listed, u)
            assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, listed, u).terms)


@pytest.mark.parametrize("k, photons", [(3, 10), (3, 11), (7, 4), (7, 5), (8, 4)])
def test_dense_kernels_stop_at_the_growth_term_cap(k, photons):
    # A kernel for N photons on k modes holds k C(N + k - 1, k) growth terms;
    # 7 modes and 4 photons hold exactly KERNEL_TERMS = 840.
    assert 7 * math.comb(10, 7) == optics.KERNEL_TERMS
    compiled = k * math.comb(photons + k - 1, k) <= optics.KERNEL_TERMS
    assert (optics._dense_kernel(k, photons) is not None) is compiled


def test_a_dense_state_past_the_kernel_cap_expands_directly_and_compiles_nothing():
    # 30 photons on 4 modes would take a kernel of 4 C(33, 4) = 163,680 growth
    # terms, whose text and compile would run to hundreds of MB; the direct
    # loop's whole expansion peaks near 2 MB. The bits are the reference's.
    state = FockState(5, {(30, 0, 0, 0, 0): 0.6, (1, 1, 0, 0, 1): 0.8j})
    u = ModeUnitary(random_unitary(np.random.default_rng(30), 4))
    optics._dense_kernel.cache_clear()
    tracemalloc.start()
    try:
        fast = apply_mode_unitary(state, [0, 1, 2, 3], u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert optics._dense_kernel(4, 30) is None
    assert peak < 4 << 20
    assert bits(fast.terms) == bits(ref.apply_mode_unitary(state, [0, 1, 2, 3], u).terms)


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
    assert optics._dense_kernel.cache_info().maxsize == 64
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
def test_holds_matches_the_reference(predicate, counts):
    # Clauses of 1-3 names, a name repeated within a clause included; the
    # rule pass rejects an empty clause before a predicate is kept.
    assert circuits._holds(predicate, counts) is ref.predicate_holds(predicate, counts)


def assert_same_injection(state: FockState, element) -> None:
    """``element`` injected into ``state``: keys, order, bits and errors as the reference's.

    Every amplitude must also be a Python complex, as the public constructor
    makes it: a numpy scalar would render differently.
    """
    def run(preparation, inject):
        modes, factor = preparation(state.mode_count, element)
        return inject(state, list(modes), factor)

    def planned(mode_count, element):
        # The factor the rule pass builds, with the modes its plan lists, as the reference's.
        if isinstance(element, PrepareKet):
            factor = circuits._ket_factor(mode_count, element.terms)
        elif isinstance(element, PrepareDualRail):
            factor = circuits._dualrail_factor(element.a0, element.a1)
        else:
            factor = circuits._BELL_FACTORS[element.kind]
        return ref.preparation(mode_count, element)[0], factor

    def place(state, positions, factor):
        return circuits._inject(state, fock.layout(state.mode_count, positions).place, factor)

    slow = outcome(run, ref.preparation, ref.inject)
    fast = outcome(run, planned, place)
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


# Counts on a pair: logical 0 and 1, or a leak of no photon, one on each rail or two on one.
PAULI_LOCALS = st.sampled_from([(0, 1), (1, 0), (0, 1), (1, 0), (0, 0), (1, 1), (2, 0), (0, 2)])


@st.composite
def pauli_cases(draw):
    """A state and a pair on it, whose kets are dual-rail on the pair or leak there.

    A dual-rail ket may carry a 1e200 amplitude; a leaking ket's weight lies
    below ``LEAK_TOL``, above it, or overflows when squared.
    """
    mode_count = draw(st.integers(2, 5))
    rail1, rail0 = draw(st.permutations(range(mode_count)))[:2]
    plain = st.sampled_from([0.0, 0.6, -0.6, 0.8j, 1e-6, 1e200, -1e200])
    leaked = st.sampled_from([0.0, 1e-6, -1e-6, 2e-6j, 2e-5, 0.6, 1e200])
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        ket = [draw(st.integers(0, 2)) for _ in range(mode_count)]
        ket[rail1], ket[rail0] = local = draw(PAULI_LOCALS)
        part = plain if local in rails.RAIL_KETS else leaked
        terms[tuple(ket)] = draw(part) + draw(part) * 1j
    built = outcome(FockState, mode_count, terms)
    assume(not isinstance(built, tuple))  # every term pruned
    return built, DualRailQubit(rail1, rail0)


def pauli_outcome(fn, state, pair, which):
    """The bits a Pauli correction writes, or the type, message and leakage weight it raises."""
    try:
        out = fn(state, pair, which)
    except rails.LeakageError as exc:
        return type(exc), str(exc), struct.pack("<d", exc.leakage)
    return out.mode_count, bits(out.terms)


@given(case=pauli_cases())
@example(case=(TOLERATED_LEAK, DualRailQubit(0, 1)))
@settings(max_examples=300, deadline=None)
def test_pauli_correction_matches_the_reference(case):
    state, pair = case
    for which in "IXYZ":
        assert pauli_outcome(pauli_correction, state, pair, which) == pauli_outcome(
            ref.pauli_correction, state, pair, which
        )


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
        calls, runs = [], []

        def record(ir, factors, pairs, reference):
            calls.append((pairs, reference))
            return run_gate(ir, factors, pairs, reference)

        def record_run(plan, factors):
            runs.append(run_checked(plan, factors))
            return runs[-1]

        with mock.patch.object(protocols, "_run_gate", record):
            with mock.patch.object(protocols, "_run_checked", record_run):
                fast = case()
        (pairs, reference), = calls
        (result,) = runs
        decoded = [ref.decode_register(b.residual, pairs) for b in result.branches if b.accepted]
        out, fidelity = ref.collect_output(decoded, reference)
        assert (fast.output_logical is None) == (out is None)
        if out is not None:
            assert fast.output_logical.tobytes() == out.tobytes()
        assert repr(fast.fidelity_vs_reference) == repr(fidelity)  # repr keeps every bit of a float


def run_bits(run, *args):
    """``branch_bits`` of a run, or the type and message of what it raises."""
    result = outcome(run, *args)
    return result if isinstance(result, tuple) else branch_bits(result)


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=7340)
@settings(max_examples=200, deadline=None)
def test_a_planned_program_runs_as_the_inline_engine(seed):
    # Programs of every element kind, labelled or not, a leaking correct's error included.
    ir = random_program(np.random.default_rng(seed))
    assert run_bits(circuits.run_branches, ir) == run_bits(ref.run_checked, ir)


@pytest.mark.parametrize("policy", protocols.POLICIES)
@pytest.mark.parametrize(
    "gate, n",
    [("destructive", 2), ("nondestructive", 2), *(("encoder", n) for n in range(2, 7))],
)
@given(control=qubits(), target=qubits())
@settings(max_examples=10, deadline=None)
def test_a_gate_runs_its_memoized_plan_as_the_inline_engine(gate, n, policy, control, target):
    # The kept plan with the call's input factors, against the program built here with its inputs.
    runs = []
    run_checked = circuits._run_checked

    def record(plan, factors):
        runs.append((plan, factors))
        return run_checked(plan, factors)

    with mock.patch.object(protocols, "_run_checked", record):
        GATES[gate](control, target, policy, n)
    ((plan, factors),) = runs
    ir = bound_program(gate, control, target, policy, n)
    assert run_bits(circuits._run_checked, plan, factors) == run_bits(ref.run_checked, ir)


# Where FockState._trusted may be called: each builds a state from another
# valid state, never from .loc text, argv or a library caller's terms.
TRUSTED_CALLERS = {
    ("circuits", "_inject"),
    ("optics", "apply_mode_unitary"),
    ("measure", "project_detection"),
    ("measure", "outcome_distribution"),
    ("rails", "pauli_correction"),
}

# Where a function branches on the kind of a program element: the one walk that
# checks and plans a program, the formatter and parse's check that kets come first.
ELEMENT_KIND_BRANCHES = {
    ("circuits", "check"),
    ("circuits", "format"),
    ("circuits", "parse"),
}


# Where the engine's run step after the rule pass may be called: the public
# entry, whose program took the pass when it was made, and the gates, whose
# programs took it once per shape and whose inputs are checked on entry.
RUN_CHECKED_CALLERS = {
    ("circuits", "run_branches"),
    ("protocols", "_run_gate"),
}

# The only modules that import numpy when they are imported. Every other module
# imports it in the function that computes with it, so a .loc run and every
# usage or parse error start without it.
NUMPY_AT_IMPORT = {"protocols", "verify"}

# Where a CircuitIR may be made from a rule pass already walked, without a walk of
# its own: parse, whose walk fed the pass statement by statement.
PLANNED_CALLERS = {
    ("circuits", "parse"),
}


def functions_where(holds) -> set:
    """(module, enclosing function) of each node in ``src`` for which ``holds(node)``."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if holds(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in Path(dualrail.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def references(name: str) -> set:
    """(module, enclosing function) of each name or attribute ``name`` in ``src``."""
    return functions_where(lambda node: name in (getattr(node, "attr", None), getattr(node, "id", None)))


# Where complex is called or passed as a function: each builds a number from
# two floats the package parsed or drew, or turns one of its own numpy values
# into a Python complex, apart from the reader itself and the unitary's entry,
# which the reader has accepted and complex() keeps with its signed zeros.
COMPLEX_CALLS = {
    ("fock", "as_amplitude"),
    ("optics", "_entry"),
    ("circuits", "parse"),
    ("cli", "_parse_amplitudes"),
    ("protocols", "csign_reference"),
    ("protocols", "derive_teleport_coefficients"),
    ("protocols", "verify_a_matrix"),
    ("rails", "decode"),
    ("verify", "_random_qubit"),
    ("verify", "_random_state"),
}

# Every way a caller's number comes in, read by the one reader.
AS_AMPLITUDE_CALLERS = {
    ("fock", "__init__"),
    ("fock", "scaled"),
    ("optics", "_entry"),
    ("rails", "is_normalized"),
    ("circuits", "amplitude"),
    ("circuits", "_dualrail_factor"),
    ("circuits", "_fmt_complex"),
    ("rails", "__post_init__"),
    ("protocols", "__post_init__"),
}


def numpy_at_import() -> set:
    """Each module in ``src`` with an ``import numpy`` that runs when it is imported:
    outside every function and every ``if TYPE_CHECKING:`` block."""
    found = set()

    def visit(node, module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            return
        if isinstance(node, ast.Import):
            found.update(module for alias in node.names if alias.name.split(".")[0] == "numpy")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.add(module)
        for child in ast.iter_child_nodes(node):
            visit(child, module)

    for path in Path(dualrail.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def complex_calls() -> set:
    """(module, enclosing function) of each call of ``complex``, or call passing it, in ``src``."""
    return functions_where(
        lambda node: isinstance(node, ast.Call)
        and any(isinstance(n, ast.Name) and n.id == "complex" for n in [node.func, *node.args])
    )


def element_kind_branches() -> set:
    """(module, enclosing function) of each comparison or ``isinstance`` test in ``src``
    that names one of the seven program element classes."""
    kinds = {cls.__name__ for cls in typing.get_args(circuits.Element)}

    def tests_a_kind(node) -> bool:
        tested = []
        if isinstance(node, ast.Compare):
            tested = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            tested = node.args[1:]
        return any(getattr(n, "id", None) in kinds for t in tested for n in ast.walk(t))

    return functions_where(tests_a_kind)


def test_only_the_listed_functions_branch_on_element_kinds():
    assert len(typing.get_args(circuits.Element)) == 7
    assert element_kind_branches() == ELEMENT_KIND_BRANCHES


def test_a_callers_number_is_read_only_by_as_amplitude():
    assert complex_calls() == COMPLEX_CALLS
    assert references("as_amplitude") == AS_AMPLITUDE_CALLERS


def test_only_the_gate_modules_import_numpy_at_import():
    assert numpy_at_import() == NUMPY_AT_IMPORT


def test_trusted_construction_is_reached_only_from_internal_states():
    assert references("_trusted") == TRUSTED_CALLERS


def test_the_run_step_after_the_rule_pass_is_reached_only_from_checked_programs():
    assert references("_run_checked") == RUN_CHECKED_CALLERS


def test_a_program_skips_its_own_walk_only_in_parse():
    assert references("_planned") == PLANNED_CALLERS


def peak_bytes(apply, state: FockState, u: ModeUnitary) -> int:
    """The ``tracemalloc`` peak of one expansion of ``state`` by ``u`` on every mode."""
    apply(state, range(state.mode_count), u)  # warm-up: lazy imports, interned objects
    tracemalloc.start()
    try:
        apply(state, range(state.mode_count), u)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expansion_programs_do_not_outlive_their_kets():
    # A dense 6-mode unitary gives every ket a local occupation of its own
    # and hundreds of monomials; keeping any per-ket expansion until the call
    # returns would show as a peak many times the reference's.
    rng = np.random.default_rng(6)
    kets = sector(6, 4)
    state = FockState(6, {k: complex(rng.normal(), rng.normal()) for k in kets})
    u = ModeUnitary(random_unitary(rng, 6))
    assert peak_bytes(apply_mode_unitary, state, u) <= 2 * peak_bytes(ref.apply_mode_unitary, state, u)


def test_direct_expansion_keeps_no_table_of_every_degree():
    # 30 photons on one of 4 modes give C(33, 3) = 5,456 output monomials, against
    # C(34, 4) = 46,376 monomials of every degree up to 30; a table of those,
    # or of every layer, would show as a peak many times the reference's.
    state = FockState(4, {(30, 0, 0, 0): 1.0})
    rng = np.random.default_rng(30)
    for u in (ModeUnitary(random_unitary(rng, 4)), sparse_unitary(rng, 4)):
        assert peak_bytes(apply_mode_unitary, state, u) <= 2 * peak_bytes(ref.apply_mode_unitary, state, u)
