"""The JSON report text: pinned bytes, the ``json.dumps`` oracle, the dense
reference report, and the register pairs built from a decoded output vector."""

import contextlib
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualrail
import reference_kernels as ref
from dualrail import cli, circuits, protocols, reports
from dualrail.rails import LogicalAmplitudes

DATA = Path(__file__).parent / "data"
DURATION = re.compile(r'"duration_seconds": [^\n]*\n')


def oracle(report: reports.RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def same(a, b) -> bool:
    """``a == b`` out of pytest's view: its diff of two texts or lists of
    megabytes that part early takes minutes."""
    return a == b


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def test_to_dict_is_the_schema_version_then_the_fields_in_order():
    """Schema 1's keys in schema order; an instance attribute that is not a
    field never reaches the document."""
    run = circuits.execute(circuits.load(dualrail.data_path("fig1.loc")))
    report = reports.from_run(run, "run", {}, 0.5)
    report.stray = "not a field"
    assert list(report.to_dict()) == [
        "schema_version", "command", "inputs", "branches", "accepted_probability",
        "output", "fidelity_vs_reference", "duration_seconds",
    ]
    assert report.to_dict()["schema_version"] == reports.SCHEMA_VERSION == 1


@pytest.mark.parametrize(
    "name, argv",
    [
        ("encoder_n8_ff", ("encoder", "--n", "8", "--policy", "feedforward", "--json")),
        ("csign_nondestructive_ff", ("csign-nondestructive", "--policy", "feedforward", "--json")),
    ],
)
def test_json_bytes_match_the_pinned_files(name, argv):
    """The pinned files were written by the ``json.dumps`` renderer."""
    pinned = (DATA / f"{name}.json").read_text()
    out = cli_stdout(*argv)
    assert DURATION.sub("", out) == DURATION.sub("", pinned)


SQ = 1.0 / math.sqrt(2.0)
QUBITS = [
    LogicalAmplitudes(complex(SQ), complex(SQ)),
    LogicalAmplitudes(complex(0.6, 0.0), complex(0.0, -0.8)),
    LogicalAmplitudes.one(),
]


@pytest.mark.parametrize("policy", protocols.POLICIES)
@pytest.mark.parametrize(
    "gate", [protocols.run_destructive_csign, protocols.run_nondestructive_csign]
)
def test_gate_reports_match_the_oracle(gate, policy):
    for control in QUBITS:
        for target in QUBITS:
            report = reports.from_run(gate(control, target, policy), "gate", {}, 0.5)
            assert report.to_json() == oracle(report)


@pytest.mark.parametrize("policy", protocols.POLICIES)
def test_encoder_reports_match_the_oracle(policy):
    for n in range(2, 17):
        result = protocols.run_quantum_encoder(QUBITS[1], n, policy)
        report = reports.from_run(result, "encoder", {"n": n}, 1e-3)
        assert same(report.to_json(), oracle(report)), n  # up to 4.46 MB at n = 16


@pytest.mark.parametrize("name", ["fig1.loc", "fig2.loc"])
def test_circuit_reports_match_the_oracle(name):
    result = circuits.execute(circuits.load(str(dualrail.data_path(name))))
    report = reports.from_run(result, "run", {"path": name}, 2e-4)
    assert report.to_json() == oracle(report)


special_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@given(
    entries=st.lists(
        st.tuples(st.text(max_size=6), special_floats, special_floats), min_size=1, max_size=1024
    ),
    mode_labels=st.lists(st.text(max_size=3), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_any_output_block_matches_the_oracle(entries, mode_labels):
    output = {
        "basis": [label for label, _, _ in entries],
        "amplitudes": [[re, im] for _, re, im in entries],
        "mode_labels": mode_labels,
    }
    report = reports.RunReport("gate", {"x": [1.5]}, [], 0.25, output, None, 0.0)
    assert report.to_json() == oracle(report)


@given(n=st.integers(1, 10), pool=st.lists(special_floats, min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_register_lists_match_the_elementwise_build(n, pool):
    vec = np.resize(np.array(pool, dtype=float), 2 ** (n + 1)).view(complex)
    result = circuits.RunResult([], 1.0, 0.0, vec, None, ("1", "2"))
    output = reports.from_run(result, "gate", {}, 0.0).output
    assert output["basis"] == [format(i, f"0{n}b") for i in range(2**n)]
    # repr tells -0.0 from 0.0 and compares nan with nan.
    expected = [(float(z.real) + 0.0, float(z.imag) + 0.0) for z in vec]
    assert repr(output["amplitudes"]) == repr(expected)


def shared_pair_count(amplitudes) -> int:
    return len({id(pair) for pair in amplitudes})


def test_zero_register_entries_share_one_pair():
    result = protocols.run_quantum_encoder(QUBITS[1], 16, "feedforward")
    amplitudes = reports.from_run(result, "encoder", {}, 0.0).output["amplitudes"]
    assert shared_pair_count(amplitudes) == np.count_nonzero(result.output_logical) + 1 == 3


@given(
    n=st.integers(1, 10),
    entries=st.lists(st.tuples(st.integers(0, 1023), special_floats, special_floats), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_sparse_registers_match_the_dense_reference(n, entries):
    vec = np.zeros(2**n, dtype=complex)
    for i, re_, im in entries:
        vec.real[i % 2**n], vec.imag[i % 2**n] = re_, im
    result = circuits.RunResult([], 1.0, 0.0, vec, None, ("1", "2"))
    report = reports.from_run(result, "gate", {"n": n}, 0.0)
    dense = ref.dense_report(result, "gate", {"n": n}, 0.0)
    nonzero = np.count_nonzero(vec)
    assert shared_pair_count(report.output["amplitudes"]) == nonzero + (nonzero < 2**n)
    assert report.to_json() == oracle(report) == ref.report_to_json(dense)
    assert report.to_table() == ref.report_to_table(dense)


SHARED = [1.5, -0.0]
HAND_BUILT = [SHARED, SHARED, [-0.0, 0.0], [0.0, 0.0], SHARED, [math.nan, -math.inf]]
HAND_BUILT += [[-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]] * 2 + [SHARED] * 3


@pytest.mark.parametrize(
    "basis",
    [
        [f"b{i}" for i in range(len(HAND_BUILT))],
        ["", " ", "~", 'a"b', "\\", "\x7f", "\x1f", "\n", "é", "\ud800", "x", "y", "z", "0", "1"],
        [],
        [f"{i:05b}" for i in range(20)],
    ],
)
def test_hand_built_blocks_render_each_list_object_as_it_holds(basis):
    # One list object repeated, and equal-looking lists that are separate
    # objects with -0.0 and 0.0; basis labels with and without escapes, and
    # more labels than pairs or none, which the table pairs up as zip does.
    output = {"basis": basis, "amplitudes": HAND_BUILT, "mode_labels": ["1", "2"]}
    report = reports.RunReport("gate", {"x": [1.5]}, [], 0.25, output, None, 0.0)
    assert report.to_json() == oracle(report) == ref.report_to_json(report)
    assert report.to_table() == ref.report_to_table(report)


@pytest.mark.parametrize("n", [1, 3, 16, 17])
def test_uneven_label_halves_render_like_the_dense_reference(n):
    # For odd n the low half of each label is one bit longer than the high
    # half; n = 1 has an empty high half. Entries sit at both ends and inside
    # a high-half block, so runs and label blocks end at different indices.
    vec = np.zeros(2**n, dtype=complex)
    vec[[0, 1, 2**n // 3 + 1, 2**n - 1]] = [0.6, -0.5j, 1e-300, -0.25 - 0.1j]
    result = circuits.RunResult([], 1.0, 0.0, vec, None, ("1", "2"))
    report = reports.from_run(result, "gate", {"n": n}, 0.0)
    dense = ref.dense_report(result, "gate", {"n": n}, 0.0)
    text = report.to_json()
    assert same(text, oracle(report)) and same(text, ref.report_to_json(dense))
    assert same(report.to_table(), ref.report_to_table(dense))
    assert json.loads(json.dumps(report.to_dict()))["output"]["basis"][-1] == "1" * n
    assert same(report.output["basis"], [format(i, f"0{n}b") for i in range(2**n)])


@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_basis_labels_index_like_the_list_they_stand_for(n):
    labels = reports.from_run(
        circuits.RunResult([], 1.0, 0.0, np.zeros(2**n, dtype=complex), None, ()), "gate", {}, 0.0
    ).output["basis"]
    expected = [format(i, f"0{n}b") for i in range(2**n)]
    assert len(labels) == len(expected)
    for i in {0, 1, 2**n // 3, 2**n - 2, 2**n - 1, -1, -(2**n)}:
        assert labels[i] == expected[i]
    assert list(reversed(labels))[:3] == expected[::-1][:3]
    for i in (2**n, -(2**n) - 1):
        with pytest.raises(IndexError):
            labels[i]
    assert labels != expected[:-1] and labels != tuple(expected)
    with pytest.raises(TypeError):
        labels[0] = "x"


def tracemalloc_peak(render) -> tuple[int, int]:
    """The ``tracemalloc`` peak of a second call of ``render``, and the length
    of the text it returns."""
    render()  # warm-up: lazy imports, interned objects
    tracemalloc.start()
    try:
        text = render()
        return tracemalloc.get_traced_memory()[1], len(text)
    finally:
        tracemalloc.stop()


def test_register_report_memory_stays_below_the_dense_reference():
    # The dense path builds a list and formats two floats for each of the
    # 65,536 entries; the sparse path builds and formats each distinct pair
    # once and holds no label strings, so its peak is about the text's pieces
    # and the joined text (1.6 times the text for JSON, 2.2 for the table, on
    # CPython 3.11).
    result = protocols.run_quantum_encoder(QUBITS[1], 16, "feedforward")
    for render in ("to_json", "to_table"):
        sparse, size = tracemalloc_peak(
            lambda: getattr(reports.from_run(result, "encoder", {}, 0.0), render)()
        )
        dense, _ = tracemalloc_peak(
            lambda: getattr(ref, f"report_{render}")(ref.dense_report(result, "encoder", {}, 0.0))
        )
        assert sparse <= 2.25 * size, render
        assert sparse <= 0.5 * dense, render
