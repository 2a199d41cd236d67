"""The JSON report text: pinned bytes, the ``json.dumps`` oracle, and the
register lists built from a decoded output vector."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualrail
from dualrail import cli, circuits, protocols, reports
from dualrail.rails import LogicalAmplitudes

DATA = Path(__file__).parent / "data"
DURATION = re.compile(r'"duration_seconds": [^\n]*\n')


def oracle(report: reports.RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


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
            report = reports.from_gate_run(gate(control, target, policy), "gate", {}, 0.5)
            assert report.to_json() == oracle(report)


@pytest.mark.parametrize("policy", protocols.POLICIES)
def test_encoder_reports_match_the_oracle(policy):
    for n in range(2, 17):
        result = protocols.run_quantum_encoder(QUBITS[1], n, policy)
        report = reports.from_gate_run(result, "encoder", {"n": n}, 1e-3)
        assert report.to_json() == oracle(report)


@pytest.mark.parametrize("name", ["fig1.loc", "fig2.loc"])
def test_circuit_reports_match_the_oracle(name):
    result = circuits.execute(circuits.load(str(dualrail.data_path(name))))
    report = reports.from_circuit_run(result, "run", {"path": name}, 2e-4)
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
    result = protocols.GateRunResult(
        "gate", "strict", [], 1.0, vec, None, None, ("1", "2"), ()
    )
    output = reports.from_gate_run(result, "gate", {}, 0.0).output
    assert output["basis"] == [format(i, f"0{n}b") for i in range(2**n)]
    # repr tells -0.0 from 0.0 and compares nan with nan.
    expected = [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in vec]
    assert repr(output["amplitudes"]) == repr(expected)
