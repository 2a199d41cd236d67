import contextlib
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import dualrail
from dualrail import circuits, cli, reports
from dualrail.verify import run_verification

import cli_corpus

S = 1.0 / math.sqrt(2.0)
DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    return json.loads(dualrail.data_path("run_report.schema.json").read_text())


class TestCsignDestructive:
    def test_strict_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "csign-destructive", "--policy", "strict", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["accepted_probability"] == pytest.approx(0.25, abs=1e-12)
        amps = report["output"]["amplitudes"]
        assert amps[0][0] == pytest.approx(S, abs=1e-12)
        assert amps[1][0] == pytest.approx(-S, abs=1e-12)

    def test_feedforward(self, capsys):
        code, out, _ = run_cli(capsys, "csign-destructive", "--policy", "feedforward", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["accepted_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_control_zero_passes_target_through(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "csign-destructive",
            "--control", "1,0,0,0",
            "--target", "0.6,0,0.8,0",
            "--json",
        )
        report = json.loads(out)
        assert code == 0
        amps = report["output"]["amplitudes"]
        assert amps[0][0] == pytest.approx(0.6, abs=1e-12)
        assert amps[1][0] == pytest.approx(0.8, abs=1e-12)

    def test_bloch_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "csign-destructive",
            "--control-bloch", "0,0",
            "--target-bloch", f"{math.pi / 2},0",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["fidelity_vs_reference"] == pytest.approx(1.0, abs=1e-12)

    def test_table_and_json_agree(self, capsys):
        code, table, _ = run_cli(capsys, "csign-destructive")
        code2, out, _ = run_cli(capsys, "csign-destructive", "--json")
        report = json.loads(out)
        assert code == code2 == 0
        assert f"accepted probability: {report['accepted_probability']:.12f}" in table

    @pytest.mark.parametrize(
        "argv",
        [
            ("csign-destructive", "--control", "1,0"),
            ("csign-destructive", "--control", "a,b,c,d"),
            ("csign-destructive", "--control", "0,0,0,0"),
            ("csign-destructive", "--control", "1,0,1,0"),
            ("csign-destructive", "--control-bloch", "1"),
            ("csign-destructive", "--control", "1e308,0,1e308,0"),
            ("encoder", "--input-bloch", "inf,0"),
            ("encoder", "--input", "nan,0,1,0"),
        ],
    )
    def test_bad_inputs_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in err
        # One line, naming the option that carried the bad value.
        option = argv[1].lstrip("-").removesuffix("-bloch")
        assert err.count("\n") == 1 and f"{option}:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--control", "1.0000001,0,0,0", "--target", ""),
            ("--control", "1.0000001,0,0,0", "--target", "1.0000001,0,0,0"),
            ("--policy", "bogus"),
            ("--control", "-1,0,0,0"),
        ],
        ids=["warning-then-error", "two-warnings", "argparse-choice", "argparse-dash-value"],
    )
    def test_stderr_is_at_most_one_line(self, capsys, argv):
        try:
            code, _, err = run_cli(capsys, "csign-destructive", *argv)
        except SystemExit as exc:  # argparse's own rejections
            code, err = exc.code, capsys.readouterr().err
        assert code in (0, 2)
        assert err.count("\n") == 1

    def test_near_normalized_input_warns_and_runs(self, capsys):
        code, out, err = run_cli(
            capsys, "csign-destructive", "--control", "0,0,1.0000000001,0", "--json"
        )
        assert code == 0
        assert "renormalizing" in err
        assert json.loads(out)["accepted_probability"] == pytest.approx(0.25, abs=1e-12)


class TestOtherGateCommands:
    def test_nondestructive(self, capsys):
        code, out, _ = run_cli(
            capsys, "csign-nondestructive", "--policy", "feedforward", "--json"
        )
        report = json.loads(out)
        assert code == 0
        assert report["accepted_probability"] == pytest.approx(0.25, abs=1e-12)
        assert report["fidelity_vs_reference"] == pytest.approx(1.0, abs=1e-12)

    def test_nondestructive_strict(self, capsys):
        code, out, _ = run_cli(capsys, "csign-nondestructive", "--policy", "strict", "--json")
        assert json.loads(out)["accepted_probability"] == pytest.approx(0.0625, abs=1e-12)

    def test_nondestructive_basis_sign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "csign-nondestructive",
            "--control", "0,0,1,0",
            "--target", "0,0,1,0",
            "--policy", "feedforward",
            "--json",
        )
        report = json.loads(out)
        assert report["output"]["amplitudes"][3][0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n, policy, expected", [(2, "strict", 0.25), (2, "feedforward", 0.5), (4, "strict", 0.25)])
    def test_encoder(self, capsys, n, policy, expected):
        code, out, _ = run_cli(
            capsys, "encoder", "--n", str(n), "--policy", policy, "--json"
        )
        report = json.loads(out)
        assert code == 0
        assert report["accepted_probability"] == pytest.approx(expected, abs=1e-12)
        assert len(report["output"]["amplitudes"]) == 2**n

    def test_encoder_rejects_n_below_two(self, capsys):
        code, _, err = run_cli(capsys, "encoder", "--n", "1")
        assert code == 2 and "error" in err

    def test_encoder_rejects_n_above_the_limit(self, capsys):
        # The validation path only; the limit keeps dense 2^n vectors small.
        code, out, err = run_cli(capsys, "encoder", "--n", "21")
        assert code == 2 and out == ""
        assert err == "error: --n must be at most 20\n"


class TestRunCommand:
    def test_fig1(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(dualrail.data_path("fig1.loc")), "--json")
        report = json.loads(out)
        assert code == 0
        assert report["accepted_probability"] == pytest.approx(0.25, abs=1e-12)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "/nonexistent/file.loc")
        assert code == 2 and "cannot read" in err

    def test_a_file_that_is_not_utf8_names_its_path(self, capsys, tmp_path):
        bad = tmp_path / "latin1.loc"
        bad.write_bytes(b"\xffmodes 2\n")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 2 and out == ""
        assert err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_parse_error_exits_3_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.loc"
        bad.write_text("modes 2\nbs 1 nope\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 3
        assert "line 2" in err

    def test_mode_count_above_the_limit_exits_3(self, capsys, tmp_path):
        # The validation path only: nothing of this width is ever allocated.
        wide = tmp_path / "wide.loc"
        wide.write_text("modes 1000000000000\n")
        code, out, err = run_cli(capsys, "run", str(wide))
        assert code == 3 and out == ""
        assert err == f"error: line 1, column 1: mode count must be at most {circuits.MAX_MODES}\n"

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "modes 2\nket |200,0>\nbs 1 2\n",
                f"line 2, column 5: a ket may hold at most {circuits.MAX_PHOTONS} photons"
                " (at '|200,0>')",
            ),
            ("modes 2\nket |1,0> amp 2 0\ndetect 1 as a\n", "line 2, column 1: ket amplitudes are not normalized"),
            ("modes 2\nket |1,0> amp 1e300 1e300\ndetect 1 as a\n", "line 2, column 1: ket amplitudes are not normalized"),
        ],
    )
    def test_unphysical_ket_exits_3_with_one_line(self, capsys, tmp_path, source, message):
        bad = tmp_path / "bad.loc"
        bad.write_text(source)
        code, out, err = run_cli(capsys, "run", str(bad))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_term_count_above_the_limit_exits_3_with_one_line(self, capsys, tmp_path):
        # Ten photons pushed twice down a chain of splitters on nine modes; run
        # unbounded, this builds 43,753 terms.
        chain = "".join(f"bs {m} {m + 1}\n" for m in range(1, 9))
        wide = tmp_path / "wide.loc"
        wide.write_text(f"modes 9\nket |5,5,0,0,0,0,0,0,0>\n{chain}{chain}detect 1 as a\n")
        code, out, err = run_cli(capsys, "run", str(wide))
        assert (code, out) == (3, "")
        limit = circuits.MAX_TERMS
        assert err == f"error: bs 1 2 could output 82184 terms, above the limit of {limit}\n"

    def test_semantic_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.loc"
        bad.write_text("modes 2\nket |1,0>\ndetect 1 as a\nbs 1 2\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 3

    def test_correct_on_a_pair_that_is_not_a_qubit_exits_3_with_one_line(
        self, capsys, tmp_path
    ):
        # Modes 1 and 3 are rails of two different qubits: no term holds
        # exactly one photon on the pair.
        bad = tmp_path / "bad.loc"
        bad.write_text(
            "modes 4\ndualrail 0.6 0 0.8 0 on 1 2\ndualrail 0 0 1 0 on 3 4\n"
            "detect 2 as x\ncorrect z on 1 3 if x == 0\n"
        )
        code, out, err = run_cli(capsys, "run", str(bad))
        assert (code, out) == (3, "")
        assert err == (
            "error: correct z on 1 3: Pauli correction outside the dual-rail subspace"
            " (leakage weight 1.000e+00)\n"
        )

    def test_zero_survivors_report_a_float_probability(self, capsys, tmp_path):
        never = tmp_path / "never.loc"
        never.write_text("modes 2\nket |1,0>\ndetect 1 as a\npostselect a == 5\n")
        code, out, _ = run_cli(capsys, "run", str(never), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["branches"] == []
        assert type(doc["accepted_probability"]) is float and doc["accepted_probability"] == 0.0


class TestJsonSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ("csign-destructive", "--json"),
            ("csign-destructive", "--policy", "feedforward", "--json"),
            ("csign-nondestructive", "--policy", "feedforward", "--json"),
            ("encoder", "--n", "3", "--json"),
        ],
    )
    def test_gate_reports_validate(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        jsonschema.validate(json.loads(out), load_schema())

    def test_circuit_report_validates(self, capsys):
        _, out, _ = run_cli(capsys, "run", str(dualrail.data_path("fig2.loc")), "--json")
        jsonschema.validate(json.loads(out), load_schema())

    def test_schema_version_is_one(self, capsys):
        _, out, _ = run_cli(capsys, "csign-destructive", "--json")
        assert json.loads(out)["schema_version"] == 1


class TestVerifyCommand:
    def test_passes_and_prints_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--samples", "5")
        assert code == 0
        assert "all checks passed" in out
        assert "derived vs literature" in out
        assert out.count("mismatch") >= 8

    def test_fixed_seed_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--seed", "11", "--samples", "4")
        _, second, _ = run_cli(capsys, "verify", "--seed", "11", "--samples", "4")
        assert first == second

    @pytest.mark.parametrize("seed, samples", [(0, 8), (1, 50)])
    def test_matches_the_golden_text(self, capsys, seed, samples):
        """The golden files were written by code that derived the coefficient
        table on every call, so a cached table wrong from its first call
        shows here, which two runs in one process cannot show."""
        golden = (DATA / f"verify_seed{seed}_samples{samples}.txt").read_text()
        code, out, _ = run_cli(capsys, "verify", "--seed", str(seed), "--samples", str(samples))
        assert code == 0
        assert out == golden

    def test_zero_samples_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--samples", "0")
        assert code == 2 and "samples" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: --seed must be non-negative\n")

    @pytest.mark.parametrize(
        "seed, samples, message",
        [(1, 2.5, "sample count, got 2.5"), (1.5, 2, "seed, got 1.5"), ("1", 2, "seed, got '1'")],
    )
    def test_library_rejects_non_integral_seed_and_samples(self, seed, samples, message):
        with pytest.raises(ValueError, match=f"^expected integer {re.escape(message)}$"):
            run_verification(seed, samples)


@pytest.mark.parametrize(
    "exc",
    [RuntimeError("boom"), OverflowError("int too large"), RuntimeError("first\nsecond")],
    ids=["runtime", "overflow", "multiline"],
)
def test_unexpected_exception_exits_4_with_one_line(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", broken)
    code, out, err = run_cli(capsys, "verify")
    assert code == 4 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"internal error: {type(exc).__name__}: ")
    assert "Traceback" not in err


class RecordedStdout(io.StringIO):
    """A stdout that keeps the text of every ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("render", ["to_json", "to_table"])
def test_a_large_report_reaches_stdout_in_bounded_writes(monkeypatch, render):
    # encoder --n 16 renders 4.46 MB of JSON or 3.74 MB of table; one write
    # would make stdout encode a second copy of all of it.
    rendered = []
    method = getattr(reports.RunReport, render)

    def recorded(report):
        rendered.append(method(report))
        return rendered[-1]

    monkeypatch.setattr(reports.RunReport, render, recorded)
    out = RecordedStdout()
    with contextlib.redirect_stdout(out):
        assert cli.main(["encoder", "--n", "16", *(["--json"] if render == "to_json" else [])]) == 0
    assert len(rendered) == 1 and len(rendered[0]) > 3 << 20
    joined_as_rendered = "".join(out.writes) == rendered[0]  # no pytest diff of 4 MB texts
    assert joined_as_rendered
    assert max(map(len, out.writes)) <= 1 << 20


def cli_env(unbuffered: bool = False) -> dict:
    """The environment of a CLI child: this checkout's package, and stdout buffered, as a
    command starts by default, or unbuffered, as under ``python -u``, where each write goes
    straight to the raw file, which may take only part of it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, "PYTHONPATH": str(Path(dualrail.__file__).parents[1])}


def start_cli(*argv, unbuffered: bool = False, **popen) -> subprocess.Popen:
    """``python -m dualrail.cli`` in a child, its stderr piped."""
    env = cli_env(unbuffered)
    return subprocess.Popen([sys.executable, "-m", "dualrail.cli", *argv], env=env, stderr=subprocess.PIPE, **popen)


class PartialWrites(io.RawIOBase):
    """A raw binary file that takes at most 1,000 bytes of each write, as a pipe may."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.data += data[:1000]
        return min(len(data), 1000)


def test_every_byte_reaches_a_raw_stdout_that_takes_part_of_each_write(monkeypatch):
    # Unbuffered, stdout's binary layer is the raw file itself; text written
    # before the report must come out before it.
    raw = PartialWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
    monkeypatch.setattr(cli, "_WRITE_CHARS", 4096)
    text = "".join(f"{i}: |0,1> é\n" for i in range(2000))
    sys.stdout.write("first\n")
    cli._write(text)
    assert raw.data.decode("utf-8") == "first\n" + text


def leave_after_one_byte(unbuffered: bool) -> None:
    # encoder --n 12 writes 264 KB, past what a pipe holds, so the child is
    # still writing when the reader (| head -c 1) closes its end.
    with start_cli("encoder", "--n", "12", "--json", unbuffered=unbuffered, stdout=subprocess.PIPE) as child:
        assert os.read(child.stdout.fileno(), 1) == b"{"
        child.stdout.close()
        assert (child.wait(timeout=60), child.stderr.read()) == (cli.EXIT_BROKEN_PIPE, b"")


def test_a_reader_that_leaves_early_ends_the_command_quietly():
    leave_after_one_byte(unbuffered=False)


def test_a_reader_that_leaves_an_unbuffered_stdout_early_ends_the_command_quietly():
    # The raw write returns the part of the slice the pipe took; the next one
    # fails, where one write of the slice would end the command with 0.
    leave_after_one_byte(unbuffered=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize(
    "argv, unbuffered",
    [(argv, unbuffered) for unbuffered in (False, True) for argv in (["csign-destructive"], ["encoder", "--n", "12", "--json"])],
    ids=["flush", "write", "unbuffered-short", "unbuffered-long"],
)
def test_a_full_stdout_is_one_error_line(argv, unbuffered):
    # A short report fails at its flush, a long one at a write; unbuffered, both at a write.
    with open("/dev/full", "wb") as full, start_cli(*argv, unbuffered=unbuffered, stdout=full) as child:
        err = child.communicate(timeout=60)[1]
    assert (child.returncode, err) == (cli.EXIT_OUTPUT, b"error: cannot write to stdout: No space left on device\n")


def test_a_closed_stdout_is_one_error_line():
    done = subprocess.run(
        f"{shlex.quote(sys.executable)} -m dualrail.cli csign-destructive >&-",
        shell=True,
        env=cli_env(),
        stderr=subprocess.PIPE,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (cli.EXIT_OUTPUT, b"error: stdout is closed\n")


def test_an_interrupt_is_one_line_and_exit_130():
    # After its first write the child blocks on a full pipe until it is read.
    with start_cli("encoder", "--n", "12", "--json", stdout=subprocess.PIPE) as child:
        assert os.read(child.stdout.fileno(), 1) == b"{"
        child.send_signal(signal.SIGINT)
        err = child.communicate(timeout=60)[1]
    assert (child.returncode, err) == (cli.EXIT_INTERRUPT, b"interrupted\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


# A child process imports the command line and runs each argv in turn, then
# prints its exit code and which of numpy and the gate modules it has loaded.
CHILD = """
import contextlib, io, json, sys
import dualrail.circuits
from dualrail import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(code, [m for m in ("numpy", "dualrail.protocols", "dualrail.verify") if m in sys.modules])
"""


def test_run_and_every_usage_or_parse_error_start_without_numpy(tmp_path):
    # numpy's import is about half of a small command's time, and only the
    # gate and verify commands compute with it.
    bad = tmp_path / "bad.loc"
    bad.write_text("modes 2\nket |1,0>\nbs 1 2 matrix 1 0 0 0 0 0 2 0\n")
    argvs = [
        ["run", str(dualrail.data_path("fig1.loc"))],
        ["run", str(dualrail.data_path("fig2.loc")), "--json"],
        ["run", str(bad)],
        ["encoder", "--n", "1"],
        ["csign-destructive", "--control", "1,0"],
        ["no-such-command"],
    ]
    src = Path(dualrail.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == ["0 []", "0 []", "3 []", "2 []", "2 []", "2 []"]


def test_fig1_reproduces_the_destructive_defaults(capsys):
    """The shipped circuit equals the gate command with default inputs."""
    _, gate_out, _ = run_cli(capsys, "csign-destructive", "--json")
    gate = json.loads(gate_out)
    _, run_out, _ = run_cli(capsys, "run", str(dualrail.data_path("fig1.loc")), "--json")
    run = json.loads(run_out)
    assert run["accepted_probability"] == gate["accepted_probability"]
    gate_branch = [b for b in gate["branches"] if b["accepted"]][0]
    assert run["branches"][0]["probability"] == gate_branch["probability"]
    assert run["branches"][0]["residual"] == gate_branch["residual"]


def test_cli_text_matches_the_committed_corpus():
    # SHA-256 of stdout and stderr, exit code and argv for about 250 commands.
    expected = (DATA / "cli_corpus.txt").read_text(encoding="utf-8").splitlines()
    actual = list(cli_corpus.lines())
    assert [line.split(" ", 2)[2] for line in actual] == [line.split(" ", 2)[2] for line in expected]
    for got, want in zip(actual, expected):
        assert got == want
