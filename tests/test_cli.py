import json
import math
from pathlib import Path

import jsonschema
import pytest

import dualrail
from dualrail import circuits, cli

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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


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
