"""Print one line per command of a fixed CLI deck, to diff CLI text between checkouts.

Each command runs in process through ``cli.main``. Its line holds the SHA-256
of its stdout and stderr, the exit code and the argv. Run durations, the
package's data directory and the deck's scratch directory are replaced by
placeholders first, so two checkouts of the same behaviour print the same
lines. Run it once per checkout and diff the outputs::

    PYTHONPATH=src python tests/cli_corpus.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_corpus.py > old.txt
    diff old.txt new.txt

Pytest does not collect this file, but ``tests/test_cli.py`` runs the deck
(about 2 s) and compares each line with ``tests/data/cli_corpus.txt``.
After an intended change of CLI text, regenerate that file with the first
command above and say which lines changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shlex
import tempfile
from pathlib import Path
from typing import Iterator

import dualrail
from dualrail import cli

S = "0.7071067811865476"
QUBITS = ("1,0,0,0", "0,0,1,0", f"{S},0,{S},0", "0.6,0,0,0.8")
POLICIES = ("strict", "feedforward")

# Written to the scratch directory: no branch survives the first, the second
# corrects a pair that holds no qubit, the third does not parse and the
# fourth puts multi-photon kets through a default, a full and a zero-entry
# (phased swap) splitter.
PROGRAMS = {
    "zero_survivors.loc": "modes 2\nket |1,0>\ndetect 1 as a\npostselect a == 5\n",
    "leakage.loc": (
        "modes 4\ndualrail 0.6 0 0.8 0 on 1 2\ndualrail 0 0 1 0 on 3 4\n"
        "detect 2 as x\ncorrect z on 1 3 if x == 0\n"
    ),
    "parse_error.loc": "modes 2\nbs 1 nope\n",
    "splitters.loc": (
        "modes 3\nket |1,1,0> amp 0.6 0\nket |2,1,0> amp 0 0.8\nbs 1 2\n"
        "bs 2 3 matrix 0.6 0 0 0.8 0 0.8 0.6 0\nbs 1 3 matrix 0 0 0 1 -1 0 0 0\n"
        "detect 1 as a\ndetect 2 as b\n"
    ),
}

USAGE_ERRORS = (
    [],
    ["frobnicate"],
    ["csign-destructive", "--control", "1,0"],
    ["csign-destructive", "--control", "a,0,1,0"],
    ["csign-destructive", "--control", "nan,0,1,0"],
    ["csign-destructive", "--control", "0,0,0,0"],
    ["csign-destructive", "--control", "1,0,1,0"],
    ["csign-destructive", "--control-bloch", "1"],
    ["csign-nondestructive", "--policy", "lenient"],
    ["encoder", "--n", "1"],
    ["encoder", "--n", "21"],
    ["verify", "--seed", "-1"],
    ["verify", "--samples", "0"],
)

DURATION = re.compile(r'(duration: |"duration_seconds": )[-+.0-9e]+')


def deck(data: str, scratch: str) -> list[list[str]]:
    commands = []
    for gate in ("csign-destructive", "csign-nondestructive"):
        for policy in POLICIES:
            for control in QUBITS:
                for target in QUBITS:
                    for form in ([], ["--json"]):
                        argv = [gate, "--control", control, "--target", target, "--policy", policy]
                        commands.append(argv + form)
    for n in range(2, 17):
        for policy in POLICIES:
            for form in ([], ["--json"]):
                argv = ["encoder", "--input", f"{S},0,0,{S}", "--n", str(n), "--policy", policy]
                commands.append(argv + form)
    paths = [f"{data}/fig1.loc", f"{data}/fig2.loc"]
    paths += [f"{scratch}/{name}" for name in PROGRAMS] + [f"{scratch}/missing.loc"]
    for path in paths:
        for form in ([], ["--json"]):
            commands.append(["run", path, *form])
    for seed in range(30):
        commands.append(["verify", "--seed", str(seed), "--samples", "8"])
    for seed in range(3):
        commands.append(["verify", "--seed", str(seed), "--samples", "50"])
    return commands + [list(argv) for argv in USAGE_ERRORS]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``dualrail <argv>``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def lines() -> Iterator[str]:
    """One ``<sha256> <exit code> <argv>`` line per command of the deck."""
    data = str(Path(str(dualrail.data_path("fig1.loc"))).parent)
    with tempfile.TemporaryDirectory() as scratch:
        for name, source in PROGRAMS.items():
            Path(scratch, name).write_text(source, encoding="utf-8")

        def strip(text: str) -> str:
            return text.replace(data, "<data>").replace(scratch, "<scratch>")

        for argv in deck(data, scratch):
            code, out, err = run(argv)
            text = out + "\0" + err
            digest = hashlib.sha256(strip(DURATION.sub(r"\1<t>", text)).encode()).hexdigest()
            yield f"{digest} {code} {strip(shlex.join(argv))}"


if __name__ == "__main__":
    for line in lines():
        print(line)
