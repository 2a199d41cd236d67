"""How hard the tier-1 tests are to fool: one-line faults they must catch.

Each mutant replaces one exact snippet of a source file. For each, the script
copies ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there, and runs tier-1 with ``pytest -x``.
A failing run KILLED the mutant, and the first failing test is named; a
passing run means it SURVIVED. The tier-1 check of this list itself is left
out, since it fails on any mutated copy. The runs fix ``--hypothesis-seed=0``,
so a mutant that only a ``@given`` test catches gets the same verdict on every
run; tier-1 itself keeps drawing fresh examples. The unmutated copy runs first and
must pass. Run from the repository root::

    python tests/mutants.py

It prints one line per mutant and the kill rate, and exits 1 if a mutant
survived. ``test_boundaries.py`` checks in tier-1 that every snippet still
occurs exactly once in its file, so the list cannot silently go stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "perfbench", "pyproject.toml"]
LIST_CHECK = "tests/test_boundaries.py::test_every_mutant_snippet_occurs_exactly_once"


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    breaks: str


MUTANTS = [
    Mutant(
        "src/dualrail/rails.py",
        "LEAK_TOL = 1e-10",
        "LEAK_TOL = 1e-1",
        "decode silently drops up to 10 % leaked weight",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "UNITARY_TOL = 1e-12",
        "UNITARY_TOL = 1e-3",
        "ModeUnitary accepts a matrix 1e-6 away from unitary",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "return abs(norm_squared - 1.0) <= 1e-6",
        "return abs(norm_squared - 1.0) <= 1e-2",
        ".loc dualrail and ket norms pass 1e-4 off the promised 1e-6",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "tol: float = 1e-9",
        "tol: float = 1e-8",
        "equal_up_to_global_phase calls states 5e-9 apart equal",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "if abs(s.norm_squared() - 1.0) > 1e-6:",
        "if abs(s.norm_squared() - 1.0) > 1e-1:",
        "equal_up_to_global_phase compares states that are not normalized",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "coeff * math.sqrt(math.prod(map(math.factorial, mono)))",
        "coeff * math.prod(map(math.sqrt, map(math.factorial, mono)))",
        "the direct expansion scales by prod sqrt(q!), changing amplitude bits",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "for (f0, f1), count in zip(columns, local):",
        "for (f1, f0), count in zip(columns, local):",
        "the closed form applies the transposed splitter",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "except OverflowError:  # math.sqrt of an int prod n! past the float range",
        "except ZeroDivisionError:",
        "more than 170 photons raise a bare OverflowError",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "math.sqrt(math.factorial(a) * math.factorial(b))",
        "math.sqrt(math.factorial(a)) * math.sqrt(math.factorial(b))",
        "the closed form normalizes by sqrt(a!) sqrt(b!), changing amplitude bits",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "return ModeUnitary([[s, s], [-s, s]])",
        "return ModeUnitary([[s, -s], [s, s]])",
        "the gates' splitter is the transposed Hadamard",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "_layout(state.mode_count, tuple(modes))",
        "_layout(state.mode_count, tuple(sorted(modes)))",
        "the element memo ignores the order of the listed modes",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "norm, outputs = _pair_plan(local)",
        "norm, outputs = _pair_plan((sum(local), 0))",
        "the plan memo is keyed on the photon total, not the local occupation",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "m = np.array(matrix, dtype=complex)",
        "m = np.asarray(matrix, dtype=complex)",
        "ModeUnitary freezes the caller's complex array instead of a copy",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "grown.append(0j + x * f1 + y * f0)",
        "grown.append(0j + x * f0 + y * f1)",
        "the closed form's middle sums take f0 and f1 swapped",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "ApplyBS((control.rail0, target.rail1), None),",
        "ApplyBS((target.rail1, control.rail0), None),",
        "the destructive gate's Bell mixer lists its modes swapped",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "if listed >= 3:",
        "if listed >= 4:",
        "a 3-mode unitary expands without the output-size pre-check",
    ),
]


def run_tier1(mutant: Mutant | None) -> tuple[str | None, float]:
    """The first test that fails on a copy with ``mutant`` applied, and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="dualrail-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, Path(tmp, name), ignore=ignore)
            else:
                shutil.copy2(source, Path(tmp, name))
        if mutant is not None:
            target = Path(tmp, mutant.path)
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.snippet) != 1:
                raise SystemExit(f"snippet does not occur exactly once in {mutant.path}: {mutant.snippet!r}")
            target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        start = time.perf_counter()
        done = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", "--deselect", LIST_CHECK,
            ],
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))},
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return None, seconds
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return (failed or [f"pytest exit code {done.returncode}"])[0], seconds


def main() -> int:
    start = time.perf_counter()
    failed, seconds = run_tier1(None)
    print(f"baseline    {seconds:6.1f} s  {failed or 'passed'}", flush=True)
    if failed:
        print("the unmutated copy fails tier-1; no mutant can be judged")
        return 2
    killed = 0
    for number, mutant in enumerate(MUTANTS, 1):
        failed, seconds = run_tier1(mutant)
        killed += failed is not None
        print(f"{number:>2} {'KILLED' if failed else 'SURVIVED':<8} {seconds:6.1f} s  {mutant.path}: {mutant.breaks}")
        print(f"   {failed or 'every test passed'}", flush=True)
    print(f"kill rate {killed}/{len(MUTANTS)} ({100 * killed / len(MUTANTS):.0f} %) in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
