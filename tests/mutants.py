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
        "src/dualrail/fock.py",
        'return _layout(mode_count, as_ints(modes, "modes"))',
        'return _layout(mode_count, tuple(sorted(as_ints(modes, "modes"))))',
        "the layout memo ignores the order of the listed modes",
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
        "if u.dim >= 3:",
        "if u.dim >= 4:",
        "a 3-mode unitary expands without the output-size pre-check",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "return Layout(modes, occupation_getter(modes),",
        "return Layout(modes, occupation_getter(sorted(modes)),",
        "a layout reads the local counts in mode order, not in listed order",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "positions[m] = mode_count + r",
        "positions[m] = mode_count + len(modes) - 1 - r",
        "a layout writes the local counts onto the listed modes in reverse order",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "rest = tuple(m for m in range(mode_count) if m not in modes)",
        "rest = tuple(m for m in reversed(range(mode_count)) if m not in modes)",
        "a layout lists the other modes in reverse mode order",
    ),
    Mutant(
        "src/dualrail/measure.py",
        "if min(counts) < 0:",
        "if min(counts) < -1:",
        "a count of -1 projects onto nothing instead of raising",
    ),
    Mutant(
        "src/dualrail/measure.py",
        "for counts in sorted(groups)",
        "for counts in groups",
        "outcomes come in the state's ket order, not sorted by counts",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "amps = map(complex, (element.a0, element.a1))",
        "amps = (element.a0, element.a1)",
        "injected dual-rail amplitudes stay numpy scalars instead of Python complex",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "names, values = zip(*clause)",
        "names, values = zip(*clause[:1])",
        "a compiled postselect or correct clause reads only its first name",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "tuple(FockState(ir.mode_count, element.terms).terms.items())",
        "element.terms",
        "hand-built ket terms are injected without the public check: no duplicate sum, no ket check",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "out[place(ket + sub)] = 0j + amp * sub_amp",
        "out[place(ket + sub)] = amp * sub_amp",
        "injected amplitudes keep a -0.0 part the public constructor's sum turned into 0.0",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "    require_normalized(q)\n    total_modes = _checked_mode_count(total_modes)\n",
        "    require_normalized(q)\n",
        "encode with a mode count of 2.0 raises a bare TypeError",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "    total_modes = _checked_mode_count(total_modes)\n    place = layout(total_modes, modes).place",
        "    place = layout(total_modes, modes).place",
        "bell_state with a mode count of 4.0 raises a bare TypeError",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "RAIL_KETS = ((0, 1), (1, 0))",
        "RAIL_KETS = ((1, 0), (0, 1))",
        "logical 0 and 1 sit on the pair's rails the wrong way round",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "bits = [_BIT_OF.get(pair) for pair",
        "bits = [_BIT_OF.get(pair, pair[0]) for pair",
        "decode_register reads a (0,0) or (1,1) pair as a logical bit instead of leakage",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "    if len(set(modes)) != len(modes):\n",
        "    if False:\n",
        "a layout accepts a listing that repeats a mode",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "    if not all(map(cmath.isfinite, terms.values())):\n",
        "    if False:\n",
        "both constructors keep a non-finite sum or internal amplitude",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "_CSIGN = _read_only(csign_reference())",
        "_CSIGN = csign_reference()",
        "the shared sign-flip reference accepts in-place writes",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if labels is not None and len(labels) != n:\n",
        "        if False:\n",
        "a hand-built program with too few labels raises IndexError, too many format to text parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if labels is not None and len(set(labels)) != n:\n",
        "        if False:\n",
        "a hand-built program that repeats a label formats to text parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'n = self.mode_count = _checked(as_int, mode_count, "mode count")',
        "n = self.mode_count = int(mode_count)",
        "a hand-built mode count of 2.0 or '2' passes validation",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "listed.append(self.mode(index(m)))",
        "listed.append(self.mode(int(m)))",
        "a hand-built mode of 0.0 runs as mode 0 and formats as 1.0",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "    _validate(ir)\n    named = [",
        "    named = [",
        "format writes an invalid hand-built program instead of raising",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        'n = as_int(n_copies, "copy count")',
        "n = int(n_copies)",
        "the encoder truncates a copy count of 2.0 and parses '3'",
    ),
    Mutant(
        "src/dualrail/verify.py",
        'as_int(seed, "seed")',
        "int(seed)",
        "run_verification truncates a seed of 1.5 and parses '1'",
    ),
    Mutant(
        "src/dualrail/verify.py",
        'as_int(samples, "sample count")',
        "int(samples)",
        "run_verification truncates a sample count of 2.5",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "rails.bell_state(label, *pairs, 4), pairs)",
        "rails.bell_state(label, *pairs, 4), pairs[::-1])",
        "the teleport table decodes its Bell vectors with the two qubits swapped",
    ),
    Mutant(
        "src/dualrail/reports.py",
        'return {"schema_version": SCHEMA_VERSION, **data}',
        "return data",
        "the JSON report loses its schema_version",
    ),
    Mutant(
        "src/dualrail/reports.py",
        "data = {f.name: getattr(self, f.name) for f in fields(self)}",
        "data = dict(vars(self))",
        "an instance attribute that is not a field reaches the JSON report",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if n <= 0:\n",
        "        if n < 0:\n",
        "a hand-built program of 0 modes raises a bare ValueError from the engine",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if n > MAX_MODES:\n",
        "        if n > 2 * MAX_MODES:\n",
        "a program may declare more than MAX_MODES modes",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if len(occ) != self.mode_count:\n",
        "        if len(occ) > self.mode_count:\n",
        "a ket term shorter than the mode count passes",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if sum(occ) > MAX_PHOTONS:\n",
        "        if sum(occ) > 2 * MAX_PHOTONS:\n",
        "a ket term may hold more than MAX_PHOTONS photons",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if not cmath.isfinite(z):\n",
        "        if False:\n",
        "a non-finite ket amplitude is reported as a norm fault, not at its amp token",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            if not is_normalized(summed.values()):\n",
        "            if False:\n",
        "a hand-built ket of norm 2 runs with accepted probability 4",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'summed[occ] = summed.get(occ, 0j) + self.amplitude("ket", amp)',
        'summed[occ] = self.amplitude("ket", amp)',
        "equal ket terms are not added up before the norm check",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            if not is_normalized(amps):\n",
        "            if False:\n",
        "a hand-built dualrail of norm 2 runs with accepted probability 4",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if kind not in rails.BELL_KINDS:\n",
        "        if False:\n",
        "an unknown Bell kind raises a bare KeyError from the engine",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "                _checked(ModeUnitary, [[m[0], m[1]], [m[2], m[3]]])\n",
        "                pass\n",
        "a non-unitary bs matrix raises a bare ValueError from the engine",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'if _checked(as_int, count, "photon count") < 0:',
        'if _checked(as_int, count, "photon count") < -1:',
        "a predicate count of -1 passes and never holds",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if not predicate:\n",
        "        if False:\n",
        "a postselect with no clause passes and rejects every branch",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            if not clause:\n",
        "            if False:\n",
        "a postselect with an empty clause passes the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        '            raise CircuitError(f"unknown program element {element!r}")\n',
        "            pass\n",
        "an unknown element raises a bare TypeError, and format drops it",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        '        if not m or m.lastgroup != "name":\n',
        "        if not m:\n",
        "format writes a number label such as 3, which parse reads as a mode",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if not 0 <= m < self.mode_count:\n",
        "        if not 0 <= m <= self.mode_count:\n",
        "a mode one past the last passes the range rule in parse and in the rule pass",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "    except OverflowError:  # complex() of an int past the float range\n",
        "    except ZeroDivisionError:\n",
        "a hand-built dualrail amplitude of 10**400 raises a bare OverflowError from the rule pass",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "for z in map(complex, amplitudes):",
        "for z in amplitudes:",
        "a numpy amplitude whose square overflows warns instead of failing the norm check",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'self.touch("ket", range(self.mode_count), prepares=True)',
        'self.touch("ket", range(self.mode_count))',
        "a ket after a dualrail on the same modes passes the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'occ = _checked(as_ints, occ, "photon counts")',
        "occ = tuple(occ)",
        "a ket occupation of (1.0, 0) passes the rule pass and raises a bare ValueError from the engine",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        if min(occ) < 0:\n",
        "        if min(occ) < -1:\n",
        "a ket occupation of (-1, 2) passes the rule pass and formats to text parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'if _checked(as_int, count, "photon count") < 0:',
        "if count < 0:",
        "a predicate count of 1.0 passes the rule pass and formats as 1.0",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'name, count = _sized(equality, 2, what, "(name, count) entries")',
        "name, count = equality",
        "a clause missing a tuple level raises a bare ValueError from the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'occ, amp = _sized(term, 2, "ket term", "entries")',
        "occ, amp = term",
        "a ket term of three entries raises a bare ValueError from the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        '    except TypeError:\n        raise CircuitError(f"expected {what} {noun} as a sequence',
        '    except ZeroDivisionError:\n        raise CircuitError(f"expected {what} {noun} as a sequence',
        "bell modes of 5 raise a bare TypeError from len",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "z = 0j + amp  # complex() would parse a string",
        "z = complex(amp)",
        "a dualrail amplitude of '1' passes the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        except OverflowError:  # as is_normalized judges it\n",
        "        except ZeroDivisionError:\n",
        "a ket amplitude of 10**400 raises a bare OverflowError from the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'm = [self.amplitude("bs matrix", z) for z in element.matrix]',
        "m = list(element.matrix)",
        "a bs matrix entry of 10**400 raises a bare OverflowError from ModeUnitary",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "map(str, map(index, occ))",
        "map(str, occ)",
        "format writes a bool occupation as True, which parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "{name} == {index(count)}",
        "{name} == {count}",
        "format writes a bool predicate count as True, which parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "    z = complex(z)  # a numpy scalar's repr is not a .loc number\n",
        "",
        "format writes a numpy amplitude as np.float64(0.8), which parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'f"modes {index(ir.mode_count)}"',
        'f"modes {ir.mode_count}"',
        "format writes a bool mode count as modes True, which parse rejects",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "given = iter(amplitudes)",
        "given = iter(amplitudes[::-1])",
        "a gate binds the target's amplitudes into the control's preparation and the control's into the target's",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "key = (build, policy, *shape)",
        "key = (build, *shape)",
        "the program memo is keyed without the policy, so a gate runs the first policy it was called with",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "        _validate(ir)\n        _PROGRAMS[key] = ir\n",
        "        _PROGRAMS[key] = ir\n",
        "a gate's program never goes through the rule pass",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "amps.append(0j + a)  # complex() would parse a string",
        "amps.append(a)",
        "a string amplitude passes a gate's entry check and fails later with a TypeError",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "    _validate(ir)\n    return _run_checked(ir)\n",
        "    return _run_checked(ir)\n",
        "run_branches runs a hand-built program without the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "_limit_terms(ir, element, len(terms) * sum(",
        "_limit_terms(ir, element, sum(",
        "a preparation is bounded by the terms it is given, not by the terms it writes",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "for k, a in zip(rails.RAIL_KETS, amps) if a)",
        "for k, a in zip(rails.RAIL_KETS, amps))",
        "a basis dualrail writes, and the term bound counts, a term for its zero amplitude",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "return element.modes, _BELL_FACTORS[element.kind]",
        'return element.modes, _BELL_FACTORS["phi+"]',
        "every bell prepares the phi+ factor built at import",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        hash(name)\n",
        "        pass\n",
        "an unhashable label or outcome name raises a bare TypeError from the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'for element in _sequence(ir.elements, "program", "elements"):',
        "for element in ir.elements:",
        "a program whose elements are not a sequence raises a bare TypeError from the rule pass",
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
