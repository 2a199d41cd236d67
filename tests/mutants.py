"""How hard the tier-1 tests are to fool: one-line faults they must catch.

Each mutant replaces one exact snippet of a source file. For each, the script
copies ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there, and runs tier-1 with ``pytest -x``.
A failing run KILLED the mutant, and the first failing test is named; a
passing run means it SURVIVED. A run still going after ``TIME_LIMIT`` times the
unmutated run's seconds is stopped, with every process it started, and counts as
KILLED, printed TIMEOUT: a fault that makes a test hang, or pytest diff two texts
of megabytes, is caught. The tier-1 check of this list itself is left
out, since it fails on any mutated copy. The runs fix ``--hypothesis-seed=0``,
so a mutant that only a ``@given`` test catches gets the same verdict on every
run; tier-1 itself keeps drawing fresh examples. The unmutated copy runs first and
must pass. Run from the repository root::

    python tests/mutants.py

It prints one line per mutant and the kill rate, and exits 1 if a mutant
survived. ``test_boundaries.py`` checks in tier-1 that every snippet still
occurs exactly once in its file, so the list cannot silently go stale.

Source paths, relative to the repository root, narrow the run to the mutants
of those files; the unmutated copy still runs first::

    python tests/mutants.py src/dualrail/optics.py

Mutants keep their numbers in the whole list, and the kill rate counts only
those run. With no path, every mutant runs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "perfbench", "pyproject.toml"]
LIST_CHECK = "tests/test_boundaries.py::test_every_mutant_snippet_occurs_exactly_once"
TIME_LIMIT = 10  # times the unmutated run


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
        "scale = scales[mono] = math.sqrt(math.prod(map(math.factorial, mono)))",
        "scale = scales[mono] = math.prod(map(math.sqrt, map(math.factorial, mono)))",
        "the direct expansion scales by prod sqrt(q!), changing amplitude bits",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "columns = [[(r, c) for r, c in enumerate(col) if c != 0] for col in columns]",
        "columns = [[((r + 1) % len(col), c) for r, c in enumerate(col) if c != 0] for col in columns]",
        "the direct expansion writes each creation operator's step at row r + 1 (mod k), not r",
    ),
    Mutant(
        "src/dualrail/optics.py",
        'grown[key] = grown.get(key, "0j") + f" + {name} * e{r}"',
        'grown[key] = f"0j + {name} * e{r}" + grown.get(key, "0j")[2:]',
        "the generated kernels prepend each product to a monomial's sum, so it runs in the reverse of the loop's order",
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
        "norm, kernel = _pair_plan(local)",
        "norm, kernel = _pair_plan((sum(local), 0))",
        "the plan memo is keyed on the photon total, not the local occupation",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "        m.flags.writeable = False\n",
        "",
        "ModeUnitary hands out a writable matrix, whose writes its columns never see",
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
        'amps = (as_amplitude(a, "dualrail amplitude") for a in (a0, a1))',
        "amps = (a0, a1)",
        "injected dual-rail amplitudes stay numpy scalars instead of Python complex",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "for name, count in clause:",
        "for name, count in clause[:1]:",
        "a postselect or correct clause reads only its first name",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "tuple(FockState(mode_count, terms).terms.items())",
        "tuple(terms)",
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
        "            if len(labels) != n:\n",
        "            if False:\n",
        "a hand-built program with too few labels raises IndexError, too many format to text parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            if len(set(labels)) != n:\n",
        "            if False:\n",
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
        'self.mode(_checked(as_int, m, f"{what} mode"))',
        "self.mode(int(m))",
        "a hand-built mode of 0.0 runs as mode 0 and formats as 1.0",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            element = ApplyBS(modes, m if m is None else tuple(m))\n",
        "",
        "a bs keeps its caller's mode and matrix sequences, so format writes a program the rule pass never saw",
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
        "u = _checked(ModeUnitary, [[m[0], m[1]], [m[2], m[3]]])",
        "u = ModeUnitary([[m[0], m[1]], [m[2], m[3]]])",
        "a non-unitary bs matrix raises a bare ValueError from the rule pass",
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
        "src/dualrail/fock.py",
        "    except OverflowError:  # an int past the float range\n",
        "    except ZeroDivisionError:\n",
        "an amplitude of 10**400 raises a bare OverflowError from every way in, the rule pass included",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "z = as_amplitude(a, what)",
        "z = a",
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
        'z = _checked(as_amplitude, amp, f"{what} amplitude")',
        "z = complex(amp)",
        "a dualrail amplitude of '1' passes the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        '                    self.amplitude("bs matrix", z)\n',
        "                    pass\n",
        "a bs matrix entry that is not a number is reported as a unitary entry, not as a bs matrix amplitude",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "{name} == {index(count)}",
        "{name} == {count}",
        "format writes a bool predicate count as True, which parse rejects",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        '    z = as_amplitude(z, "amplitude")  # no -0.0 part and no numpy repr, which is no .loc number\n',
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
        "src/dualrail/circuits.py",
        "for k, factor in zip(plan.inputs, factors):",
        "for k, factor in zip(plan.inputs[::-1], factors):",
        "a gate binds the target's factor into the control's preparation and the control's into the target's",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "_run_gate(_destructive_program(policy),",
        '_run_gate(_destructive_program("strict"),',
        "the destructive gate fetches its program without the policy, so it runs the strict one under either",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "_run_gate(_encoder_program(policy, n),",
        "_run_gate(_encoder_program(policy, 2),",
        "the encoder fetches its program without the copy count, so it runs the 2-copy one for every count",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "result = _run_checked(ir._plan, factors)",
        "result = _run_checked(ir._plan, ())",
        "each preparation of a gate writes the program's own factor, logical |0>, not the caller's",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            self.live = tuple(m for m in self.live if m not in self.joint)\n",
        "",
        "the rule pass does not advance the live modes after a joint detection, so later steps act on the wrong positions",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "        self.advance()\n        labels = ",
        "        labels = ",
        "a program that ends on a joint detection keeps its detected modes live, so output_labels lists them",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "@functools.cache\ndef _destructive_program",
        "def _destructive_program",
        "the program memo keeps nothing, so every gate call builds, checks and plans its program again",
    ),
    Mutant(
        "src/dualrail/rails.py",
        'if not is_normalized((q.a0, q.a1), "logical amplitude"):',
        'if not is_normalized(map(complex, (q.a0, q.a1)), "logical amplitude"):',
        "a string amplitude passes a gate's entry check, parsed by complex(), and fails later in the engine",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "return complex(0j + value)",
        "return 0j + value",
        "an array amplitude is broadcast and escapes the reader as a bare TypeError",
    ),
    Mutant(
        "src/dualrail/fock.py",
        "return complex(0j + value)",
        "return complex(value)",
        "a string amplitude such as '1' is parsed, so FockState, the gates and the rule pass take it",
    ),
    Mutant(
        "src/dualrail/fock.py",
        'factor = as_amplitude(factor, "scale factor")',
        'as_amplitude(factor, "scale factor")',
        "scaled checks its factor but multiplies by the numpy value, in complex64 for a float32",
    ),
    Mutant(
        "src/dualrail/optics.py",
        '    as_amplitude(z, "unitary entry")  # complex() alone would parse a string\n',
        "",
        "ModeUnitary parses a string entry through complex()",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "if not prepares and (m not in self.live or m in self.joint):",
        "if not prepares and m in self.joint:",
        "a mode consumed by an earlier joint detection may be used again, and fails outside the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "_limit_terms(name, len(factor) * sum(",
        "_limit_terms(name, sum(",
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
        "at, _BELL_FACTORS[element.kind])",
        'at, _BELL_FACTORS["phi+"])',
        "every bell prepares the phi+ factor built at import",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "    if not isinstance(name, str):\n",
        "    if False:\n",
        "a label or outcome name that is not a str passes, and mixed int and str names fail execute's sort",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        'for element in _sequence(ir.elements, "program", "elements"):',
        "for element in ir.elements:",
        "a program whose elements are not a sequence raises a bare TypeError from the rule pass",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        '            modes, at = self.touch("bell", modes, "Bell modes must be distinct", prepares=True)\n',
        '            modes, at = self.touch("bell", modes, "Bell modes must be distinct", prepares=True)\n'
        "            self.inputs.append(len(self.steps))\n",
        "a bell counts as a gate input, so the nondestructive gate binds the control's factor into its Bell step",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "    b.flush()\n    return CircuitIR._planned(b.rules)\n",
        "    ir = CircuitIR._planned(b.rules)\n    b.flush()\n    return ir\n",
        "parse takes its plan before its final flush, so a ket-only program runs without its ket",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "x * y.conjugate()",
        "x * y",
        "ModeUnitary checks U U^T, not U U^H, and rejects every unitary with a complex entry",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "if not defect <= UNITARY_TOL:",
        "if not defect < UNITARY_TOL:",
        "ModeUnitary rejects a matrix whose defect is exactly UNITARY_TOL",
    ),
    Mutant(
        "src/dualrail/optics.py",
        ", key=lambda d: (d != d, d))",
        ")",
        "ModeUnitary's max keeps a 0 defect ahead of a later nan, and accepts a nan entry off the first position",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "    @functools.cached_property\n    def matrix(self):",
        "    @property\n    def matrix(self):",
        "ModeUnitary builds a new matrix on every read",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "from . import measure, rails\n",
        "from . import measure, rails\nimport numpy as np\n",
        "circuits imports numpy at import, so every .loc run and usage error loads it",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            element = Detect(mode, element.name)\n",
        "",
        "a detect keeps its caller's mode, so a 0-d numpy array mode leaves the program unhashable",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            element = PrepareKet(tuple(terms))\n",
        "            element = PrepareKet(tuple((tuple(occ), amp) for occ, amp in element.terms))\n",
        "a ket reads its caller's terms twice, so an iterator occupation reaches the engine empty",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "            out[ket] = 0j + amp\n            continue\n",
        "            out[ket] = 0j + amp\n",
        "a ket with no photon on the pair is also expanded, so its amplitude is added twice",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "for j in (0,) * a + (1,) * b",
        "for j in (1,) * b + (0,) * a",
        "the closed form grows mode 1's operators before mode 0's, changing amplitude bits",
    ),
    Mutant(
        "src/dualrail/reports.py",
        "row, col = divmod(range(len(self))[index], len(self.low))",
        "row, col = divmod(range(len(self))[index], len(self.high))",
        "a basis label is looked up with its halves split the other way, wrong for odd n",
    ),
    Mutant(
        "src/dualrail/reports.py",
        "width = len(low) if low is not None",
        "width = len(high) if low is not None",
        "register rows are cut into label blocks by the high half's width, so odd n gets wrong labels",
    ),
    Mutant(
        "src/dualrail/reports.py",
        "pieces.append((sep + text) * part)",
        "pieces.append((sep + text) * (part - 1))",
        "a run of one pair object is rendered one entry short",
    ),
    Mutant(
        "src/dualrail/reports.py",
        "[(sep + text) * _CHUNK_ROWS] * whole if whole",
        "[(sep + text) * _CHUNK_ROWS] * (whole - 1) if whole",
        "a run longer than one chunk loses 4,096 rows",
    ),
    Mutant(
        "src/dualrail/reports.py",
        "list(v) if type(v) is _Labels else v",
        "v",
        "to_dict hands the label sequence to json.dumps, which cannot encode it",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "piece = text[at : at + _WRITE_CHARS]",
        "piece = text[at : at + _WRITE_CHARS - 1]",
        "each write slice drops its last character",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "_WRITE_CHARS = 1 << 20",
        "_WRITE_CHARS = 1 << 23",
        "a 4 MB report goes to stdout in one write, which encodes a second copy of it",
    ),
    Mutant(
        "src/dualrail/optics.py",
        'f" + {name} * e{r}"',
        'f" + {name} * e{k - 1 - r}"',
        "the generated kernels read each product's column entry for the mirrored mode, e{k-1-r} for e{r}",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "for i, mono in enumerate(monomials)}",
        "for i, mono in enumerate([*monomials][1:] + [*monomials][:1])}",
        "a generated kernel scales each output monomial by the next one's sqrt(prod q!)",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "if a + b > KERNEL_PHOTONS:",
        "if a + b >= KERNEL_PHOTONS:",
        "an occupation of exactly KERNEL_PHOTONS photons expands directly, not by a generated kernel",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "key := (place(ket + (0,) * k), sum(local))",
        "key := (place(ket + (0,) * k), 0)",
        "kets with one rest and different photon totals share one dense kernel and sum",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "dense = all(map(all, self._columns))",
        "dense = sum(not z for col in self._columns for z in col) <= 1",
        "a unitary with one zero entry runs the dense kernel, which emits monomials only the zero reaches",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "if k * math.comb(n + k - 1, k) > KERNEL_TERMS:",
        "if k * math.comb(n + k - 1, k) >= KERNEL_TERMS:",
        "a (k, N) of exactly KERNEL_TERMS growth terms expands directly, not by a generated kernel",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "        os.dup2(devnull, sys.stdout.fileno())\n",
        "",
        "a failed stdout keeps what it holds, so the interpreter's last flush fails again after the error",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "if sys.stdout is None:",
        "if False:",
        "a command started with stdout closed ends in an internal error",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "        sys.stdout.flush()\n",
        "",
        "a short report to a full stdout fails only at the interpreter's last flush",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "if isinstance(exc, BrokenPipeError):",
        "if False:",
        "a reader that leaves early gets an error line and exit 74, not a quiet 141",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "except BrokenPipeError:",
        "except ConnectionResetError:",
        "a reader that leaves early ends the command in an internal error",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "except KeyboardInterrupt:",
        "except InterruptedError:",
        "an interrupt prints a traceback",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "kernel(out, list(ket), p, q, amp / norm, columns)",
        'kernel(out, key if "key" in locals() else (key := list(ket)), p, q, amp / norm, columns)',
        "the pair kernels write every ket's outputs onto the first ket's list, keeping its other counts",
    ),
    Mutant(
        "src/dualrail/optics.py",
        "p, q = modes",
        "q, p = modes",
        "the pair kernels write each monomial's counts onto the listed modes swapped",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "while data:",
        "if data:",
        "an unbuffered stdout's short write drops the rest of its slice, and a reader that leaves exits 0",
    ),
    Mutant(
        "src/dualrail/cli.py",
        'binary = getattr(sys.stdout, "buffer", None)',
        "binary = None",
        "every slice goes through the text layer, which ignores a raw stdout's short writes",
    ),
    Mutant(
        "src/dualrail/cli.py",
        "        sys.stdout.flush()  # so no text written earlier can follow the slices\n",
        "",
        "text still pending in stdout's text layer comes out after the slices written past it",
    ),
    Mutant(
        "src/dualrail/circuits.py",
        "            if counts[name] != count:\n                break\n",
        "            if counts[name] != count:\n                continue\n",
        "a failed equality no longer ends its clause, so every postselect and correct predicate holds",
    ),
    Mutant(
        "src/dualrail/protocols.py",
        "m = (bells[r].conj() @ bells[c]).T",
        "m = bells[r].conj() @ bells[c]",
        "the table's projected operator is read transposed, M[q1, q3] for M[q3, q1]",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "            if local not in RAIL_KETS:\n                leakage += abs(amp) ** 2\n",
        "            if local not in RAIL_KETS:\n                leakage += abs(amp) ** 2\n                continue\n",
        "a Pauli correction drops the leaking kets that LEAK_TOL lets through",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "phases[local[0] == 1]",
        "phases[local[1] == 1]",
        "a Pauli correction picks the phase by rail0's photon, so each dual-rail ket takes the other column's",
    ),
    Mutant(
        "src/dualrail/rails.py",
        '"X": ((0, 1), (1, 0))',
        '"X": ((1, 0), (0, 1))',
        "X in PAULIS does not swap the pair, for the Pauli correction and the teleportation table alike",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "phases = (matrix[swap][0], matrix[not swap][1])",
        "phases = (matrix[0][swap], matrix[1][not swap])",
        "a Pauli correction reads each column's phase from the transposed matrix, so Y is -Y",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "= 0j + phases[local[0] == 1] * amp",
        "= phases[local[0] == 1] * amp",
        "a Pauli correction stores the -0.0 a sign flip leaves, which the public constructor's sum turns into 0.0",
    ),
    Mutant(
        "src/dualrail/measure.py",
        "            if counts_of(ket) == counts:\n                weight += abs(amp) ** 2\n",
        "            weight += abs(amp) ** 2\n            if counts_of(ket) == counts:\n",
        "a detection's weight sums every ket of the state, not only those that match its counts",
    ),
    Mutant(
        "src/dualrail/rails.py",
        "if which not in tuple(PAULIS):",
        "if which not in PAULIS:",
        "an unhashable Pauli label raises a bare TypeError, not the unknown-label ValueError",
    ),
]


def run_tier1(mutant: Mutant | None, limit: float | None = None) -> tuple[str | None, float]:
    """The first test that fails on a copy with ``mutant`` applied, or "TIMEOUT" if
    the run lasts more than ``limit`` seconds, and the seconds taken."""
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
        child = subprocess.Popen(
            [
                sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", "--deselect", LIST_CHECK,
            ],
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,  # its own process group, so a timeout stops its children too
        )
        try:
            stdout = child.communicate(timeout=limit)[0]
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return "TIMEOUT", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if child.returncode == 0:
        return None, seconds
    failed = [line.split(" - ")[0] for line in stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return (failed or [f"pytest exit code {child.returncode}"])[0], seconds


def main(paths: list[str]) -> int:
    paths = [Path(p).as_posix() for p in paths]  # "./src/x.py" names "src/x.py"
    chosen = [(n, m) for n, m in enumerate(MUTANTS, 1) if not paths or m.path in paths]
    if not chosen:
        print(f"no mutant in {', '.join(paths)}; the mutated files are {', '.join(sorted({m.path for m in MUTANTS}))}")
        return 2
    start = time.perf_counter()
    failed, seconds = run_tier1(None)
    print(f"baseline    {seconds:6.1f} s  {failed or 'passed'}", flush=True)
    if failed:
        print("the unmutated copy fails tier-1; no mutant can be judged")
        return 2
    killed, limit = 0, TIME_LIMIT * seconds
    for number, mutant in chosen:
        failed, seconds = run_tier1(mutant, limit)
        killed += failed is not None
        verdict = "TIMEOUT" if failed == "TIMEOUT" else "KILLED" if failed else "SURVIVED"
        print(f"{number:>2} {verdict:<8} {seconds:6.1f} s  {mutant.path}: {mutant.breaks}")
        if failed == "TIMEOUT":
            failed = f"stopped after {limit:.0f} s, {TIME_LIMIT} times the unmutated run"
        print(f"   {failed or 'every test passed'}", flush=True)
    print(f"kill rate {killed}/{len(chosen)} ({100 * killed / len(chosen):.0f} %) in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
