"""The benchmark's four workloads: seeded inputs, operations and output checks.

Every workload is a deck of operations built from the workload seed during
set-up. An operation is one call (or one short chain of calls) into the
public ``dualrail`` API, or one ``python -m dualrail.cli`` child process,
plus a check of its output against values the benchmark knows independently.

Operations reach the library through module attributes at call time
(``protocols.run_destructive_csign``, never a bound local), so the tracer in
``tracer.py`` sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import calibrate

WORKLOADS = ("gates", "verify", "wide-states", "cli")

TOL = 1e-12
VERIFY_SAMPLES = 8

# Accepted probabilities the paper derives for each gate and policy, with
# basis-state controls for the destructive gate. A test points one of these
# at a wrong value to show that a failing check lands in fail_ratio.
EXPECTED_ACCEPT = {
    ("destructive", "strict"): 0.25,
    ("destructive", "feedforward"): 0.5,
    ("encoder", "strict"): 0.25,
    ("encoder", "feedforward"): 0.5,
    ("nondestructive", "strict"): 1.0 / 16.0,
    ("nondestructive", "feedforward"): 0.25,
    ("fig1", "strict"): 0.25,
    ("fig2", "feedforward"): 0.25,
}


@dataclass
class Op:
    """One closed-loop operation: ``run`` calls the program, ``check`` judges it.

    ``check`` returns None when the output is right and a one-line reason
    otherwise. ``inprocess`` replaces ``run`` in traced runs when ``run``
    starts a child process, so the tracer can see the layers it calls.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    inprocess: Callable[[], Any] | None = None


@dataclass
class Workload:
    name: str
    deck: list[Op]
    warmup: list[Op]
    # Ops per traced pass: a prefix of the deck holding every layer the
    # workload is named for.
    trace_ops: int
    # Work done once under tracing before the traced passes (``.loc`` parsing).
    traced_setup: list[Callable[[], Any]] = field(default_factory=list)
    kernel: calibrate.Kernel = calibrate.DICT_LOOP


@dataclass(frozen=True)
class Context:
    """Where the benchmark runs: checkout root, interpreter and child env."""

    root: Path
    python: str
    env: dict[str, str]
    out_dir: Path


def build(name: str, seed: int, ctx: Context) -> Workload:
    """The named workload's deck, built from ``seed`` alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _DECKS[name](rng, seed, ctx)


# --------------------------------------------------------------------------
# Shared input generation and checks
# --------------------------------------------------------------------------


def random_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def basis_qubit(rng: np.random.Generator) -> tuple[complex, complex]:
    return (0j, 1 + 0j) if rng.integers(2) else (1 + 0j, 0j)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOL


def _fidelity_problem(fidelity: float | None) -> str | None:
    if fidelity is None:
        return "no accepted output to compare with the reference"
    if not _close(fidelity, 1.0):
        return f"fidelity {fidelity!r} differs from 1 by more than {TOL}"
    return None


def _accept_problem(value: float, key: tuple[str, str]) -> str | None:
    expected = EXPECTED_ACCEPT[key]
    if not _close(value, expected):
        return f"accepted probability {value!r}, expected {expected!r}"
    return None


def decode_pairs(terms: dict[tuple[int, ...], complex], pairs: list[tuple[int, int]]) -> np.ndarray:
    """Logical amplitudes of ``terms`` on dual-rail ``pairs`` (rail1, rail0).

    Written here rather than taken from ``rails`` so the check does not rely
    on the code it checks. Weight off the dual-rail subspace is returned in
    an extra last slot.
    """
    amps = np.zeros(2 ** len(pairs) + 1, dtype=complex)
    for ket, amp in terms.items():
        index = 0
        for r1, r0 in pairs:
            bits = (ket[r1], ket[r0])
            if bits not in ((1, 0), (0, 1)):
                index = -1
                break
            index = 2 * index + (1 if bits == (1, 0) else 0)
        if index < 0 or sum(ket) != len(pairs):
            amps[-1] += abs(amp)
        else:
            amps[index] += amp
    return amps


def _state_fidelity(amps: np.ndarray, reference: np.ndarray) -> float:
    return float(abs(np.vdot(reference, amps[:-1])) ** 2)


# --------------------------------------------------------------------------
# gates: many small states, per-call overhead
# --------------------------------------------------------------------------

_FIG_TARGET_LINE = "dualrail 0.7071067811865476 0 0.7071067811865476 0 on m3 m4"
_FIG_CONTROL_LINE = "dualrail 0 0 1 0 on m1 m2"
_Z = np.diag([1.0, -1.0]).astype(complex)


def _qubit_words(q: tuple[complex, complex]) -> str:
    return " ".join(repr(float(x)) for z in q for x in (z.real, z.imag))


def fig_variant(source: str, control: tuple[complex, complex], target: tuple[complex, complex]) -> str:
    """A shipped figure circuit with the benchmark's own control and target."""
    if _FIG_TARGET_LINE not in source or _FIG_CONTROL_LINE not in source:
        raise ValueError("figure circuit no longer has the expected preparation lines")
    source = source.replace(_FIG_CONTROL_LINE, f"dualrail {_qubit_words(control)} on m1 m2")
    return source.replace(_FIG_TARGET_LINE, f"dualrail {_qubit_words(target)} on m3 m4")


def csign_output(control: tuple[complex, complex], target: tuple[complex, complex]) -> np.ndarray:
    """Target after the sign flip, for a basis-state control."""
    t = np.array(target, dtype=complex)
    return _Z @ t if abs(control[1]) == 1.0 else t


def _circuit_op(kind: str, ir, reference: np.ndarray, pairs: list[tuple[int, int]]) -> Op:
    from dualrail import circuits

    policy = "strict" if kind == "fig1" else "feedforward"

    def check(report) -> str | None:
        problem = _accept_problem(report.survived_probability, (kind, policy))
        if problem:
            return problem
        if not _close(report.survived_probability + report.rejected_probability, 1.0):
            return "survived and rejected probability do not sum to 1"
        for br in report.branches:
            fid = _state_fidelity(decode_pairs(br.residual.terms, pairs), reference)
            if not _close(fid, 1.0):
                return f"branch {br.counts} has fidelity {fid!r}"
        return None

    return Op(kind, lambda: circuits.execute(ir), check)


def _gate_op(kind: str, policy: str, inputs: tuple, label: str) -> Op:
    """One gate call; ``(a0, a1)`` pairs in ``inputs`` become qubits, the
    encoder's copy count passes through."""
    from dualrail import protocols
    from dualrail.rails import LogicalAmplitudes

    fn_name = {
        "destructive": "run_destructive_csign",
        "encoder": "run_quantum_encoder",
        "nondestructive": "run_nondestructive_csign",
    }[kind]
    args = [LogicalAmplitudes(*a) if isinstance(a, tuple) else a for a in inputs]

    def run():
        return getattr(protocols, fn_name)(*args, policy)

    def check(result) -> str | None:
        return _accept_problem(result.accepted_probability, (kind, policy)) or _fidelity_problem(
            result.fidelity_vs_reference
        )

    return Op(f"{kind}/{policy}/{label}", run, check)


def _gates_block(rng: np.random.Generator, fig_sources: dict[str, str]) -> list[Op]:
    """Twenty calls of fixed make-up; only inputs, policies and order are seeded.

    Sorted by cost: five basis-state encoder calls, then eight calls of
    about 0.6 ms (random-input encoders, destructive gates, fig1) that hold
    p50, then the basis-state nondestructive calls and fig2, then four
    random-input nondestructive calls that hold p90.
    """
    from dualrail import circuits

    def policy() -> str:
        return ("strict", "feedforward")[int(rng.integers(2))]

    ops = []
    for n in range(2, 7):
        ops.append(_gate_op("encoder", policy(), (basis_qubit(rng), n), f"n{n}-basis"))
        ops.append(_gate_op("encoder", policy(), (random_qubit(rng), n), f"n{n}-random"))
    for p in ("strict", "feedforward"):
        ops.append(_gate_op("destructive", p, (basis_qubit(rng), random_qubit(rng)), "basis-control"))
        ops.append(_gate_op("nondestructive", p, (basis_qubit(rng), basis_qubit(rng)), "basis"))
        for _ in range(2):
            ops.append(_gate_op("nondestructive", p, (random_qubit(rng), random_qubit(rng)), "random"))
    for kind, pairs in (("fig1", [(0, 1)]), ("fig2", [(0, 1), (2, 3)])):
        control, target = basis_qubit(rng), random_qubit(rng)
        ir = circuits.parse(fig_variant(fig_sources[kind], control, target))
        out = csign_output(control, target)
        reference = out if kind == "fig1" else np.kron(np.array(control, dtype=complex), out)
        ops.append(_circuit_op(kind, ir, reference, pairs))
    rng.shuffle(ops)
    return ops


def _read_figs(ctx: Context) -> dict[str, str]:
    data = ctx.root / "src" / "dualrail" / "data"
    return {k: (data / f"{k}.loc").read_text(encoding="utf-8") for k in ("fig1", "fig2")}


GATES_BLOCKS = 30
GATES_TRACE_BLOCKS = 3


def _build_gates(rng: np.random.Generator, seed: int, ctx: Context) -> Workload:
    figs = _read_figs(ctx)
    deck = list(itertools.chain.from_iterable(_gates_block(rng, figs) for _ in range(GATES_BLOCKS)))
    texts = [fig_variant(figs[k], basis_qubit(rng), random_qubit(rng)) for k in ("fig1", "fig2")]

    def reparse():
        from dualrail import circuits

        for text in texts:
            circuits.parse(text)

    block = len(deck) // GATES_BLOCKS
    return Workload("gates", deck, deck[:block], block * GATES_TRACE_BLOCKS, [reparse])


# --------------------------------------------------------------------------
# verify: the seeded invariant suite, dominated by the teleport table
# --------------------------------------------------------------------------

# Verify seeds differ in cost, so the deck holds many of them: p90 then
# averages over several costly seeds instead of resting on the single
# costliest one a workload seed happened to draw.
VERIFY_DISTINCT = 48
VERIFY_REPEATS = 16


def _build_verify(rng: np.random.Generator, seed: int, ctx: Context) -> Workload:
    from dualrail import verify

    distinct = [int(s) for s in rng.integers(0, 2**31, size=VERIFY_DISTINCT)]
    seeds = distinct + [int(s) for s in rng.choice(distinct, size=VERIFY_REPEATS)]
    rng.shuffle(seeds)
    first_text: dict[int, str] = {}

    def make(s: int) -> Op:
        def check(report) -> str | None:
            text = report.to_text()
            if not report.all_passed:
                return f"verify seed {s} reports failed checks"
            if "8 of 16 entries disagree" not in text:
                return f"verify seed {s} summary lacks '8 of 16 entries disagree'"
            if first_text.setdefault(s, text) != text:
                return f"verify seed {s} text differs from its first run"
            return None

        return Op("verify", lambda: verify.run_verification(s, VERIFY_SAMPLES), check)

    deck = [make(s) for s in seeds]
    warm = int(rng.integers(0, 2**31))
    return Workload("verify", deck, [make(warm)], 4, kernel=calibrate.NUMPY_SMALL)


# --------------------------------------------------------------------------
# wide-states: many-term states through beam-splitter meshes and k-mode unitaries
# --------------------------------------------------------------------------

# (modes, photons) of the dense input states of one block of twenty; terms =
# C(modes + photons - 1, photons), from 20 to 1,716. Sorted by cost, the
# middle eight operations (10m4p, about 40 ms each) and the top four (8m6p)
# are plateaus of one shape each, so p50 and p90 each fall well inside one
# plateau instead of near a gap between two shapes.
MESH_SHAPES = (
    (7, 4), (6, 5), (8, 4), (9, 4),
    (10, 4), (10, 4), (10, 4), (10, 4), (10, 4), (10, 4), (10, 4), (10, 4),
    (8, 5),
    (8, 6), (8, 6), (8, 6), (8, 6),
)
KMODE_SHAPES = ((4, 3), (5, 4), (6, 4))
MESH_DEPTH = 4
WIDE_BLOCKS = 8


def sector_kets(modes: int, photons: int) -> list[tuple[int, ...]]:
    """Every occupation vector of ``modes`` modes holding ``photons`` photons."""
    kets = []
    for bars in itertools.combinations(range(photons + modes - 1), modes - 1):
        edges = (-1,) + bars + (photons + modes - 1,)
        kets.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(modes)))
    return kets


def _dense_terms(rng: np.random.Generator, kets: list[tuple[int, ...]]) -> dict:
    amps = rng.normal(size=len(kets)) + 1j * rng.normal(size=len(kets))
    amps = amps / np.linalg.norm(amps)
    return dict(zip(kets, (complex(a) for a in amps)))


def _wide_op(kind: str, modes: int, photons: int, terms: dict, elements: list, detect: list[int]) -> Op:
    from dualrail import measure, optics
    from dualrail.fock import FockState

    norm_in = sum(abs(a) ** 2 for a in terms.values())

    def run():
        state = FockState(modes, terms)
        for element_modes, u in elements:
            state = optics.apply_mode_unitary(state, element_modes, u)
        return state, measure.outcome_distribution(state, detect)

    def check(result) -> str | None:
        state, branches = result
        if state.mode_count != modes:
            return f"mode count changed from {modes} to {state.mode_count}"
        if any(sum(k) != photons for k in state.terms):
            return f"an output ket lost its source photon total {photons}"
        norm_out = sum(abs(a) ** 2 for a in state.terms.values())
        if abs(norm_out - norm_in) > TOL:
            return f"norm drifted by {norm_out - norm_in:.3e}"
        total = sum(b.probability for b in branches)
        if abs(total - norm_in) > TOL:
            return f"branch probabilities sum to {total!r}, input norm {norm_in!r}"
        return None

    return Op(f"{kind}/{modes}m{photons}p", run, check)


def _wide_block(rng: np.random.Generator, kets: dict) -> list[Op]:
    from dualrail import optics

    ops = []
    for modes, photons in MESH_SHAPES:
        elements = []
        for _ in range(MESH_DEPTH):
            i = int(rng.integers(modes - 1))
            u = optics.hadamard_bs() if rng.integers(2) else optics.ModeUnitary(random_unitary(rng, 2))
            elements.append(([i, i + 1], u))
        detect = [int(m) for m in rng.choice(modes, size=2, replace=False)]
        terms = _dense_terms(rng, kets[modes, photons])
        ops.append(_wide_op("mesh", modes, photons, terms, elements, detect))
    for modes, photons in KMODE_SHAPES:
        order = [int(m) for m in rng.permutation(modes)]
        elements = [(order, optics.ModeUnitary(random_unitary(rng, modes)))]
        detect = [int(m) for m in rng.choice(modes, size=2, replace=False)]
        terms = _dense_terms(rng, kets[modes, photons])
        ops.append(_wide_op("kmode", modes, photons, terms, elements, detect))
    rng.shuffle(ops)
    return ops


def _build_wide(rng: np.random.Generator, seed: int, ctx: Context) -> Workload:
    from dualrail import optics

    kets = {shape: sector_kets(*shape) for shape in set(MESH_SHAPES + KMODE_SHAPES)}
    deck = list(itertools.chain.from_iterable(_wide_block(rng, kets) for _ in range(WIDE_BLOCKS)))
    small = sector_kets(4, 3)
    warmup = [
        _wide_op("mesh", 4, 3, _dense_terms(rng, small), [([0, 1], optics.hadamard_bs())], [0, 1]),
        _wide_op("kmode", 4, 3, _dense_terms(rng, small), [([0, 1, 2, 3], optics.ModeUnitary(random_unitary(rng, 4)))], [2, 3]),
    ]
    return Workload("wide-states", deck, warmup, len(MESH_SHAPES) + len(KMODE_SHAPES))


# --------------------------------------------------------------------------
# cli: one child process per command
# --------------------------------------------------------------------------

CLI_BLOCKS = 20
_ACCEPT_LINE = re.compile(r"^accepted probability: ([0-9.]+)$", re.MULTILINE)


def _is_number_pair(item: Any) -> bool:
    return type(item) is list and len(item) == 2 and all(type(x) in (int, float) for x in item)


class ReportValidator:
    """Checks a ``--json`` report against the shipped schema.

    Full jsonschema validation of an ``encoder --n 16`` report, with its
    65,536 basis labels and amplitude pairs, takes about 3 s, several times
    the command itself. When the schema gives those two lists the item rules
    below, their items are checked against the rules directly and the rest
    of the report goes through jsonschema; any other schema is validated in
    full.
    """

    ITEM_RULES = {
        "basis": ({"type": "string"}, lambda item: type(item) is str),
        "amplitudes": (
            {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            _is_number_pair,
        ),
    }

    def __init__(self, schema_path: Path) -> None:
        import jsonschema

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft7Validator(schema)
        props = schema.get("properties", {}).get("output", {}).get("properties", {})
        self._direct = {
            name: test
            for name, (rule, test) in self.ITEM_RULES.items()
            if props.get(name, {}).get("items") == rule
        }

    def problem(self, doc: Any) -> str | None:
        output = doc.get("output") if isinstance(doc, dict) else None
        if isinstance(output, dict):
            short = dict(output)
            for name, test in self._direct.items():
                items = output.get(name)
                if isinstance(items, list) and len(items) > 1:
                    for item in items:
                        if not test(item):
                            return f"output.{name} item {item!r} breaks the schema"
                    short[name] = items[:1]
            doc = {**doc, "output": short}
        error = next(iter(self._validator.iter_errors(doc)), None)
        return None if error is None else f"schema: {error.message[:200]}"


def _cli_op(label: str, argv: list[str], expected: float, as_json: bool, ctx: Context, validator) -> Op:
    def run():
        proc = subprocess.run(
            [ctx.python, "-m", "dualrail.cli", *argv],
            cwd=ctx.root,
            env=ctx.env,
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    def inprocess():
        from dualrail import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        if as_json:
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return f"output is not JSON: {exc}"
            problem = validator.problem(doc)
            if problem:
                return problem
            value = doc["accepted_probability"]
            problem = _fidelity_problem(doc["fidelity_vs_reference"])
            if problem:
                return problem
        else:
            found = _ACCEPT_LINE.search(stdout)
            if not found:
                return "no 'accepted probability' line in the table"
            value = float(found.group(1))
        if abs(value - expected) > TOL:
            return f"accepted probability {value!r}, expected {expected!r}"
        return None

    return Op(f"cli/{label}", run, check, inprocess)


def _arg(q: tuple[complex, complex]) -> str:
    return ",".join(repr(float(x)) for z in q for x in (z.real, z.imag))


def _build_cli(rng: np.random.Generator, seed: int, ctx: Context) -> Workload:
    validator = ReportValidator(ctx.root / "src" / "dualrail" / "data" / "run_report.schema.json")
    figs = _read_figs(ctx)
    inputs = ctx.out_dir / f"cli-seed{seed}"
    inputs.mkdir(parents=True, exist_ok=True)

    def block(b: int) -> list[Op]:
        """Seven commands; ``encoder --n 16`` runs twice, so that p90 falls
        well inside its plateau (2 of 7 operations) and rests on about 28
        samples per run rather than 17."""
        paths = {}
        for kind in ("fig1", "fig2"):
            path = inputs / f"{kind}-{b}.loc"
            path.write_text(fig_variant(figs[kind], basis_qubit(rng), random_qubit(rng)), encoding="utf-8")
            paths[kind] = str(path)

        def op(label: str, argv: list[str], expected: float) -> Op:
            return _cli_op(label, argv, expected, "--json" in argv, ctx, validator)

        ops = [
            op("csign-destructive", ["csign-destructive", f"--control={_arg(basis_qubit(rng))}",
                                     f"--target={_arg(random_qubit(rng))}"], 0.25),
            op("csign-nondestructive-ff-json", ["csign-nondestructive", "--policy", "feedforward", "--json",
                                                f"--control={_arg(random_qubit(rng))}",
                                                f"--target={_arg(random_qubit(rng))}"], 0.25),
            op("encoder-n3", ["encoder", "--n", "3", f"--input={_arg(random_qubit(rng))}"], 0.25),
            op("run-fig1", ["run", paths["fig1"]], 0.25),
            op("run-fig2", ["run", paths["fig2"]], 0.25),
        ]
        for _ in range(2):
            ops.append(op("encoder-n16-ff-json", ["encoder", "--n", "16", "--policy", "feedforward", "--json",
                                                  f"--input={_arg(random_qubit(rng))}"], 0.5))
        rng.shuffle(ops)
        return ops

    deck = list(itertools.chain.from_iterable(block(b) for b in range(CLI_BLOCKS)))
    warmup = [_cli_op("encoder-n2", ["encoder", "--n", "2"], 0.25, False, ctx, validator)]
    return Workload("cli", deck, warmup, len(deck) // CLI_BLOCKS, kernel=calibrate.CHILD)


_DECKS = {
    "gates": _build_gates,
    "verify": _build_verify,
    "wide-states": _build_wide,
    "cli": _build_cli,
}
