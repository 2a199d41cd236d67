"""A small textual language for linear-optical circuits (``.loc`` files).

Line-oriented grammar, ``#`` starts a comment, modes are 1-based integers or
declared labels::

    modes <n> [labels <name> ...]             # 1 <= n <= MAX_MODES (64)
    ket |n1,n2,...,nk> [amp <re> <im>]        # repeatable, terms sum to norm 1
                                              # n1 + ... + nk <= MAX_PHOTONS (64)
    dualrail <a0_re> <a0_im> <a1_re> <a1_im> on <rail1> <rail0>
    bell <phi+|phi-|psi+|psi-> on <m1> <m2> <m3> <m4>
    bs <m1> <m2> [matrix h | matrix <8 reals row-major re im>]
                                              # outputs at most MAX_TERMS (2**16) terms
    detect <mode> as <name>
    postselect <clause> [|| <clause> ...]      # clause: <name> == <int> [&& ...]
    correct z on <rail1> <rail0> if <clause> [|| <clause> ...]

``bs`` defaults to the Hadamard beam splitter with the documented mode-order
convention (first listed mode is the matrix's first input). ``postselect``
lines AND together; within a line ``||`` separates alternative ``&&``
clauses, which is how a feed-forward acceptance set is written. Detection is
destructive: a detected mode cannot appear later. Comments are not preserved
by the formatter.

One engine runs every program, the gates in ``protocols`` included, which
build their IR in Python. It enumerates every detector outcome: consecutive
``detect`` lines are one joint measurement; ``postselect`` flags the branches
it rejects instead of dropping them, so they keep evolving; ``correct`` acts
only on accepted branches. ``run_branches`` returns every branch and the
accepted and rejected weight as one ``RunResult``; ``execute`` keeps only
its survivors.
"""

from __future__ import annotations

import cmath
import itertools
import re
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, Sequence, Union

import numpy as np

from . import measure, rails
from .fock import FockState
from .optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from .rails import DualRailQubit, LogicalAmplitudes, is_normalized

# The widest ``modes`` declaration ``parse`` accepts. It bounds the memory a
# program text can ask for, and it covers every program the package builds
# itself: the encoder at its copy limit uses 2 * 20 + 2 = 42 modes.
MAX_MODES = 64

# The most photons one ``ket`` term may hold. Beam splitters scale each term
# by sqrt(n!) factors, which overflow a float past 170 photons; the limit
# stays well below that and covers every program the package builds itself:
# the encoder at its copy limit holds 20 + 1 = 21 photons per term.
MAX_PHOTONS = 64

# The most terms one beam splitter may output, summed over the live branches.
# Checked before the splitter runs, it bounds the time and memory a program
# text can ask for. Every program the package builds itself stays below 100,
# and perfbench's wide-states inputs hold up to 1,716 terms.
MAX_TERMS = 2**16

# A predicate in disjunctive normal form: OR over tuples of (name, count)
# equalities that are ANDed together.
Predicate = tuple[tuple[tuple[str, int], ...], ...]


class ParseError(Exception):
    """Syntax error with a position pointing into the source text."""

    def __init__(self, line: int, column: int, message: str, token: str = "") -> None:
        where = f"line {line}, column {column}"
        suffix = f" (at {token!r})" if token else ""
        super().__init__(f"{where}: {message}{suffix}")
        self.line = line
        self.column = column
        self.message = message
        self.token = token


class CircuitError(Exception):
    """Semantic error in an otherwise well-formed program."""


# --------------------------------------------------------------------------
# IR
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrepareKet:
    terms: tuple[tuple[tuple[int, ...], complex], ...]


@dataclass(frozen=True)
class PrepareDualRail:
    a0: complex
    a1: complex
    rail1: int
    rail0: int


@dataclass(frozen=True)
class PrepareBell:
    kind: str
    modes: tuple[int, int, int, int]


@dataclass(frozen=True)
class ApplyBS:
    modes: tuple[int, int]
    matrix: tuple[complex, complex, complex, complex] | None  # None = hadamard


@dataclass(frozen=True)
class Detect:
    mode: int
    name: str


@dataclass(frozen=True)
class PostSelect:
    predicate: Predicate


@dataclass(frozen=True)
class CorrectZ:
    rail1: int
    rail0: int
    condition: Predicate


Element = Union[PrepareKet, PrepareDualRail, PrepareBell, ApplyBS, Detect, PostSelect, CorrectZ]


@dataclass(frozen=True)
class CircuitIR:
    mode_count: int
    labels: tuple[str, ...] | None
    elements: tuple[Element, ...]

    def label_of(self, mode: int) -> str:
        return self.labels[mode] if self.labels else str(mode + 1)


# --------------------------------------------------------------------------
# Scanner
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#.*)
    | (?P<ket>\|[0-9,\s]*>)
    | (?P<op>\|\||&&|==)
    | (?P<number>[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*[+-]?)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    text: str
    kind: str
    line: int
    column: int


def _scan_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line_no, pos + 1, "unrecognized character", text[pos])
        kind = m.lastgroup or ""
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append(_Token(m.group(), kind, line_no, pos + 1))
        pos = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int) -> None:
        self.tokens = tokens
        self.line_no = line_no
        self.i = 0

    def error(self, message: str) -> ParseError:
        if self.i < len(self.tokens):
            tok = self.tokens[self.i]
            return ParseError(self.line_no, tok.column, message, tok.text)
        col = self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
        return ParseError(self.line_no, col, message)

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None, what: str | None = None) -> _Token:
        tok = self.peek()
        desc = what or kind or "a token"
        if tok is None:
            raise self.error(f"expected {desc}, found end of line")
        if kind is not None and tok.kind != kind:
            raise self.error(f"expected {desc}")
        self.i += 1
        return tok

    def take_literal(self, text: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            raise self.error(f"expected {text!r}")
        self.i += 1
        return tok

    def take_int(self, what: str) -> int:
        tok = self.take("number", what)
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(self.line_no, tok.column, f"expected an integer {what}", tok.text)

    def take_float(self, what: str) -> float:
        tok = self.take("number", what)
        return float(tok.text)

    def expect_end(self) -> None:
        if not self.done():
            raise self.error("unexpected trailing input")


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _ProgramBuilder:
    def __init__(self) -> None:
        self.mode_count: int | None = None
        self.labels: tuple[str, ...] | None = None
        self.label_to_mode: dict[str, int] = {}
        self.elements: list[Element] = []
        self.ket_terms: list[tuple[tuple[int, ...], complex]] = []
        self.ket_position: int | None = None
        self.ket_where = (0, 0)  # line and column of the first ket term
        self.saw_operation = False

    def mode_ref(self, p: _LineParser, what: str = "mode") -> int:
        tok = p.peek()
        if tok is None:
            raise p.error(f"expected a {what}")
        if tok.kind == "number":
            value = p.take_int(what)
            if not 1 <= value <= (self.mode_count or 0):
                raise ParseError(tok.line, tok.column, f"mode {value} out of range", tok.text)
            return value - 1
        if tok.kind == "name":
            p.take()
            if tok.text not in self.label_to_mode:
                raise ParseError(tok.line, tok.column, "undeclared mode label", tok.text)
            return self.label_to_mode[tok.text]
        raise p.error(f"expected a {what}")

    def predicate(self, p: _LineParser) -> Predicate:
        clauses = []
        while True:
            clause = []
            while True:
                name_tok = p.take("name", "outcome name")
                p.take_literal("==")
                count = p.take_int("photon count")
                if count < 0:
                    raise ParseError(
                        name_tok.line, name_tok.column, "photon count must be non-negative"
                    )
                clause.append((name_tok.text, count))
                nxt = p.peek()
                if nxt is not None and nxt.text == "&&":
                    p.take()
                    continue
                break
            clauses.append(tuple(clause))
            nxt = p.peek()
            if nxt is not None and nxt.text == "||":
                p.take()
                continue
            break
        return tuple(clauses)

    def finish_kets(self) -> None:
        if self.ket_terms:
            element = PrepareKet(tuple(self.ket_terms))
            self.elements.insert(self.ket_position, element)

    def require_modes(self, p: _LineParser) -> int:
        if self.mode_count is None:
            raise p.error("a 'modes' declaration must come first")
        return self.mode_count


def parse(source: str) -> CircuitIR:
    """Parse and validate a circuit program."""
    b = _ProgramBuilder()
    for line_no, raw in enumerate(source.splitlines(), start=1):
        tokens = _scan_line(raw, line_no)
        if not tokens:
            continue
        p = _LineParser(tokens, line_no)
        head = p.take()
        if head.kind != "name":
            raise ParseError(line_no, head.column, "expected a statement keyword", head.text)
        keyword = head.text

        if keyword == "modes":
            if b.mode_count is not None:
                raise ParseError(line_no, head.column, "duplicate 'modes' declaration")
            if b.elements or b.ket_terms:
                raise ParseError(line_no, head.column, "'modes' must be the first statement")
            count = p.take_int("mode count")
            if count <= 0:
                raise ParseError(line_no, head.column, "mode count must be positive")
            if count > MAX_MODES:
                raise ParseError(line_no, head.column, f"mode count must be at most {MAX_MODES}")
            b.mode_count = count
            if not p.done():
                p.take_literal("labels")
                labels = []
                while not p.done():
                    labels.append(p.take("name", "mode label").text)
                if len(labels) != count:
                    raise ParseError(
                        line_no, head.column, f"expected {count} labels, got {len(labels)}"
                    )
                if len(set(labels)) != len(labels):
                    raise ParseError(line_no, head.column, "duplicate mode label")
                b.labels = tuple(labels)
                b.label_to_mode = {name: i for i, name in enumerate(labels)}
            p.expect_end()
            continue

        b.require_modes(p)
        if keyword == "ket":
            tok = p.take("ket", "|n1,n2,...>")
            body = tok.text[1:-1].replace(" ", "")
            if not body:
                raise ParseError(line_no, tok.column, "empty ket", tok.text)
            try:
                occ = tuple(int(x) for x in body.split(","))
            except ValueError:
                raise ParseError(line_no, tok.column, "malformed ket", tok.text)
            if len(occ) != b.mode_count:
                raise ParseError(
                    line_no, tok.column, f"ket has {len(occ)} modes, expected {b.mode_count}"
                )
            if sum(occ) > MAX_PHOTONS:
                raise ParseError(
                    line_no, tok.column, f"a ket may hold at most {MAX_PHOTONS} photons", tok.text
                )
            amp = 1.0 + 0j
            if not p.done():
                amp_tok = p.take_literal("amp")
                amp = complex(p.take_float("amp real part"), p.take_float("amp imaginary part"))
                if not cmath.isfinite(amp):
                    raise ParseError(line_no, amp_tok.column, "ket amplitude must be finite")
            p.expect_end()
            if b.saw_operation:
                raise ParseError(line_no, head.column, "ket terms must come before operations")
            if b.ket_position is None:
                b.ket_position = len(b.elements)
                b.ket_where = (line_no, head.column)
            b.ket_terms.append((occ, amp))
            continue

        if keyword == "dualrail":
            a0 = complex(p.take_float("a0 real part"), p.take_float("a0 imaginary part"))
            a1 = complex(p.take_float("a1 real part"), p.take_float("a1 imaginary part"))
            p.take_literal("on")
            rail1 = b.mode_ref(p, "rail1 mode")
            rail0 = b.mode_ref(p, "rail0 mode")
            p.expect_end()
            if rail1 == rail0:
                raise ParseError(line_no, head.column, "rail modes must be distinct")
            if not is_normalized((a0, a1)):
                raise ParseError(line_no, head.column, "dualrail amplitudes are not normalized")
            b.elements.append(PrepareDualRail(a0, a1, rail1, rail0))
            continue

        if keyword == "bell":
            kind_tok = p.take("name", "bell kind")
            if kind_tok.text not in rails.BELL_KINDS:
                raise ParseError(line_no, kind_tok.column, "unknown Bell state", kind_tok.text)
            p.take_literal("on")
            modes = tuple(b.mode_ref(p) for _ in range(4))
            p.expect_end()
            if len(set(modes)) != 4:
                raise ParseError(line_no, head.column, "Bell modes must be distinct")
            b.elements.append(PrepareBell(kind_tok.text, modes))
            continue

        if keyword == "bs":
            m1 = b.mode_ref(p)
            m2 = b.mode_ref(p)
            if m1 == m2:
                raise ParseError(line_no, head.column, "beam splitter modes must be distinct")
            matrix: tuple[complex, complex, complex, complex] | None = None
            if not p.done():
                p.take_literal("matrix")
                nxt = p.peek()
                if nxt is not None and nxt.kind == "name" and nxt.text == "h":
                    p.take()
                else:
                    reals = [p.take_float("matrix entry") for _ in range(8)]
                    entries = tuple(
                        complex(reals[2 * i], reals[2 * i + 1]) for i in range(4)
                    )
                    try:
                        ModeUnitary([[entries[0], entries[1]], [entries[2], entries[3]]])
                    except ValueError as exc:
                        raise ParseError(line_no, head.column, str(exc))
                    matrix = entries
            p.expect_end()
            b.saw_operation = True
            b.elements.append(ApplyBS((m1, m2), matrix))
            continue

        if keyword == "detect":
            mode = b.mode_ref(p)
            p.take_literal("as")
            name_tok = p.take("name", "outcome name")
            p.expect_end()
            b.saw_operation = True
            b.elements.append(Detect(mode, name_tok.text))
            continue

        if keyword == "postselect":
            predicate = b.predicate(p)
            p.expect_end()
            b.saw_operation = True
            b.elements.append(PostSelect(predicate))
            continue

        if keyword == "correct":
            pauli_tok = p.take("name", "pauli")
            if pauli_tok.text != "z":
                raise ParseError(
                    line_no, pauli_tok.column, "only 'correct z' is supported", pauli_tok.text
                )
            p.take_literal("on")
            rail1 = b.mode_ref(p, "rail1 mode")
            rail0 = b.mode_ref(p, "rail0 mode")
            p.take_literal("if")
            condition = b.predicate(p)
            p.expect_end()
            if rail1 == rail0:
                raise ParseError(line_no, head.column, "rail modes must be distinct")
            b.saw_operation = True
            b.elements.append(CorrectZ(rail1, rail0, condition))
            continue

        raise ParseError(line_no, head.column, "unknown statement", keyword)

    if b.mode_count is None:
        raise ParseError(1, 1, "missing 'modes' declaration")
    b.finish_kets()
    ir = CircuitIR(b.mode_count, b.labels, tuple(b.elements))
    _validate(ir)
    if b.ket_terms:
        summed: dict[tuple[int, ...], complex] = {}
        for occ, amp in b.ket_terms:
            summed[occ] = summed.get(occ, 0j) + amp
        if not is_normalized(summed.values()):
            raise ParseError(*b.ket_where, "ket amplitudes are not normalized")
    return ir


def _validate(ir: CircuitIR) -> None:
    span = range(ir.mode_count)
    prepared: set[int] = set()
    used: set[int] = set()
    detected: set[int] = set()
    bound: set[str] = set()

    def require_live(modes: Sequence[int], what: str) -> None:
        for i, m in enumerate(modes):
            if m not in span:
                raise CircuitError(f"{what} mode {m + 1} out of range for {ir.mode_count} modes")
            if modes.index(m) < i:
                raise CircuitError(f"{what} lists mode {m + 1} twice")
            if m in detected:
                raise CircuitError(f"{what} uses mode {m + 1}, already consumed by a detector")

    def prepare(modes: Sequence[int], what: str) -> None:
        for m in modes:
            if m not in span:
                raise CircuitError(f"{what} mode {m + 1} out of range for {ir.mode_count} modes")
            if m in prepared:
                raise CircuitError(f"{what} prepares mode {m + 1} twice")
            if m in used:
                raise CircuitError(f"{what} prepares mode {m + 1} after it was used")
            prepared.add(m)
            used.add(m)

    def check_predicate(predicate: Predicate, what: str) -> None:
        for clause in predicate:
            for name, _ in clause:
                if name not in bound:
                    raise CircuitError(f"{what} references unbound outcome {name!r}")

    for element in ir.elements:
        if isinstance(element, PrepareKet):
            for occ, _ in element.terms:
                if len(occ) != ir.mode_count:
                    raise CircuitError(f"ket {occ} has {len(occ)} modes, expected {ir.mode_count}")
            prepare(range(ir.mode_count), "ket")
        elif isinstance(element, PrepareDualRail):
            prepare((element.rail1, element.rail0), "dualrail")
        elif isinstance(element, PrepareBell):
            prepare(element.modes, "bell")
        elif isinstance(element, ApplyBS):
            require_live(element.modes, "bs")
            used.update(element.modes)
        elif isinstance(element, Detect):
            require_live((element.mode,), "detect")
            if element.name in bound:
                raise CircuitError(f"outcome name {element.name!r} bound twice")
            detected.add(element.mode)
            used.add(element.mode)
            bound.add(element.name)
        elif isinstance(element, PostSelect):
            check_predicate(element.predicate, "postselect")
        elif isinstance(element, CorrectZ):
            require_live((element.rail1, element.rail0), "correct")
            used.update((element.rail1, element.rail0))
            check_predicate(element.condition, "correct")


# --------------------------------------------------------------------------
# Formatter
# --------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return repr(x + 0.0)


def _fmt_predicate(predicate: Predicate) -> str:
    return " || ".join(
        " && ".join(f"{name} == {count}" for name, count in clause) for clause in predicate
    )


def format(ir: CircuitIR) -> str:
    """Canonical text rendering; ``parse(format(ir))`` equals ``ir``."""
    ref = ir.label_of
    lines = [f"modes {ir.mode_count}" + (" labels " + " ".join(ir.labels) if ir.labels else "")]
    for element in ir.elements:
        if isinstance(element, PrepareKet):
            for occ, amp in element.terms:
                body = ",".join(str(n) for n in occ)
                lines.append(
                    f"ket |{body}> amp {_fmt_float(amp.real)} {_fmt_float(amp.imag)}"
                )
        elif isinstance(element, PrepareDualRail):
            lines.append(
                "dualrail "
                f"{_fmt_float(element.a0.real)} {_fmt_float(element.a0.imag)} "
                f"{_fmt_float(element.a1.real)} {_fmt_float(element.a1.imag)} "
                f"on {ref(element.rail1)} {ref(element.rail0)}"
            )
        elif isinstance(element, PrepareBell):
            lines.append(f"bell {element.kind} on " + " ".join(ref(m) for m in element.modes))
        elif isinstance(element, ApplyBS):
            line = f"bs {ref(element.modes[0])} {ref(element.modes[1])}"
            if element.matrix is not None:
                reals = " ".join(
                    f"{_fmt_float(z.real)} {_fmt_float(z.imag)}" for z in element.matrix
                )
                line += f" matrix {reals}"
            lines.append(line)
        elif isinstance(element, Detect):
            lines.append(f"detect {ref(element.mode)} as {element.name}")
        elif isinstance(element, PostSelect):
            lines.append(f"postselect {_fmt_predicate(element.predicate)}")
        elif isinstance(element, CorrectZ):
            lines.append(
                f"correct z on {ref(element.rail1)} {ref(element.rail0)} "
                f"if {_fmt_predicate(element.condition)}"
            )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Interpreter
# --------------------------------------------------------------------------


@dataclass
class Branch:
    """One detector outcome of a run, keyed by outcome names.

    ``accepted`` turns False at the first ``postselect`` whose predicate the
    counts fail; the branch keeps evolving, but no ``correct`` touches it.
    ``residual`` is None once every mode has been detected; its modes are
    the run's ``RunResult.output_labels``.
    """

    counts: dict[str, int]
    probability: float
    residual: FockState | None
    corrections: tuple[str, ...]
    accepted: bool


@dataclass
class RunResult:
    """The branches of one run and the weight it accepted and rejected.

    Both probabilities are summed over the branches in detection order.
    ``output_labels`` labels the circuit mode at each residual position, the
    same for every branch. A gate also decodes its accepted residuals:
    ``output_logical`` holds their logical amplitudes (they agree up to a
    global phase, checked), aligned to the gate's reference, and
    ``fidelity_vs_reference`` their squared overlap with it. Both stay None
    for a ``.loc`` run and for a gate that accepts nothing.
    """

    branches: list[Branch]
    accepted_probability: float
    rejected_probability: float
    output_logical: np.ndarray | None = None
    fidelity_vs_reference: float | None = None
    output_labels: tuple[str, ...] = ()

    @property
    def survived_probability(self) -> float:
        # Read by perfbench/workloads.py; ROADMAP item 2 removes it.
        return self.accepted_probability


def _predicate_holds(predicate: Predicate, counts: dict[str, int]) -> bool:
    return any(all(counts.get(name) == value for name, value in clause) for clause in predicate)


# Validated once: every default ``bs`` of every run shares it.
_HADAMARD = hadamard_bs()


def run_branches(ir: CircuitIR) -> RunResult:
    """Run a circuit over every detector outcome, rejected branches included.

    A run of consecutive ``detect`` elements is one joint measurement, whose
    outcomes are enumerated in order of their count tuples, so branches come
    out in detection order. ``postselect`` flags the branches it rejects
    instead of dropping them, and ``correct`` acts only on accepted branches.
    The probabilities of all branches sum to the prepared state's squared
    norm; the result splits that sum into accepted and rejected weight.
    A hand-built ``CircuitIR`` is validated first, as ``parse`` validates.
    """
    _validate(ir)
    live = tuple(range(ir.mode_count))  # every branch's circuit mode at each position
    branches = [Branch({}, 1.0, FockState.vacuum(ir.mode_count), (), True)]
    for joint, group in itertools.groupby(ir.elements, lambda e: isinstance(e, Detect)):
        if joint:
            detectors = tuple(group)
            positions = [live.index(d.mode) for d in detectors]
            branches = [grown for b in branches for grown in _detect(b, detectors, positions)]
            live = tuple(m for k, m in enumerate(live) if k not in positions)
            continue
        for element in group:
            if isinstance(element, ApplyBS):
                m = element.matrix
                u = _HADAMARD if m is None else ModeUnitary([[m[0], m[1]], [m[2], m[3]]])
                pq = [live.index(mode) for mode in element.modes]
                bound = _term_bound(branches, pq)
                if bound > MAX_TERMS:
                    p, q = map(ir.label_of, element.modes)
                    raise CircuitError(
                        f"bs {p} {q} could output {bound} terms, above the limit of {MAX_TERMS}"
                    )
                for b in branches:
                    b.residual = apply_mode_unitary(b.residual, pq, u)
            elif isinstance(element, PostSelect):
                for b in branches:
                    b.accepted = b.accepted and _predicate_holds(element.predicate, b.counts)
            elif isinstance(element, CorrectZ):
                pair = DualRailQubit(live.index(element.rail1), live.index(element.rail0))
                r1, r0 = ir.label_of(element.rail1), ir.label_of(element.rail0)
                for b in branches:
                    if b.accepted and _predicate_holds(element.condition, b.counts):
                        try:
                            b.residual = rails.pauli_correction(b.residual, pair, "Z")
                        except rails.LeakageError as exc:
                            raise CircuitError(f"correct z on {r1} {r0}: {exc}") from None
                        b.corrections = b.corrections + (f"Z on ({r1}, {r0})",)
            else:
                modes, terms = _preparation(ir, element)
                positions = [live.index(mode) for mode in modes]
                for b in branches:
                    b.residual = _inject(b.residual, positions, terms)
    return RunResult(
        branches,
        sum((b.probability for b in branches if b.accepted), 0.0),
        sum((b.probability for b in branches if not b.accepted), 0.0),
        output_labels=tuple(map(ir.label_of, live)),
    )


def _term_bound(branches: list[Branch], positions: list[int]) -> int:
    """An upper bound on the terms a splitter on positions [p, q] outputs over ``branches``.

    A ket with n photons on the splitter's two modes yields at most n + 1
    output kets, so the bound is integer work over the input kets.
    """
    p, q = positions
    bound = 0
    for b in branches:
        kets = b.residual.terms
        bound += len(kets) + sum(map(itemgetter(p), kets)) + sum(map(itemgetter(q), kets))
    return bound


def _detect(b: Branch, detectors: tuple[Detect, ...], positions: list[int]) -> list[Branch]:
    grown = []
    for outcome in measure.outcome_distribution(b.residual, positions):
        req = outcome.pattern.requirements
        counts = {**b.counts, **{d.name: req[p] for d, p in zip(detectors, positions)}}
        probability = b.probability * outcome.probability
        grown.append(Branch(counts, probability, outcome.residual, b.corrections, b.accepted))
    return grown


def execute(ir: CircuitIR) -> RunResult:
    """Run a circuit and keep only the branches that pass every ``postselect``.

    Survivors are listed sorted by outcome name, with their counts in name
    order; the weight of the flagged branches is ``rejected_probability``.
    """
    result = run_branches(ir)
    survivors = [
        replace(b, counts=dict(sorted(b.counts.items()))) for b in result.branches if b.accepted
    ]
    survivors.sort(key=lambda br: list(br.counts.items()))
    return replace(result, branches=survivors)


def _preparation(ir: CircuitIR, element: Element) -> tuple[Iterable[int], Iterable]:
    """The modes a preparation writes and its (sub-ket, amplitude) terms on them."""
    if isinstance(element, PrepareKet):
        return range(ir.mode_count), element.terms
    if isinstance(element, PrepareDualRail):
        rails.require_normalized(LogicalAmplitudes(element.a0, element.a1))
        return (element.rail1, element.rail0), (((0, 1), element.a0), ((1, 0), element.a1))
    if isinstance(element, PrepareBell):
        bell = rails.bell_state(element.kind, DualRailQubit(0, 1), DualRailQubit(2, 3), 4)
        return element.modes, bell.terms.items()
    raise TypeError(element)


def _inject(state: FockState, positions: list[int], factor: Iterable) -> FockState:
    """Write a prepared factor onto modes that are vacuum (``_validate`` checks).

    State terms form the outer loop; each amplitude is the state's times the
    factor's, in that order.
    """
    out: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        for sub, sub_amp in factor:
            new_ket = list(ket)
            for p, n in zip(positions, sub):
                new_ket[p] = n
            out[tuple(new_ket)] = out.get(tuple(new_ket), 0j) + amp * sub_amp
    return FockState(state.mode_count, out)


def load(path: str) -> CircuitIR:
    """Parse a ``.loc`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
