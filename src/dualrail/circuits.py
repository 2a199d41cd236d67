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
by the formatter, which writes only labels and outcome names that scan as a
``name`` token.

Every program rule lives in one rule pass, ``_Rules``, checked element by
element in program order when a program is made: by ``CircuitIR(...)``, whose
fields must have their IR types (integer modes, counts and occupations, number
amplitudes, sequences where the IR holds tuples, pairs as ket terms and
equalities, str labels and outcome names), and by ``parse`` on each statement
once read, so a broken rule is a ``CircuitError`` there or a ``ParseError`` at
that statement or at the token it judges. The IR keeps what the pass read, as
tuples. ``parse`` keeps only the rules of reading the text: ``modes`` comes
first and once, labels are declared, and ``ket`` lines come before operations.

One engine runs every program, the gates in ``protocols`` included. The rule
pass also plans: each element that passes leaves a step holding what it needs,
a preparation's factor included, and ``_run_checked`` runs the steps, one
handler per element kind. A ``CircuitIR`` keeps its plan, so a program is
checked and planned once; a gate runs its plan with its inputs' factors. Each
preparation and ``bs`` is bounded by the ``MAX_TERMS`` terms it could output.
The engine enumerates every detector outcome: consecutive ``detect`` lines
are one joint measurement; ``postselect`` flags the branches it rejects
instead of dropping them, so they keep evolving; ``correct`` acts only on
accepted branches.
``run_branches`` returns every branch and the accepted and rejected weight as
one ``RunResult``; ``execute`` keeps only its survivors.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field, replace
from operator import index
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from . import measure, rails
from .fock import FockState, as_amplitude, as_int, as_ints, layout
from .optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from .rails import DualRailQubit, is_normalized

# The widest ``modes`` declaration ``parse`` accepts. It bounds the memory a
# program text can ask for, and it covers every program the package builds
# itself: the encoder at its copy limit uses 2 * 20 + 2 = 42 modes.
MAX_MODES = 64

# The most photons one ``ket`` term may hold. Beam splitters scale each term
# by sqrt(n!) factors, which overflow a float past 170 photons; the limit
# stays well below that and covers every program the package builds itself:
# the encoder at its copy limit holds 20 + 1 = 21 photons per term.
MAX_PHOTONS = 64

# The most terms one beam splitter or preparation may output, summed over the
# live branches. Checked before the element runs, it bounds the time and
# memory a program text can ask for. Every program the package builds itself
# stays below 100, and perfbench's wide-states inputs hold up to 1,716 terms.
MAX_TERMS = 2**16

# The gates' policies and copy limit, kept here so the command line reads them without
# loading ``protocols``. Dense 2^n vectors back the encoder's reference and decoded
# register; 2^20 amplitudes are 16 MB each.
POLICIES = ("strict", "feedforward")
MAX_ENCODER_COPIES = 20

# A predicate in disjunctive normal form: OR over tuples of (name, count)
# equalities that are ANDed together.
Predicate = tuple[tuple[tuple[str, int], ...], ...]


class ParseError(Exception):
    """Syntax error with a position pointing into the source text."""

    def __init__(self, line: int, column: int, message: str, token: str = "") -> None:
        suffix = f" (at {token!r})" if token else ""
        super().__init__(f"line {line}, column {column}: {message}{suffix}")
        self.line = line
        self.column = column
        self.message = message
        self.token = token


class CircuitError(Exception):
    """Semantic error in an otherwise well-formed program."""


class SimulationInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


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
    """A program, checked and planned when it is made (a fault is a ``CircuitError``). It keeps
    what the rule pass read, its sequences as tuples, and a plan outside ``==``, ``hash`` and ``repr``."""

    mode_count: int
    labels: tuple[str, ...] | None
    elements: tuple[Element, ...]
    _plan: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _compile(self)

    @classmethod
    def _planned(cls, rules: _Rules) -> CircuitIR:
        """The program ``rules`` has checked and planned statement by statement, for ``parse``."""
        ir = object.__new__(cls)
        object.__setattr__(ir, "mode_count", rules.mode_count)
        return rules.keep(ir)

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
        return float(self.take("number", what).text)

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise self.error("unexpected trailing input")


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


def _checked(call: Callable, *args):
    """``call(*args)``, a ``ValueError`` raised as a ``CircuitError`` with its message."""
    try:
        return call(*args)
    except ValueError as exc:
        raise CircuitError(str(exc)) from None


def _sequence(items: Sequence, what: str, noun: str) -> Sequence:
    """``items`` if it has a length, else a ``CircuitError``."""
    try:
        len(items)
    except TypeError:
        raise CircuitError(f"expected {what} {noun} as a sequence, got {items!r}") from None
    return items


def _sized(items: Sequence, n: int, what: str, noun: str) -> Sequence:
    """``items`` if it holds ``n`` entries, else a ``CircuitError``."""
    size = len(_sequence(items, what, noun))
    if size != n:
        raise CircuitError(f"{what} needs {n} {noun}, got {size}")
    return items


def _name(name, what: str) -> str:
    """``name`` if it is a str, as labels and outcome names are, else a ``CircuitError``."""
    if not isinstance(name, str):
        raise CircuitError(f"expected a str {what}, got {name!r}")
    return name


# Validated once: every default ``bs`` of every run shares it.
_HADAMARD = hadamard_bs()


class _Rules:
    """Every program rule, checked one element at a time in program order; a broken rule raises a
    one-line ``CircuitError``. An element that passes is kept, as tuples, and appends its step, so the
    same walk plans the program. ``parse`` calls the value rules, ``amplitude`` to ``bell_kind``."""

    def __init__(self, mode_count: int, labels: Sequence[str] | None) -> None:
        n = self.mode_count = _checked(as_int, mode_count, "mode count")
        if n <= 0:
            raise CircuitError("mode count must be positive")
        if n > MAX_MODES:
            raise CircuitError(f"mode count must be at most {MAX_MODES}")
        if labels is not None:
            labels = tuple(_name(label, "mode label") for label in _sequence(labels, "mode", "labels"))
            if len(labels) != n:
                raise CircuitError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise CircuitError("duplicate mode label")
        self.labels = labels
        self.label = labels or tuple(map(str, range(1, n + 1)))  # each mode's label
        self.prepared, self.used, self.bound = set(), set(), set()
        self.live = tuple(range(n))  # every branch's circuit mode at each residual position
        self.joint: tuple[int, ...] = ()  # the modes of the open joint detection, still live
        self.elements: list[Element] = []
        self.steps: list[tuple[Callable, tuple]] = []
        self.inputs: list[int] = []  # the step of each preparation that takes amplitudes

    def check(self, element: Element) -> None:
        """Check the next element of the program against those before it, then keep it and append its step."""
        kind = type(element)
        if kind is not Detect:
            self.advance()
        if kind is ApplyBS:
            _sized(element.modes, 2, "bs", "modes")
            u, m = _HADAMARD, element.matrix
            if m is not None:
                for z in _sized(m, 4, "bs matrix", "entries"):
                    self.amplitude("bs matrix", z)
                u = _checked(ModeUnitary, [[m[0], m[1]], [m[2], m[3]]])
            modes, pq = self.touch("bs", element.modes, "beam splitter modes must be distinct")
            element = ApplyBS(modes, m if m is None else tuple(m))
            step = _splitter, (self.named("bs", pq), pq, u, layout(len(self.live), pq).local_of)
        elif kind is Detect:
            (mode,), (p,) = self.touch("detect", (element.mode,))
            if _name(element.name, "outcome name") in self.bound:
                raise CircuitError(f"outcome name {element.name!r} bound twice")
            self.bound.add(element.name)
            element = Detect(mode, element.name)
            names, positions = self.steps.pop()[1] if self.joint else ((), ())
            step = _detect, (names + (element.name,), positions + (p,))
            self.joint += (self.live[p],)
        elif kind is PrepareDualRail:
            pair, at = self.touch("dualrail", (element.rail1, element.rail0), "rail modes must be distinct", True)
            amps = [self.amplitude("dualrail", a) for a in (element.a0, element.a1)]
            if not is_normalized(amps):
                raise CircuitError("dualrail amplitudes are not normalized")
            element = PrepareDualRail(element.a0, element.a1, *pair)
            self.inputs.append(len(self.steps))
            step = self.prepare(self.named("dualrail on", at), at, _dualrail_factor(element.a0, element.a1))
        elif kind is PostSelect:
            element = PostSelect(self.predicate("postselect", element.predicate))
            step = _postselect, (element.predicate,)
        elif kind is CorrectZ:
            pair, at = self.touch("correct", (element.rail1, element.rail0), "rail modes must be distinct")
            element = CorrectZ(*pair, self.predicate("correct", element.condition))
            r1, r0 = (self.label[m] for m in pair)
            step = _correct, (element.condition, DualRailQubit(*at), r1, r0)
        elif kind is PrepareBell:
            self.bell_kind(element.kind)
            modes = _sized(element.modes, 4, "bell", "modes")
            modes, at = self.touch("bell", modes, "Bell modes must be distinct", prepares=True)
            element = PrepareBell(element.kind, modes)
            step = self.prepare(self.named(f"bell {element.kind} on", at), at, _BELL_FACTORS[element.kind])
        elif kind is PrepareKet:
            summed: dict[tuple[int, ...], complex] = {}  # equal kets add up before the norm check
            terms = []  # the occupations as read, which may come from one-shot iterators
            for term in _sequence(element.terms, "ket", "terms"):
                occ, amp = _sized(term, 2, "ket term", "entries")
                occ = self.occupation(occ)
                summed[occ] = summed.get(occ, 0j) + self.amplitude("ket", amp)
                terms.append((occ, amp))
            if not is_normalized(summed.values()):
                raise CircuitError("ket amplitudes are not normalized")
            element = PrepareKet(tuple(terms))
            _, at = self.touch("ket", range(self.mode_count), prepares=True)
            self.inputs.append(len(self.steps))
            step = self.prepare("ket", at, _ket_factor(self.mode_count, element.terms))
        else:
            raise CircuitError(f"unknown program element {element!r}")
        self.elements.append(element)
        self.steps.append(step)

    def keep(self, ir: CircuitIR) -> CircuitIR:
        """``ir`` holding the labels and elements the walk kept, and its plan."""
        self.advance()
        labels = tuple(self.label[m] for m in self.live)
        plan = _Plan(tuple(self.steps), FockState.vacuum(self.mode_count), labels, tuple(self.inputs))
        for name, value in ("labels", self.labels), ("elements", tuple(self.elements)), ("_plan", plan):
            object.__setattr__(ir, name, value)
        return ir

    def touch(self, what: str, modes: Sequence[int], distinct: str = "", prepares: bool = False) -> tuple:
        """Check ``what`` on ``modes``, then record it: integers in range, none twice
        given ``distinct``, none used before if it ``prepares`` them, else none detected.
        Returns the modes as ints, to keep, and their positions among the live modes."""
        listed = [self.mode(_checked(as_int, m, f"{what} mode")) for m in modes]
        if distinct and len(set(listed)) != len(listed):
            raise CircuitError(distinct)
        for m in listed:
            if prepares and m in self.used:
                again = "twice" if m in self.prepared else "after it was used"
                raise CircuitError(f"{what} prepares mode {m + 1} {again}")
            if not prepares and (m not in self.live or m in self.joint):
                raise CircuitError(f"{what} uses mode {m + 1}, already consumed by a detector")
        if prepares:
            self.prepared.update(listed)
        self.used.update(listed)
        return tuple(listed), tuple(map(self.live.index, listed))

    def advance(self) -> None:
        """End the open joint detection, if any: its modes leave ``live``."""
        if self.joint:
            self.live = tuple(m for m in self.live if m not in self.joint)
            self.joint = ()

    def named(self, what: str, positions: Iterable[int]) -> str:
        """``what`` and the labels of the live modes at ``positions``, as a term limit error names it."""
        return what + "".join(f" {self.label[self.live[p]]}" for p in positions)

    def prepare(self, name: str, positions: tuple[int, ...], factor: Factor) -> tuple[Callable, tuple]:
        """The step of preparation ``name``, which writes ``factor`` onto the live ``positions``."""
        return _prepare, (name, layout(len(self.live), positions).place, factor)

    def predicate(self, what: str, predicate: Predicate) -> Predicate:
        """``predicate``, checked, as tuples."""
        _sequence(predicate, what, "clauses")
        if not predicate:
            raise CircuitError(f"{what} needs at least one clause")
        for clause in predicate:
            _sequence(clause, what, "equalities")
            if not clause:
                raise CircuitError(f"{what} has a clause with no equality")
            for equality in clause:
                name, count = _sized(equality, 2, what, "(name, count) entries")
                self.count(count)
                if _name(name, "outcome name") not in self.bound:
                    raise CircuitError(f"{what} references unbound outcome {name!r}")
        return tuple(tuple(map(tuple, clause)) for clause in predicate)

    def amplitude(self, what: str, amp: complex) -> complex:
        """``amp`` read by ``as_amplitude``, which must be finite."""
        z = _checked(as_amplitude, amp, f"{what} amplitude")
        if not cmath.isfinite(z):
            raise CircuitError(f"{what} amplitude must be finite")
        return z

    def mode(self, m: int) -> int:
        if not 0 <= m < self.mode_count:
            raise CircuitError(f"mode {m + 1} out of range")
        return m

    def occupation(self, occ: Sequence[int]) -> tuple[int, ...]:
        occ = _checked(as_ints, occ, "photon counts")
        if len(occ) != self.mode_count:
            raise CircuitError(f"ket has {len(occ)} modes, expected {self.mode_count}")
        if min(occ) < 0:
            raise CircuitError("photon count must be non-negative")
        if sum(occ) > MAX_PHOTONS:
            raise CircuitError(f"a ket may hold at most {MAX_PHOTONS} photons")
        return occ

    def count(self, count: int) -> None:
        if _checked(as_int, count, "photon count") < 0:
            raise CircuitError("photon count must be non-negative")

    def bell_kind(self, kind: str) -> None:
        if kind not in rails.BELL_KINDS:
            raise CircuitError("unknown Bell state")


def _compile(ir: CircuitIR) -> None:
    """Check ``ir`` with the rule pass that ``parse`` runs, plan it in the same walk, and
    keep in ``ir`` what the pass read and the plan: ``CircuitIR`` calls it once, when it is made."""
    rules = _Rules(ir.mode_count, ir.labels)
    for element in _sequence(ir.elements, "program", "elements"):
        rules.check(element)
    rules.keep(ir)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _rule(where: tuple, check: Callable, *args):
    """``check(*args)``, a ``CircuitError`` raised as a ``ParseError`` at ``where``."""
    try:
        return check(*args)
    except CircuitError as exc:
        line, column, *token = where
        raise ParseError(line, column, str(exc), *token) from None


class _ProgramBuilder:
    def __init__(self) -> None:
        self.rules: _Rules | None = None
        # The line and column, ket and amplitude of each pending ``ket`` line.
        self.ket_terms: list[tuple[tuple[int, int], tuple[int, ...], complex]] = []

    def mode_ref(self, p: _LineParser, what: str = "mode") -> int:
        tok = p.peek()
        if tok is not None and tok.kind == "number":
            return _rule((tok.line, tok.column, tok.text), self.rules.mode, p.take_int(what) - 1)
        if tok is None or tok.kind != "name":
            raise p.error(f"expected a {what}")
        p.take()
        if tok.text not in (self.rules.labels or ()):
            raise ParseError(tok.line, tok.column, "undeclared mode label", tok.text)
        return self.rules.labels.index(tok.text)

    def predicate(self, p: _LineParser) -> Predicate:
        clauses: list[list[tuple[str, int]]] = [[]]
        while True:
            name_tok = p.take("name", "outcome name")
            p.take_literal("==")
            count = p.take_int("photon count")
            _rule((name_tok.line, name_tok.column), self.rules.count, count)
            clauses[-1].append((name_tok.text, count))
            nxt = p.peek()
            if nxt is None or nxt.text not in ("&&", "||"):
                return tuple(map(tuple, clauses))
            p.take()
            if nxt.text == "||":
                clauses.append([])

    def add(self, element: Element, where: tuple[int, int]) -> None:
        """Check ``element``, after the ``ket`` terms read so far, and keep it."""
        self.flush()
        _rule(where, self.rules.check, element)

    def flush(self) -> None:
        """Check and keep the pending ``ket`` terms as the one element they fold into."""
        if self.ket_terms:
            wheres, kets, amps = zip(*self.ket_terms)
            self.ket_terms = []
            self.add(PrepareKet(tuple(zip(kets, amps))), wheres[0])


def parse(source: str) -> CircuitIR:
    """Parse a circuit program, feeding each statement to the rule pass once it is read (``ket``
    lines as the one element they fold into, before the next one); the IR keeps that walk's plan."""
    b = _ProgramBuilder()
    for line_no, raw in enumerate(source.splitlines(), start=1):
        tokens = _scan_line(raw, line_no)
        if not tokens:
            continue
        p = _LineParser(tokens, line_no)
        head = p.take("name", "a statement keyword")
        keyword = head.text
        where = (line_no, head.column)

        if keyword == "modes":
            if b.rules is not None:
                raise ParseError(*where, "duplicate 'modes' declaration")
            count, labels = p.take_int("mode count"), None
            if p.peek() is not None:
                p.take_literal("labels")
                labels = tuple(p.take("name", "mode label").text for _ in p.tokens[p.i :])
            b.rules = _rule(where, _Rules, count, labels)
            continue

        if b.rules is None:
            raise p.error("a 'modes' declaration must come first")
        if keyword == "ket":
            tok = p.take("ket", "|n1,n2,...>")
            body = tok.text[1:-1].replace(" ", "")
            if not body:
                raise ParseError(line_no, tok.column, "empty ket", tok.text)
            try:
                occ = tuple(int(x) for x in body.split(","))
            except ValueError:
                raise ParseError(line_no, tok.column, "malformed ket", tok.text)
            _rule((line_no, tok.column, tok.text), b.rules.occupation, occ)
            amp = 1.0 + 0j
            if p.peek() is not None:
                amp_tok = p.take_literal("amp")
                amp = complex(p.take_float("amp real part"), p.take_float("amp imaginary part"))
                _rule((line_no, amp_tok.column), b.rules.amplitude, "ket", amp)
            p.expect_end()
            if any(type(e) not in (PrepareKet, PrepareDualRail, PrepareBell) for e in b.rules.elements):
                raise ParseError(*where, "ket terms must come before operations")
            b.ket_terms.append((where, occ, amp))
            continue

        if keyword == "dualrail":
            a0 = complex(p.take_float("a0 real part"), p.take_float("a0 imaginary part"))
            a1 = complex(p.take_float("a1 real part"), p.take_float("a1 imaginary part"))
            p.take_literal("on")
            element = PrepareDualRail(a0, a1, b.mode_ref(p, "rail1 mode"), b.mode_ref(p, "rail0 mode"))
        elif keyword == "bell":
            kind_tok = p.take("name", "bell kind")
            _rule((line_no, kind_tok.column, kind_tok.text), b.rules.bell_kind, kind_tok.text)
            p.take_literal("on")
            element = PrepareBell(kind_tok.text, tuple(b.mode_ref(p) for _ in range(4)))
        elif keyword == "bs":
            modes = (b.mode_ref(p), b.mode_ref(p))
            matrix: tuple[complex, complex, complex, complex] | None = None
            if p.peek() is not None:
                p.take_literal("matrix")
                nxt = p.peek()
                if nxt is not None and nxt.kind == "name" and nxt.text == "h":
                    p.take()
                else:
                    reals = [p.take_float("matrix entry") for _ in range(8)]
                    matrix = tuple(complex(reals[2 * i], reals[2 * i + 1]) for i in range(4))
            element = ApplyBS(modes, matrix)
        elif keyword == "detect":
            mode = b.mode_ref(p)
            p.take_literal("as")
            element = Detect(mode, p.take("name", "outcome name").text)
        elif keyword == "postselect":
            element = PostSelect(b.predicate(p))
        elif keyword == "correct":
            tok = p.take("name", "pauli")
            if tok.text != "z":
                raise ParseError(line_no, tok.column, "only 'correct z' is supported", tok.text)
            p.take_literal("on")
            pair = (b.mode_ref(p, "rail1 mode"), b.mode_ref(p, "rail0 mode"))
            p.take_literal("if")
            element = CorrectZ(*pair, b.predicate(p))
        else:
            raise ParseError(*where, "unknown statement", keyword)
        p.expect_end()
        b.add(element, where)

    if b.rules is None:
        raise ParseError(1, 1, "missing 'modes' declaration")
    b.flush()
    return CircuitIR._planned(b.rules)


# --------------------------------------------------------------------------
# Formatter
# --------------------------------------------------------------------------


def _fmt_complex(z: complex) -> str:
    z = as_amplitude(z, "amplitude")  # no -0.0 part and no numpy repr, which is no .loc number
    return f"{z.real!r} {z.imag!r}"


def _fmt_predicate(predicate: Predicate) -> str:
    return " || ".join(
        " && ".join(f"{name} == {index(count)}" for name, count in clause) for clause in predicate
    )


def format(ir: CircuitIR) -> str:
    """Canonical text rendering; ``parse(format(ir))`` equals ``ir``. Its labels and outcome
    names must be ``.loc`` names (the scanner's ``name`` token), else ``CircuitError``."""
    named = [("label", label) for label in ir.labels or ()]
    named += [("outcome", e.name) for e in ir.elements if isinstance(e, Detect)]
    for what, name in named:
        m = _TOKEN_RE.fullmatch(name)
        if not m or m.lastgroup != "name":
            raise CircuitError(f"{what} {name!r} is not a .loc name")
    ref = ir.label_of
    lines = [f"modes {index(ir.mode_count)}" + (" labels " + " ".join(ir.labels) if ir.labels else "")]
    for element in ir.elements:
        if isinstance(element, PrepareKet):
            for occ, amp in element.terms:
                lines.append(f"ket |{','.join(map(str, occ))}> amp {_fmt_complex(amp)}")
        elif isinstance(element, PrepareDualRail):
            amps = f"{_fmt_complex(element.a0)} {_fmt_complex(element.a1)}"
            lines.append(f"dualrail {amps} on {ref(element.rail1)} {ref(element.rail0)}")
        elif isinstance(element, PrepareBell):
            lines.append(f"bell {element.kind} on " + " ".join(ref(m) for m in element.modes))
        elif isinstance(element, ApplyBS):
            line = f"bs {ref(element.modes[0])} {ref(element.modes[1])}"
            if element.matrix is not None:
                line += " matrix " + " ".join(map(_fmt_complex, element.matrix))
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


@dataclass(slots=True)
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
        # Read by perfbench/workloads.py; ROADMAP item 1 removes it.
        return self.accepted_probability


def _holds(predicate: Predicate, counts: dict[str, int]) -> bool:
    """True when some clause of ``predicate`` has every ``(name, count)`` equality holding.

    The counts must bind every name it reads, and every clause must hold an
    equality, as the rule pass checks.
    """
    for clause in predicate:
        for name, count in clause:
            if counts[name] != count:
                break
        else:
            return True
    return False


def run_branches(ir: CircuitIR) -> RunResult:
    """Run a circuit over every detector outcome, rejected branches included.

    A run of consecutive ``detect`` elements is one joint measurement, whose
    outcomes are enumerated in order of their count tuples, so branches come
    out in detection order. ``postselect`` flags the branches it rejects
    instead of dropping them, and ``correct`` acts only on accepted branches.
    The probabilities of all branches sum to the prepared state's squared
    norm; the result splits that sum into accepted and rejected weight. A
    ``CircuitIR`` is checked and planned when it is made; a run runs its plan.
    """
    return _run_checked(ir._plan, ())


class _Plan(NamedTuple):
    """The rule pass's plan of a program. Each step, one per element or joint detection, is
    ``(handler, args)``; ``handler(branches, *args)`` returns the branches after it, calling
    kernels by module attribute. ``inputs`` lists the steps of the ``dualrail`` and ``ket``."""

    steps: tuple[tuple[Callable, tuple], ...]
    vacuum: FockState
    output_labels: tuple[str, ...]
    inputs: tuple[int, ...]


def _run_checked(plan: _Plan, factors: Sequence[Factor]) -> RunResult:
    """``run_branches``'s run step: a checked program run by its ``plan``, the steps in
    ``plan.inputs`` writing ``factors``, in order, in place of the factors they keep."""
    steps = list(plan.steps)
    for k, factor in zip(plan.inputs, factors):
        steps[k] = steps[k][0], steps[k][1][:2] + (factor,)
    branches = [Branch({}, 1.0, plan.vacuum, (), True)]
    for handler, args in steps:
        branches = handler(branches, *args)
    return RunResult(
        branches,
        sum((b.probability for b in branches if b.accepted), 0.0),
        sum((b.probability for b in branches if not b.accepted), 0.0),
        output_labels=plan.output_labels,
    )


def _splitter(branches: list[Branch], name: str, pq: Sequence[int], u: ModeUnitary, local_of):
    _limit_terms(name, _term_bound(branches, local_of))
    for b in branches:
        b.residual = apply_mode_unitary(b.residual, pq, u)
    return branches


def _detect(branches: list[Branch], names: Sequence[str], positions: Sequence[int]):
    grown = []
    for b in branches:
        for outcome in measure.outcome_distribution(b.residual, positions):
            counts = {**b.counts, **dict(zip(names, outcome.counts))}
            probability = b.probability * outcome.probability
            grown.append(Branch(counts, probability, outcome.residual, b.corrections, b.accepted))
    return grown


def _postselect(branches: list[Branch], predicate: Predicate):
    for b in branches:
        b.accepted = b.accepted and _holds(predicate, b.counts)
    return branches


def _correct(branches: list[Branch], predicate: Predicate, pair: DualRailQubit, r1: str, r0: str):
    for b in branches:
        if b.accepted and _holds(predicate, b.counts):
            try:
                b.residual = rails.pauli_correction(b.residual, pair, "Z")
            except rails.LeakageError as exc:
                raise CircuitError(f"correct z on {r1} {r0}: {exc}") from None
            b.corrections = b.corrections + (f"Z on ({r1}, {r0})",)
    return branches


def _prepare(branches: list[Branch], name: str, place: Callable, factor: Factor):
    _limit_terms(name, len(factor) * sum(len(b.residual.terms) for b in branches))
    for b in branches:
        b.residual = _inject(b.residual, place, factor)
    return branches


def _limit_terms(name: str, bound: int) -> None:
    """The one check of ``MAX_TERMS``: a ``CircuitError`` naming the ``bs`` or preparation
    ``name`` if it could output ``bound`` terms, summed over the live branches."""
    if bound > MAX_TERMS:
        raise CircuitError(f"{name} could output {bound} terms, above the limit of {MAX_TERMS}")


def _term_bound(branches: list[Branch], local_of: Callable) -> int:
    """An upper bound on the terms a splitter outputs over ``branches``, by its layout's ``local_of``.

    A ket with n photons on the splitter's two modes yields at most n + 1
    output kets, so the bound is integer work over the input kets.
    """
    bound = 0
    for b in branches:
        kets = b.residual.terms
        bound += len(kets) + sum(map(sum, map(local_of, kets)))
    return bound


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


# A preparation's (sub-ket, amplitude) terms on the modes it lists, as ``_inject`` needs them:
# distinct tuples of non-negative ints and Python complex numbers.
Factor = tuple[tuple[tuple[int, ...], complex], ...]

# Each Bell kind's factor on its four listed modes, built once: every ``bell`` of
# every run shares it.
_BELL_FACTORS = {
    kind: tuple(rails.bell_state(kind, DualRailQubit(0, 1), DualRailQubit(2, 3), 4).terms.items())
    for kind in rails.BELL_KINDS
}



def _ket_factor(mode_count: int, terms: Iterable[tuple[Sequence[int], complex]]) -> Factor:
    """``ket`` terms, the only kets a caller gives, through the public ``FockState`` constructor."""
    return tuple(FockState(mode_count, terms).terms.items())


def _dualrail_factor(a0: complex, a1: complex) -> Factor:
    """A dual-rail qubit's factor on its (rail1, rail0) pair."""
    amps = (as_amplitude(a, "dualrail amplitude") for a in (a0, a1))
    # A zero amplitude's term would be pruned after it was written, and bounded before.
    return tuple((k, a) for k, a in zip(rails.RAIL_KETS, amps) if a)


def _inject(state: FockState, place: Callable, factor: Factor) -> FockState:
    """Write a preparation's factor onto vacuum modes (the rule pass checks) by their ``place``.

    State terms form the outer loop; each amplitude is ``0j +`` the state's
    times the factor's, in that order. The target modes are vacuum in every
    ket and the factor's sub-kets distinct, so every output ket is distinct
    and the state is built with ``FockState._trusted``.
    """
    out: dict[tuple[int, ...], complex] = {}
    for ket, amp in state.terms.items():
        for sub, sub_amp in factor:
            out[place(ket + sub)] = 0j + amp * sub_amp
    return FockState._trusted(state.mode_count, out)


def load(path: str) -> CircuitIR:
    """Parse a ``.loc`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
