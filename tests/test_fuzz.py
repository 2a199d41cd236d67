"""Bounded fuzzing of the two ways into the program: CLI argv and ``.loc`` text.

Every input must either succeed or fail with a documented exit code (2 usage,
3 parse, 4 internal) and at most one stderr line, never with a traceback. A
``.loc`` file that can be read never exits 2 or 4, a valid program's
branches account for all of its prepared weight, and every program that
parses formats to text that parses back to it.
"""

import cmath
import json
import math
import re
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dualrail import circuits, protocols
from dualrail.fock import FockState

from cli_corpus import run

EXIT_CODES = {0, 2, 3, 4}

# Numerals as float reprs, and literals that overflow or underflow on reading.
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0.0", "1", "-1", "0.6", "0.8", "5e-324", "1e300", "1e308"]),
    st.sampled_from(["1e999", "-1e400", "1e-999"]),
)


def csv(k: int):
    return st.lists(numbers, min_size=k, max_size=k).map(",".join)


# Values that look like what each option expects, values close to valid ones,
# and arbitrary text.
near_normalized = st.tuples(st.floats(0, 6.3), st.floats(-1e-5, 1e-5)).map(
    lambda t: f"{math.cos(t[0]) + t[1]!r},0,{math.sin(t[0])!r},0"
)
free_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
qubit_values = st.one_of(csv(4), csv(2), csv(3), near_normalized, free_text)
bloch_values = st.one_of(csv(2), csv(4), free_text)
n_values = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from([str(protocols.MAX_ENCODER_COPIES + 1), "10" * 20, "-0", "2.5", "0x3"]),
    free_text,
)
policy_values = st.one_of(st.sampled_from(protocols.POLICIES), free_text)

OPTIONS = {
    "csign-destructive": ("control", "target"),
    "csign-nondestructive": ("control", "target"),
    "encoder": ("input",),
}


@st.composite
def gate_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    choices = [("--policy", policy_values)]
    for name in OPTIONS[command]:
        choices += [(f"--{name}", qubit_values), (f"--{name}-bloch", bloch_values)]
    if command == "encoder":
        choices.append(("--n", n_values))
    argv = [command]
    for option, values in draw(st.lists(st.sampled_from(choices), max_size=4)):
        value = draw(values)
        # The ``=`` form carries values that start with '-'.
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def assert_documented_failure(code: int, err: str, codes=EXIT_CODES) -> None:
    assert code in codes, (code, err)
    assert err.count("\n") <= 1 and "\n" not in err.rstrip("\n"), err
    assert "Traceback" not in err


@given(argv=gate_argv())
@settings(max_examples=200, deadline=None)
def test_gate_argv_fails_with_one_documented_line(argv):
    code, _, err = run(argv)
    assert_documented_failure(code, err)


# --------------------------------------------------------------------------
# .loc programs built from the grammar's statements
# --------------------------------------------------------------------------

names = st.sampled_from(["a", "b", "D1", "x_2", "h", "on", "phi+"])


@st.composite
def loc_program(draw):
    count = draw(st.one_of(st.integers(1, 6), st.sampled_from([0, -1, circuits.MAX_MODES + 1])))
    labels = [f"m{i}" for i in range(max(count, 0))] if draw(st.booleans()) else []
    mode = st.one_of(
        st.integers(0, max(count, 0) + 1).map(str),
        st.sampled_from(labels) if labels else st.integers(1, 2).map(str),
        names,
    )
    amp = lambda: f"{draw(numbers)} {draw(numbers)}"
    clause = lambda: " && ".join(
        f"{draw(names)} == {draw(st.integers(-1, 3))}" for _ in range(draw(st.integers(1, 2)))
    )
    predicate = lambda: " || ".join(clause() for _ in range(draw(st.integers(1, 2))))

    def ket():
        occ = ",".join(str(draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 6))))
        return f"ket |{occ}>" + (f" amp {amp()}" if draw(st.booleans()) else "")

    def bs():
        line = f"bs {draw(mode)} {draw(mode)}"
        form = draw(st.sampled_from(["", " matrix h", "matrix"]))
        if form == "matrix":
            return line + " matrix " + " ".join(amp() for _ in range(4))
        return line + form

    statements = {
        "ket": ket,
        "dualrail": lambda: f"dualrail {amp()} {amp()} on {draw(mode)} {draw(mode)}",
        "bell": lambda: f"bell {draw(st.sampled_from(['phi+', 'phi-', 'psi+', 'psi-', 'psi']))} on "
        + " ".join(draw(mode) for _ in range(4)),
        "bs": bs,
        "detect": lambda: f"detect {draw(mode)} as {draw(names)}",
        "postselect": lambda: f"postselect {predicate()}",
        "correct": lambda: f"correct z on {draw(mode)} {draw(mode)} if {predicate()}",
        "junk": lambda: draw(free_text),
    }
    lines = [f"modes {count}" + (" labels " + " ".join(labels) if labels else "")]
    for kind in draw(st.lists(st.sampled_from(sorted(statements)), max_size=8)):
        lines.append(statements[kind]())
    return "\n".join(lines) + "\n"


@given(source=loc_program())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_loc_text_fails_with_one_documented_line(tmp_path_factory, source):
    path = tmp_path_factory.getbasetemp() / "fuzz.loc"
    path.write_text(source, encoding="utf-8")
    code, _, err = run(["run", str(path)])
    assert_documented_failure(code, err, {0, 3})
    assert_round_trips(source)


def assert_round_trips(source: str) -> None:
    try:
        ir = circuits.parse(source)
    except circuits.ParseError:
        return
    assert circuits.parse(circuits.format(ir)) == ir, source


# --------------------------------------------------------------------------
# Valid .loc programs, which reach the engine
# --------------------------------------------------------------------------


def unit_vector(draw, k: int) -> list[complex]:
    radii = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    phases = draw(st.lists(st.floats(0.0, 6.3), min_size=k, max_size=k))
    norm = math.sqrt(sum(r * r for r in radii))
    return [cmath.rect(r / norm, phi) for r, phi in zip(radii, phases)]


def amp_text(z: complex) -> str:
    return f"{z.real!r} {z.imag!r}"


@st.composite
def valid_loc_program(draw):
    """A program that passes ``parse``, with the squared norm of its preparations.

    Preparations come first, on distinct modes; then beam splitters on live
    modes, detections with fresh names, and ``postselect``/``correct`` over
    bound names. A ``correct`` may name any two live modes, so its pair need
    not hold a qubit.
    """
    count = draw(st.integers(2, 6))
    lines = [f"modes {count}"]
    factors = []  # the amplitudes of each preparation
    if draw(st.integers(0, 2)) == 0:
        kets = draw(
            st.lists(
                st.tuples(*[st.integers(0, 2)] * count), min_size=1, max_size=3, unique=True
            )
        )
        factors.append(unit_vector(draw, len(kets)))
        for occ, z in zip(kets, factors[0]):
            lines.append(f"ket |{','.join(map(str, occ))}> amp {amp_text(z)}")
    else:
        free = draw(st.permutations(range(1, count + 1)))
        while len(free) >= 2 and draw(st.integers(0, 3)) > 0:
            if len(free) >= 4 and draw(st.booleans()):
                kind = draw(st.sampled_from(["phi+", "phi-", "psi+", "psi-"]))
                lines.append(f"bell {kind} on {' '.join(map(str, free[:4]))}")
                factors.append([math.sqrt(0.5)] * 2)
                free = free[4:]
            else:
                factors.append(unit_vector(draw, 2))
                a0, a1 = map(amp_text, factors[-1])
                lines.append(f"dualrail {a0} {a1} on {free[0]} {free[1]}")
                free = free[2:]
    norm_squared = math.prod(sum(abs(z) ** 2 for z in factor) for factor in factors)

    live = list(range(1, count + 1))
    bound: list[str] = []

    def predicate() -> str:
        clauses = []
        for _ in range(draw(st.integers(1, 2))):
            names = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=2, unique=True))
            clauses.append(" && ".join(f"{n} == {draw(st.integers(0, 2))}" for n in names))
        return " || ".join(clauses)

    for _ in range(draw(st.integers(1, 8))):
        kinds = ["detect"] * bool(live) + ["bs"] * (len(live) >= 2)
        kinds += ["postselect"] * bool(bound) + ["correct"] * (len(live) >= 2 and bool(bound))
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "detect":
            mode = draw(st.sampled_from(live))
            live.remove(mode)
            bound.append(f"d{len(bound)}")
            lines.append(f"detect {mode} as {bound[-1]}")
        elif kind == "postselect":
            lines.append(f"postselect {predicate()}")
        else:
            p, q = draw(st.permutations(live))[:2]
            if kind == "bs":
                lines.append(f"bs {p} {q}")
            else:
                lines.append(f"correct z on {p} {q} if {predicate()}")
    return "\n".join(lines) + "\n", norm_squared


@given(program=valid_loc_program())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_valid_programs_run_or_exit_3_and_account_for_all_weight(tmp_path_factory, program):
    source, norm_squared = program
    path = tmp_path_factory.getbasetemp() / "valid.loc"
    path.write_text(source, encoding="utf-8")
    code, out, err = run(["run", str(path), "--json"])
    assert_documented_failure(code, err, {0, 3})
    assert_round_trips(source)
    if code == 0:
        reported = json.loads(out)["accepted_probability"]
        result = circuits.execute(circuits.parse(source))
        assert type(reported) is float and reported == result.accepted_probability
        total = result.accepted_probability + result.rejected_probability
        assert math.isclose(total, norm_squared, rel_tol=0.0, abs_tol=1e-12), source


# --------------------------------------------------------------------------
# Long runs of preparations, which grow the state
# --------------------------------------------------------------------------

S = repr(math.sqrt(0.5))
SUPERPOSED_DUALRAILS = "modes 48\n" + "".join(
    f"dualrail {S} 0 {S} 0 on {2 * i + 1} {2 * i + 2}\n" for i in range(24)
)


@st.composite
def growing_program(draw):
    """Up to 24 ``dualrail`` and ``bell`` lines on fresh modes of 64, each dualrail
    superposed (doubling the terms) or a basis state, some followed by the
    detection of a mode they prepared, which splits the run into branches."""
    lines, free = ["modes 64"], list(range(1, 65))
    for _ in range(draw(st.integers(1, 24))):
        if len(free) >= 4 and draw(st.booleans()):
            kind = draw(st.sampled_from(["phi+", "phi-", "psi+", "psi-"]))
            prepared, free = free[:4], free[4:]
            lines.append(f"bell {kind} on {' '.join(map(str, prepared))}")
        else:
            a0, a1 = draw(st.sampled_from([(S, S), (S, S), ("1", "0"), ("0", "1")]))
            prepared, free = free[:2], free[2:]
            lines.append(f"dualrail {a0} 0 {a1} 0 on {prepared[0]} {prepared[1]}")
        if draw(st.integers(0, 3)) == 0:
            lines.append(f"detect {prepared[0]} as d{len(lines)}")
        if len(free) < 2:
            break
    return "\n".join(lines) + "\n"


@given(source=growing_program())
@example(source=SUPERPOSED_DUALRAILS)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_preparation_holds_more_than_max_terms(source):
    """The terms each preparation writes, summed over the live branches, stay within
    ``MAX_TERMS``: past it, the run raises the limit's ``CircuitError`` first."""
    written: list[int | None] = []  # per element: the terms its states were built on
    trusted, preparation, detect = FockState._trusted, circuits._preparation, circuits._detect

    def record_state(mode_count, terms):
        if written and written[-1] is not None:
            written[-1] += len(terms)
        return trusted(mode_count, terms)

    def record_preparation(ir, element):
        written.append(0)
        return preparation(ir, element)

    def record_detection(b, names, positions):
        written.append(None)  # a detection splits the terms it is given
        return detect(b, names, positions)

    with mock.patch.object(FockState, "_trusted", record_state), mock.patch.object(
        circuits, "_preparation", record_preparation
    ), mock.patch.object(circuits, "_detect", record_detection):
        try:
            circuits.run_branches(circuits.parse(source))
        except circuits.CircuitError as exc:
            limit = rf"^(dualrail|bell \S+) on [\d ]+ could output \d+ terms, above the limit of {circuits.MAX_TERMS}$"
            assert re.match(limit, str(exc)), exc
    assert max(n for n in written if n is not None) <= circuits.MAX_TERMS, source
