import copy
import math
import re
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualrail
from dualrail import circuits, protocols
from dualrail.circuits import (
    ApplyBS,
    CircuitError,
    CorrectZ,
    Detect,
    ParseError,
    PostSelect,
    PrepareBell,
    PrepareDualRail,
    PrepareKet,
    parse,
)
from dualrail.fock import equal_up_to_global_phase
from dualrail.optics import hadamard_bs
from dualrail.protocols import run_destructive_csign, run_nondestructive_csign
from dualrail.rails import LogicalAmplitudes

import reference_kernels as ref
from conftest import random_unitary

S = 1.0 / math.sqrt(2.0)


class TestParsing:
    def test_minimal_program(self):
        ir = parse("modes 2\nket |1,0>\nbs 1 2 matrix h\n")
        assert ir.mode_count == 2
        assert len(ir.elements) == 2
        assert isinstance(ir.elements[0], PrepareKet)
        assert ir.elements[1] == ApplyBS((0, 1), None)

    def test_labels_resolve(self):
        ir = parse("modes 2 labels up down\nbs down up\n")
        assert ir.elements[0] == ApplyBS((1, 0), None)

    def test_comments_and_blank_lines(self):
        ir = parse("# heading\n\nmodes 1\nket |1>  # trailing\n")
        assert isinstance(ir.elements[0], PrepareKet)

    def test_ket_amplitudes_accumulate(self):
        ir = parse(f"modes 2\nket |1,0> amp {S} 0\nket |0,1> amp {-S} 0\n")
        (element,) = ir.elements
        assert element == PrepareKet((((1, 0), complex(S)), ((0, 1), complex(-S))))

    def test_dualrail_statement(self):
        ir = parse(f"modes 2\ndualrail {S} 0 {S} 0 on 1 2\n")
        assert ir.elements[0] == PrepareDualRail(complex(S), complex(S), 0, 1)

    def test_bell_statement(self):
        ir = parse("modes 4\nbell psi- on 1 2 3 4\n")
        assert ir.elements[0] == PrepareBell("psi-", (0, 1, 2, 3))

    def test_explicit_matrix(self):
        ir = parse("modes 2\nbs 1 2 matrix 0 0 1 0 1 0 0 0\n")
        assert ir.elements[0] == ApplyBS((0, 1), (0j, 1 + 0j, 1 + 0j, 0j))

    def test_postselect_dnf(self):
        ir = parse(
            "modes 2\nket |1,0>\ndetect 1 as a\ndetect 2 as b\n"
            "postselect a == 1 && b == 0 || a == 0 && b == 1\n"
        )
        select = ir.elements[-1]
        assert isinstance(select, PostSelect)
        assert select.predicate == ((("a", 1), ("b", 0)), (("a", 0), ("b", 1)))

    def test_correct_with_condition(self):
        ir = parse("modes 3\nket |1,0,0>\ndetect 3 as c\ncorrect z on 1 2 if c == 1\n")
        assert ir.elements[-1] == CorrectZ(0, 1, ((("c", 1),),))


class TestParseErrors:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("ket |1,0>\n", "declaration must come first"),
            ("modes 2\nmodes 2\n", "duplicate 'modes'"),
            ("modes 0\n", "positive"),
            ("modes 2\nket |1>\n", "expected 2"),
            ("modes 2\nbs 1 1\n", "distinct"),
            ("modes 2\nbs 1 3\n", "out of range"),
            ("modes 2\nbs 1 two\n", "undeclared"),
            ("modes 2\nwiggle 1\n", "unknown statement"),
            ("modes 2\nbs 1 2 matrix 1 0 0 0 0 0 2 0\n", "not unitary"),
            ("modes 2\ndualrail 1 0 1 0 on 1 2\n", "not normalized"),
            ("modes 2\nket |1,0> amp\n", "end of line"),
            ("modes 2\nket |1,0> amp 1 0 junk\n", "trailing"),
            ("modes 2\ncorrect z on 1 2\n", "'if'"),
            ("modes 2\ncorrect x on 1 2 if a == 1\n", "only 'correct z'"),
            ("modes 1\nket |1> ?\n", "unrecognized"),
            ("modes 2\nket |-1,0>\n", r"unrecognized character \(at '\|'\)"),
            ("modes 2\nket |1,0> amp 1e999 0\n", "must be finite"),
            ("modes 2\nket |1,0> amp 2 0\n", "ket amplitudes are not normalized"),
            ("modes 2\nket |1,0>\nket |0,1>\nbs 1 2\n", "ket amplitudes are not normalized"),
            ("modes 2\nket |1,0> amp 1e300 1e300\n", "ket amplitudes are not normalized"),
            ("modes 2\ndualrail 1e300 1e300 0 0 on 1 2\n", "not normalized"),
        ],
    )
    def test_rejects(self, source, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse(source)

    def test_mode_count_is_bounded_before_anything_is_allocated(self):
        with pytest.raises(ParseError, match=f"at most {circuits.MAX_MODES}"):
            parse("modes 1000000000000\n")
        parse(f"modes {circuits.MAX_MODES}\n")

    def test_mode_bound_covers_the_widest_builtin_program(self):
        assert circuits.MAX_MODES >= 2 * protocols.MAX_ENCODER_COPIES + 2

    def test_photon_bound_is_checked_per_ket_term(self):
        parse(f"modes 2\nket |{circuits.MAX_PHOTONS},0>\n")
        with pytest.raises(ParseError, match=f"at most {circuits.MAX_PHOTONS} photons") as err:
            parse(f"modes 2\nket |{circuits.MAX_PHOTONS + 1},0>\n")
        assert (err.value.line, err.value.column) == (2, 5)

    def test_photon_bound_covers_the_encoder_and_stays_below_overflow(self):
        # The encoder's register holds one photon per copy, its input one more.
        assert circuits.MAX_PHOTONS >= protocols.MAX_ENCODER_COPIES + 1
        # sqrt(n!) of a term's photon total must stay a finite float.
        assert math.isfinite(math.sqrt(math.factorial(circuits.MAX_PHOTONS)))

    def test_ket_terms_are_summed_before_the_norm_check(self):
        ir = parse("modes 2\nket |1,0> amp 0.5 0\nket |1,0> amp 0.5 0\n")
        assert circuits.execute(ir).accepted_probability == 1.0

    def test_position_points_into_the_source(self):
        source = "modes 2\nbs 1 oops\n"
        with pytest.raises(ParseError) as err:
            parse(source)
        lines = source.splitlines()
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1
        assert err.value.token == "oops"

    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("modes 2\nket |1,0>\ndualrail 1 0 0 0 on 1 2\n", "twice"),
            ("modes 4\nbell phi+ on 1 2 3 4\ndualrail 1 0 0 0 on 1 2\n", "twice"),
            ("modes 2\ndualrail 1 0 0 0 on 1 2\nket |1,0>\n", "ket prepares mode 1 twice"),
            ("modes 2\nket |1,0>\ndetect 1 as a\ndetect 1 as b\n", "consumed"),
            ("modes 2\nket |1,0>\ndetect 1 as a\nbs 1 2\n", "consumed"),
            ("modes 2\nket |1,0>\npostselect a == 1\n", "unbound"),
            ("modes 2\nket |1,0>\ncorrect z on 1 2 if a == 1\n", "unbound"),
            ("modes 2\nket |1,0>\ndetect 1 as a\ndetect 2 as a\n", "bound twice"),
        ],
    )
    def test_semantic_errors(self, source, fragment):
        # A fault between elements is reported at the statement that breaks it.
        with pytest.raises(ParseError, match=fragment) as err:
            parse(source)
        assert (err.value.line, err.value.column) == (source.count("\n"), 1)

    def test_pending_ket_terms_are_checked_before_the_next_statement(self):
        # Two faults: the ket terms sum to norm 2, and the dualrail prepares
        # their modes again. The ket is checked first, at its first line.
        with pytest.raises(ParseError) as err:
            parse("modes 2\nket |1,0>\nket |0,1>\ndualrail 1 0 0 0 on 1 2\n")
        assert str(err.value) == "line 2, column 1: ket amplitudes are not normalized"

    def test_ket_after_operation(self):
        with pytest.raises(ParseError, match="before operations"):
            parse("modes 2\nket |1,0>\nbs 1 2\nket |0,1>\n")


ONE_PHOTON = PrepareKet((((1, 0), 1.0 + 0j),))


class TestHandBuiltPrograms:
    """``CircuitIR`` checks a program that ``parse`` never saw, when it is made."""

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((PrepareDualRail(0, 1, 0, 0),), "rail modes must be distinct"),
            ((PrepareKet((((1,), 1.0 + 0j),)),), "ket has 1 modes, expected 2"),
            ((ONE_PHOTON, PostSelect(((("a", 1),),))), "postselect references unbound outcome 'a'"),
            ((ONE_PHOTON, ApplyBS((0, 2), None)), "^mode 3 out of range$"),
            ((ONE_PHOTON, ApplyBS((1, 1), None)), "beam splitter modes must be distinct"),
            ((ONE_PHOTON, Detect(0, "a"), ApplyBS((0, 1), None)), "bs uses mode 1, already consumed"),
        ],
        ids=["repeated-rail", "short-ket", "unbound-name", "out-of-range", "repeated", "detected"],
    )
    def test_each_fault_raises_a_circuit_error(self, elements, message):
        with pytest.raises(CircuitError, match=message):
            circuits.CircuitIR(2, None, elements)

    @pytest.mark.parametrize(
        "element, message",
        [
            (PrepareBell("phi+", (0, 1, 2)), r"^bell needs 4 modes, got 3$"),
            (ApplyBS((0, 1, 2), None), r"^bs needs 2 modes, got 3$"),
            (ApplyBS((0, 1), (1, 0, 0)), r"^bs matrix needs 4 entries, got 3$"),
        ],
        ids=["three-mode-bell", "three-mode-bs", "three-entry-matrix"],
    )
    def test_each_element_arity_fault_raises_a_circuit_error(self, element, message):
        with pytest.raises(CircuitError, match=message):
            circuits.CircuitIR(3, None, (element,))

    @pytest.mark.parametrize(
        "mode_count, labels, elements, message",
        [
            (4, ("a",), (PrepareKet((((0, 1, 1, 0), 1 + 0j),)),), "expected 4 labels, got 1"),
            (2, ("a", "b", "c"), (), "expected 2 labels, got 3"),
            (2, ("a", "a"), (), "duplicate mode label"),
            (2.0, None, (), "expected integer mode count, got 2.0"),
            ("2", None, (), "expected integer mode count, got '2'"),
            (2, None, (ONE_PHOTON, ApplyBS((0.0, 1), None)), "expected integer bs mode, got 0.0"),
            (2, None, (PrepareDualRail(1, 0, 0, 1.0),), "expected integer dualrail mode, got 1.0"),
            (2, None, (ONE_PHOTON, Detect("1", "a")), "expected integer detect mode, got '1'"),
            (2, None, (PrepareKet((((1, 0), 2 + 0j),)), Detect(0, "a")), "ket amplitudes are not normalized"),
            (2, None, (PrepareKet((((1, 0), complex("inf")),)),), "ket amplitude must be finite"),
            (2, None, (PrepareDualRail(2, 0, 0, 1),), "dualrail amplitudes are not normalized"),
            (2, None, (PrepareDualRail(10**400, 0, 0, 1),), "dualrail amplitude overflows a float"),
            (4, None, (PrepareBell("chi", (0, 1, 2, 3)),), "unknown Bell state"),
            (2, None, (ApplyBS((0, 1), (1, 0, 0, 2)),), "matrix is not unitary (defect 3.000e+00)"),
            (0, None, (), "mode count must be positive"),
            (65, None, (), "mode count must be at most 64"),
            (2, None, (PrepareKet((((65, 0), 1 + 0j),)),), "a ket may hold at most 64 photons"),
            (2, None, (ONE_PHOTON, Detect(0, "a"), PostSelect(((("a", -1),),))),
             "photon count must be non-negative"),
            (2, None, (PostSelect(()),), "postselect needs at least one clause"),
            (2, None, (PostSelect(((),)),), "postselect has a clause with no equality"),
            (2, None, (ONE_PHOTON, "junk"), "unknown program element 'junk'"),
            (2, None, (PrepareKet((((-1, 2), 1 + 0j),)),), "photon count must be non-negative"),
            (2, None, (PrepareKet((((1.0, 0), 1 + 0j),)),), "expected integer photon counts, got (1.0, 0)"),
            (2, None, (ONE_PHOTON, Detect(0, "a"), PostSelect(((("a", 1.0),),))),
             "expected integer photon count, got 1.0"),
            (2, None, (ONE_PHOTON, Detect(0, "a"), PostSelect(((("a", "1"),),))),
             "expected integer photon count, got '1'"),
            (2, None, (ONE_PHOTON, Detect(0, "a"), PostSelect((("a", 1),))),
             "postselect needs 2 (name, count) entries, got 1"),
            (2, None, (PrepareKet((((1, 0), 10**400),)),), "ket amplitude overflows a float"),
            (2, None, (ApplyBS((0, 1), (10**400, 0, 0, 1)),), "bs matrix amplitude overflows a float"),
            (2, None, (ApplyBS((0, 1), ("1", 0, 0, "1")),), "expected a number as bs matrix amplitude, got '1'"),
            (2, None, (PrepareDualRail("1", 0, 0, 1),), "expected a number as dualrail amplitude, got '1'"),
            (2, None, (PrepareDualRail(complex("inf"), 0, 0, 1),), "dualrail amplitude must be finite"),
            (2, None, (PrepareDualRail(np.array([1.0]), 0, 0, 1),), "expected a number as dualrail amplitude, got array([1.])"),
            (2, None, (PrepareDualRail(np.array([1.0, 0.0]), 0, 0, 1),),
             "expected a number as dualrail amplitude, got array([1., 0.])"),
            (2, None, (PrepareKet((((1, 0), "1"),)),), "expected a number as ket amplitude, got '1'"),
            (2, None, (PrepareKet((((1, 0), "x"),)),), "expected a number as ket amplitude, got 'x'"),
            (2, None, (PrepareKet((((1, 0), 1 + 0j, 0),)),), "ket term needs 2 entries, got 3"),
            (2, None, (PrepareKet((5,)),), "expected ket term entries as a sequence, got 5"),
            (4, None, (PrepareBell("phi+", 5),), "expected bell modes as a sequence, got 5"),
            (2, 5, (), "expected mode labels as a sequence, got 5"),
            (1, (["a"],), (), "expected a str mode label, got ['a']"),
            (2, ("a", 2), (), "expected a str mode label, got 2"),
            (2, None, 5, "expected program elements as a sequence, got 5"),
            (2, None, (PrepareKet(5),), "expected ket terms as a sequence, got 5"),
            (2, None, (PostSelect(5),), "expected postselect clauses as a sequence, got 5"),
            (2, None, (PostSelect((5,)),), "expected postselect equalities as a sequence, got 5"),
            (2, None, (ONE_PHOTON, Detect(0, ["a"])), "expected a str outcome name, got ['a']"),
            (2, None, (ONE_PHOTON, Detect(0, "a"), PostSelect((((["a"], 1),),))),
             "expected a str outcome name, got ['a']"),
            (2, None, (ONE_PHOTON, Detect(0, 7)), "expected a str outcome name, got 7"),
            (2, None, (ONE_PHOTON, Detect(0, "a"), Detect(1, 1)), "expected a str outcome name, got 1"),
        ],
        ids=["short-labels", "long-labels", "repeated-label", "float-count", "str-count",
             "float-bs-mode", "float-rail", "str-detect-mode", "ket-norm", "ket-inf", "dualrail-norm",
             "dualrail-huge-int", "bell-kind", "non-unitary", "zero-modes", "too-many-modes", "ket-photons",
             "negative-count", "no-clause", "empty-clause", "junk", "negative-occupation", "float-occupation",
             "float-predicate-count", "str-predicate-count", "pairless-clause", "ket-huge-int", "bs-huge-int",
             "str-bs-entry", "str-dualrail-amp", "dualrail-inf", "one-element-array-amp", "two-element-array-amp",
             "str-ket-amp", "word-ket-amp", "long-ket-term",
             "int-ket-term", "int-bell-modes", "int-labels", "list-label", "int-label", "int-elements",
             "int-ket-terms", "int-predicate", "int-clause", "list-outcome", "list-predicate-name",
             "int-outcome", "mixed-outcome-names"],
    )
    def test_each_program_fault_raises_before_run_and_format(self, mode_count, labels, elements, message):
        """Unchecked, each raises AttributeError, IndexError, OverflowError,
        TypeError or ValueError, or runs (an unnormalized ket with accepted
        probability 4) and formats to text that ``parse`` rejects. Checked
        when the program is made, there is no program to run or format."""
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            circuits.CircuitIR(mode_count, labels, elements)

    def test_numpy_integer_modes_run_and_round_trip(self):
        # numpy and bool modes, occupations and counts, and a numpy amplitude,
        # run as their ints do and format as ints and floats.
        i = np.int64
        ket = PrepareKet((((i(1), False), 0.6 + 0j), ((0, True), np.float64(0.8))))
        select = PostSelect(((("a", i(1)),), (("a", True), ("a", np.int32(1)))))
        ir = circuits.CircuitIR(i(2), None, (ket, ApplyBS((i(0), np.int32(1)), None), Detect(i(1), "a"), select))
        parsed = parse(circuits.format(ir))
        assert parsed == ir
        assert branch_bits(circuits.run_branches(ir)) == branch_bits(circuits.run_branches(parsed))
        assert circuits.format(circuits.CircuitIR(True, None, ())) == "modes 1\n"

    def test_a_subclassed_element_is_unknown(self):
        class Splitter(ApplyBS):
            pass

        with pytest.raises(CircuitError, match=r"^unknown program element .*Splitter\(modes=\(0, 1\), matrix=None\)$"):
            circuits.CircuitIR(2, None, (ONE_PHOTON, Splitter((0, 1), None)))

    @pytest.mark.parametrize(
        "mode_count, labels, elements",
        [
            (2, ["a", "b"], (PrepareKet((((1, 0), 1),)),)),
            (2, None, [ONE_PHOTON, ApplyBS([0, 1], None)]),
            (2, None, (PrepareKet([[[1, 0], 0.6], [[0, 1], 0.8]]),)),
            (2, None, (ONE_PHOTON, ApplyBS((0, 1), np.array([1, 0, 0, 1])))),
            (3, None, (PrepareKet((((1, 0, 1), 1),)), Detect(2, "a"), PostSelect([[["a", 1]]]), CorrectZ(0, 1, [[("a", 0)]]))),
            (4, None, (PrepareBell("phi+", [0, 1, 2, 3]),)),
        ],
        ids=["list-labels", "list-elements", "list-ket-terms", "array-matrix", "list-predicates", "list-bell-modes"],
    )
    def test_list_and_array_fields_compare_and_round_trip(self, mode_count, labels, elements):
        # The IR keeps its sequences as tuples, so it equals and hashes as the
        # program parse reads back, and as itself built again from copies.
        ir = circuits.CircuitIR(mode_count, labels, elements)
        parsed = parse(circuits.format(ir))
        assert parsed == ir and hash(parsed) == hash(ir)
        assert circuits.CircuitIR(*copy.deepcopy((mode_count, labels, elements))) == ir
        assert branch_bits(circuits.run_branches(ir)) == branch_bits(circuits.run_branches(parsed))

    def test_a_program_keeps_none_of_the_lists_it_was_built_from(self):
        ket, labels, modes = [[[1, 0], 0.6], [[0, 1], 0.8]], ["p", "q"], [0, 1]
        predicate = [[["a", 1]]]
        ir = circuits.CircuitIR(2, labels, [PrepareKet(ket), ApplyBS(modes, None), Detect(0, "a"), PostSelect(predicate)])
        before = branch_bits(circuits.run_branches(ir)), circuits.format(ir)
        ket[0][1], labels[0], predicate[0][0][1], modes[0] = 0.8, "r", 0, 1
        assert (branch_bits(circuits.run_branches(ir)), circuits.format(ir)) == before


    @pytest.mark.parametrize(
        "mode_count, program",
        [
            (2, lambda m: (ONE_PHOTON, Detect(m(0), "a"))),
            (2, lambda m: (ONE_PHOTON, ApplyBS((m(0), m(1)), None))),
            (2, lambda m: (PrepareDualRail(1, 0, m(0), m(1)),)),
            (3, lambda m: (PrepareKet((((1, 0, 1), 1),)), Detect(2, "a"), CorrectZ(m(0), m(1), ((("a", 1),),)))),
            (4, lambda m: (PrepareBell("phi+", tuple(map(m, range(4)))),)),
        ],
        ids=["detect", "bs", "dualrail", "correct", "bell"],
    )
    def test_zero_d_array_modes_are_kept_as_ints(self, mode_count, program):
        # operator.index reads a 0-d integer array; kept as given, it would leave
        # the program unhashable, and a later write would move format but not the plan.
        arrays = []

        def array(m):
            arrays.append(np.array(m))
            return arrays[-1]

        ir = circuits.CircuitIR(mode_count, None, program(array))
        twin = circuits.CircuitIR(mode_count, None, program(int))
        assert ir == twin and hash(ir) == hash(twin)
        before = circuits.format(ir), branch_bits(circuits.run_branches(ir))
        for a in arrays:
            a[()] = mode_count - 1 - a
        assert (circuits.format(ir), branch_bits(circuits.run_branches(ir))) == before

    def test_an_iterator_occupation_runs_as_its_tuple(self):
        # The rule pass reads the occupation once; the kept ket is what it read.
        def program(occupation):
            return circuits.CircuitIR(2, None, (PrepareKet(((occupation, 1),)), ApplyBS((0, 1), None), Detect(0, "a")))

        ir, twin = program(iter([1, 0])), program((1, 0))
        assert ir == twin and circuits.format(ir) == circuits.format(twin)
        assert branch_bits(circuits.run_branches(ir)) == branch_bits(circuits.run_branches(twin))


class TestCheckedOnce:
    """A program is checked and planned once, when it is made, and runs and formats by what it keeps."""

    def test_construction_compiles_and_running_or_formatting_does_not(self, monkeypatch):
        compiled = []
        compile_ = circuits._compile
        monkeypatch.setattr(circuits, "_compile", lambda ir: compiled.append(ir) or compile_(ir))
        elements = (ONE_PHOTON, ApplyBS((0, 1), None), Detect(0, "x"), PostSelect(((("x", 1),),)))
        ir = circuits.CircuitIR(2, ("a", "b"), elements)
        assert compiled == [ir]
        circuits.run_branches(ir), circuits.execute(ir), circuits.format(ir)
        assert compiled == [ir]

    def test_parse_makes_one_rule_walk(self, monkeypatch):
        checked = []
        check = circuits._Rules.check
        monkeypatch.setattr(circuits, "_compile", None)  # a call would raise
        monkeypatch.setattr(circuits._Rules, "check", lambda rules, e: checked.append(e) or check(rules, e))
        ir = parse(dualrail.data_path("fig2.loc").read_text())
        circuits.execute(ir)
        assert checked == list(ir.elements)

    def test_a_ket_only_program_runs_its_ket(self):
        result = circuits.run_branches(parse(f"modes 2\nket |1,0> amp {S} 0\nket |0,1> amp 0 {S}\n"))
        assert list(result.branches[0].residual.terms.items()) == [((1, 0), S + 0j), ((0, 1), S * 1j)]


class TestFormatNames:
    """``format`` writes only labels and outcome names that ``parse`` reads back."""

    @pytest.mark.parametrize(
        "build, accepted",
        [(protocols._destructive_program, 0.5), (protocols._nondestructive_program, 0.25)],
        ids=["destructive", "nondestructive"],
    )
    def test_the_gates_labels_run_but_do_not_format(self, build, accepted):
        # Both gates label the arm that carries the teleported target 1'.
        ir = build("feedforward")
        assert circuits.run_branches(ir).accepted_probability == pytest.approx(accepted)
        with pytest.raises(CircuitError, match=r"""^label "1'" is not a \.loc name$"""):
            circuits.format(ir)

    @pytest.mark.parametrize(
        "labels, name, message",
        [
            (("a", "3"), "x", "label '3' is not a .loc name"),
            (None, "x y", "outcome 'x y' is not a .loc name"),
            (("a", "b#"), "x", "label 'b#' is not a .loc name"),
        ],
        ids=["number-label", "spaced-outcome", "comment-label"],
    )
    def test_a_name_the_scanner_does_not_read_is_refused(self, labels, name, message):
        ir = circuits.CircuitIR(2, labels, (ONE_PHOTON, Detect(0, name)))
        circuits.run_branches(ir)
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            circuits.format(ir)

    def test_names_with_a_trailing_sign_and_keywords_round_trip(self):
        elements = (ONE_PHOTON, Detect(1, "h"), PostSelect(((("h", 0),),)))
        ir = circuits.CircuitIR(2, ("on", "phi+"), elements)
        assert parse(circuits.format(ir)) == ir


class TestExecution:
    def test_prepare_and_detect_everything(self):
        report = circuits.execute(parse("modes 2\nket |1,0>\ndetect 1 as a\ndetect 2 as b\n"))
        assert len(report.branches) == 1
        branch = report.branches[0]
        assert branch.counts == {"a": 1, "b": 0}
        assert branch.probability == pytest.approx(1.0)
        assert branch.residual is None

    def test_a_closing_joint_detection_leaves_only_its_undetected_modes(self):
        source = "modes 4 labels a b c d\nket |1,0,1,0>\nbs 1 2\nbs 3 4\ndetect 2 as x\ndetect 3 as y\n"
        result = circuits.run_branches(parse(source))
        assert result.output_labels == ("a", "d")
        assert [b.residual.mode_count for b in result.branches] == [2, 2, 2, 2]
        assert [tuple(b.counts.values()) for b in result.branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_unprepared_modes_are_vacuum(self):
        report = circuits.execute(parse("modes 3\ndualrail 0 0 1 0 on 1 2\ndetect 3 as v\n"))
        assert report.branches[0].counts == {"v": 0}

    def test_branch_probabilities_sum_to_one(self):
        source = (
            "modes 2\n"
            f"dualrail {S} 0 {S} 0 on 1 2\n"
            "bs 1 2\n"
            "detect 1 as a\n"
            "detect 2 as b\n"
        )
        report = circuits.execute(parse(source))
        assert report.accepted_probability + report.rejected_probability == pytest.approx(1.0)
        assert report.rejected_probability == 0.0

    def test_postselect_moves_weight_to_rejected(self):
        source = (
            "modes 2\n"
            f"dualrail {S} 0 {S} 0 on 1 2\n"
            "detect 1 as a\n"
            "postselect a == 1\n"
        )
        report = circuits.execute(parse(source))
        assert report.accepted_probability == pytest.approx(0.5, abs=1e-12)
        assert report.rejected_probability == pytest.approx(0.5, abs=1e-12)

    def test_correction_applies_conditionally(self):
        source = (
            "modes 4\n"
            "ket |0,1,1,0> amp 1 0\n"
            "detect 1 as a\n"
            "detect 2 as b\n"
            "correct z on 3 4 if b == 1\n"
        )
        report = circuits.execute(parse(source))
        branch = report.branches[0]
        assert branch.corrections == ("Z on (3, 4)",)
        assert branch.residual.amplitude((1, 0)) == pytest.approx(-1.0)

    def test_a_joint_detect_maps_each_name_to_its_own_modes_count(self):
        # Listed in descending mode order, so listed order and mode order differ.
        source = f"modes 3\nket |2,0,1> amp {S} 0\nket |1,1,0> amp {S} 0\ndetect 3 as c\ndetect 1 as a\n"
        report = circuits.execute(parse(source))
        assert [b.counts for b in report.branches] == [{"a": 1, "c": 0}, {"a": 2, "c": 1}]

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("dualrail 0.6 0 0.8 0 on 2 1", [((1, 0, 0, 0), 0.6 + 0j), ((0, 1, 0, 0), 0.8 + 0j)]),
            ("bell phi- on 4 3 2 1", [((1, 0, 1, 0), S + 0j), ((0, 1, 0, 1), -S + 0j)]),
        ],
        ids=["dualrail", "bell"],
    )
    def test_a_preparation_listed_against_mode_order_writes_each_listed_mode(self, line, expected):
        # The first listed mode takes the factor's first count: dualrail's
        # rail1 is mode 2, and the Bell pair's first rail is mode 4.
        result = circuits.run_branches(parse(f"modes 4\n{line}\n"))
        assert list(result.branches[0].residual.terms.items()) == expected

    def test_term_bound_is_summed_over_branches_before_the_splitter_runs(self, monkeypatch):
        # Detecting mode 3 leaves |3,0> (c = 0) and |0,0> (c = 3): the splitter
        # can output 3 + 1 and 0 + 1 kets, 5 in all.
        source = f"modes 3\nket |3,0,0> amp {S} 0\nket |0,0,3> amp {S} 0\ndetect 3 as c\nbs 1 2\n"
        monkeypatch.setattr(circuits, "MAX_TERMS", 5)
        circuits.execute(parse(source))
        monkeypatch.setattr(circuits, "MAX_TERMS", 4)
        monkeypatch.setattr(circuits, "apply_mode_unitary", None)  # a call would raise
        with pytest.raises(CircuitError, match="bs 1 2 could output 5 terms, above the limit of 4"):
            circuits.execute(parse(source))

    @pytest.mark.parametrize(
        "line, name",
        [("bell phi+ on 3 4 5 6", "bell phi+ on 3 4 5 6"), (f"dualrail {S} 0 {S} 0 on 4 3", "dualrail on 4 3")],
        ids=["bell", "dualrail"],
    )
    def test_a_preparation_is_bounded_by_its_factor_times_the_live_terms(self, monkeypatch, line, name):
        # Detecting mode 1 leaves two branches of one term each, and either
        # preparation's factor holds two terms.
        source = f"modes 6\ndualrail {S} 0 {S} 0 on 1 2\ndetect 1 as a\n{line}\n"
        monkeypatch.setattr(circuits, "MAX_TERMS", 4)
        circuits.execute(parse(source))
        monkeypatch.setattr(circuits, "MAX_TERMS", 3)
        injected = []
        inject = circuits._inject
        monkeypatch.setattr(circuits, "_inject", lambda *args: injected.append(args) or inject(*args))
        with pytest.raises(CircuitError, match=f"^{re.escape(name)} could output 4 terms, above the limit of 3$"):
            circuits.execute(parse(source))
        assert len(injected) == 1  # the first dualrail only

    def test_a_basis_dualrail_writes_and_counts_no_term_for_its_zero_amplitude(self, monkeypatch):
        monkeypatch.setattr(circuits, "MAX_TERMS", 2)
        result = circuits.run_branches(parse(f"modes 4\ndualrail {S} 0 {S} 0 on 1 2\ndualrail 1 0 0 0 on 3 4\n"))
        assert len(result.branches[0].residual.terms) == 2

    def test_term_bound_covers_every_builtin_program(self, monkeypatch):
        bounds = []
        term_bound = circuits._term_bound

        def record(branches, local_of):
            bounds.append(term_bound(branches, local_of))
            return bounds[-1]

        monkeypatch.setattr(circuits, "_term_bound", record)
        qubits = [LogicalAmplitudes.zero(), LogicalAmplitudes.one(), LogicalAmplitudes(S, S)]
        for policy in protocols.POLICIES:
            for control in qubits:
                for target in qubits:
                    run_destructive_csign(control, target, policy)
                    run_nondestructive_csign(control, target, policy)
            for n in range(2, protocols.MAX_ENCODER_COPIES + 1):
                protocols.run_quantum_encoder(LogicalAmplitudes(S, S), n, policy)
        for name in ("fig1.loc", "fig2.loc"):
            circuits.execute(circuits.load(str(dualrail.data_path(name))))
        assert 0 < max(bounds) < 100
        assert 64 * max(bounds) <= circuits.MAX_TERMS


class TestShippedCircuits:
    def test_fig1_matches_the_destructive_protocol(self):
        ir = parse(dualrail.data_path("fig1.loc").read_text())
        report = circuits.execute(ir)
        run = run_destructive_csign(
            LogicalAmplitudes.one(), LogicalAmplitudes(S, S), "strict"
        )
        accepted = [b for b in run.branches if b.accepted]
        assert len(report.branches) == len(accepted) == 1
        got, want = report.branches[0], accepted[0]
        assert got.counts == want.counts
        assert got.probability == pytest.approx(want.probability, abs=1e-12)
        assert equal_up_to_global_phase(got.residual, want.residual, 1e-10).equal

    def test_fig2_matches_the_nondestructive_protocol(self):
        ir = parse(dualrail.data_path("fig2.loc").read_text())
        report = circuits.execute(ir)
        run = run_nondestructive_csign(
            LogicalAmplitudes.one(), LogicalAmplitudes(S, S), "feedforward"
        )
        accepted = {tuple(sorted(b.counts.items())): b for b in run.branches if b.accepted}
        assert report.accepted_probability == pytest.approx(0.25, abs=1e-12)
        assert len(report.branches) == len(accepted) == 4
        for branch in report.branches:
            want = accepted[tuple(sorted(branch.counts.items()))]
            assert branch.probability == pytest.approx(want.probability, abs=1e-12)
            assert equal_up_to_global_phase(branch.residual, want.residual, 1e-10).equal


# ---------------------------------------------------------------------------
# Round-trip corpus
# ---------------------------------------------------------------------------


def random_program(rng: np.random.Generator) -> circuits.CircuitIR:
    """A random valid program exercising every element kind."""
    mode_count = int(rng.integers(2, 7))
    labels = None
    if rng.random() < 0.5:
        labels = tuple(f"q{i + 1}" for i in range(mode_count))
    elements: list = []

    free = list(range(mode_count))
    if rng.random() < 0.3:
        kets = set()
        for _ in range(int(rng.integers(1, 4))):
            kets.add(tuple(int(rng.integers(0, 2)) for _ in range(mode_count)))
        amps = [complex(round(rng.normal(), 6), round(rng.normal(), 6)) for _ in kets]
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))  # parse requires a unit norm
        elements.append(PrepareKet(tuple((ket, a / norm) for ket, a in zip(kets, amps))))
        free = []
    else:
        rng.shuffle(free)
        while len(free) >= 2 and rng.random() < 0.8:
            if len(free) >= 4 and rng.random() < 0.4:
                kind = ("phi+", "phi-", "psi+", "psi-")[int(rng.integers(4))]
                modes = tuple(free.pop() for _ in range(4))
                elements.append(PrepareBell(kind, modes))
            else:
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                v /= np.linalg.norm(v)
                r1, r0 = free.pop(), free.pop()
                elements.append(PrepareDualRail(complex(v[0]), complex(v[1]), r1, r0))

    live = list(range(mode_count))
    bound: list[str] = []
    for _ in range(int(rng.integers(1, 6))):
        roll = rng.random()
        if roll < 0.45 and len(live) >= 2:
            pair = rng.choice(live, size=2, replace=False)
            matrix = None
            if rng.random() < 0.3:
                u = random_unitary(rng, 2)
                matrix = tuple(complex(u[i, j]) for i in range(2) for j in range(2))
            elements.append(ApplyBS((int(pair[0]), int(pair[1])), matrix))
        elif roll < 0.75 and len(live) >= 2:
            mode = live.pop(int(rng.integers(len(live))))
            name = f"d{len(bound) + 1}"
            elements.append(Detect(mode, name))
            bound.append(name)
        elif roll < 0.9 and bound:
            predicate = tuple(
                tuple((name, int(rng.integers(0, 3))) for name in bound[: int(rng.integers(1, len(bound) + 1))])
                for _ in range(int(rng.integers(1, 3)))
            )
            elements.append(PostSelect(predicate))
        elif bound and len(live) >= 2:
            pair = rng.choice(live, size=2, replace=False)
            condition = ((bound[int(rng.integers(len(bound)))], int(rng.integers(0, 3))),)
            elements.append(CorrectZ(int(pair[0]), int(pair[1]), (condition,)))

    return circuits.CircuitIR(mode_count, labels, tuple(elements))


def test_roundtrip_on_generated_corpus():
    """format -> parse is the identity on 200 random valid programs."""
    rng = np.random.default_rng(7340)
    for _ in range(200):
        ir = random_program(rng)
        text = circuits.format(ir)
        assert parse(text) == ir, text


def test_format_is_idempotent():
    rng = np.random.default_rng(411)
    for _ in range(50):
        text = circuits.format(random_program(rng))
        assert circuits.format(parse(text)) == text


def test_shipped_files_roundtrip():
    for name in ("fig1.loc", "fig2.loc"):
        ir = parse(dualrail.data_path(name).read_text())
        assert parse(circuits.format(ir)) == ir


def test_every_exported_name_resolves():
    missing = [name for name in dualrail.__all__ if not hasattr(dualrail, name)]
    assert missing == []


def test_every_exported_name_is_its_home_modules_object():
    # The gates' names load on first use, through the package's __getattr__.
    for name in dualrail.__all__:
        value = getattr(dualrail, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    assert dualrail.run_destructive_csign is protocols.run_destructive_csign
    namespace: dict = {}
    exec("from dualrail import *", namespace)
    assert all(namespace[name] is getattr(dualrail, name) for name in dualrail.__all__)
    with pytest.raises(AttributeError, match=r"^module 'dualrail' has no attribute 'run_csign'$"):
        dualrail.run_csign


# ---------------------------------------------------------------------------
# Hand-built programs against parse and format
# ---------------------------------------------------------------------------


def plant(ir: circuits.CircuitIR, fault: str) -> tuple:
    """The fields of ``ir`` with one fault planted where no other rule breaks first."""
    first = (1,) + (0,) * (ir.mode_count - 1)
    if fault == "zero-modes":
        return 0, None, ir.elements
    if fault == "too-many-modes":
        return circuits.MAX_MODES + 1, None, ir.elements
    if fault == "bad-label":
        return ir.mode_count, tuple(f"{m}'" for m in range(ir.mode_count)), ir.elements
    element = {
        "ket-norm": PrepareKet(((first, 2 + 0j),)),
        "ket-inf": PrepareKet(((first, complex("inf")),)),
        "ket-photons": PrepareKet((((circuits.MAX_PHOTONS + 1,) + first[1:], 1 + 0j),)),
        "dualrail-norm": PrepareDualRail(2, 0, 0, 1),
        "bell-kind": PrepareBell("chi", (0, 1, 2, 3)),
        "non-unitary": ApplyBS((0, 1), (1, 0, 0, 2)),
        "negative-count": PostSelect(((("d1", -1),),)),
        "no-clause": PostSelect(()),
        "empty-clause": PostSelect(((),)),
        "junk": "junk",
        "negative-occupation": PrepareKet((((-1,) + first[1:], 1 + 0j),)),
        "float-occupation": PrepareKet((((1.0,) + first[1:], 1 + 0j),)),
        "float-predicate-count": PostSelect(((("d1", 1.0),),)),
        "pairless-clause": PostSelect((("d", 1),)),
        "ket-huge-int": PrepareKet(((first, 10**400),)),
        "bs-huge-int": ApplyBS((0, 1), (10**400, 0, 0, 1)),
        "str-dualrail-amp": PrepareDualRail("1", 0, 0, 1),
        "str-ket-amp": PrepareKet(((first, "1"),)),
        "long-ket-term": PrepareKet(((first, 1 + 0j, 0),)),
        "int-bell-modes": PrepareBell("phi+", 5),
    }[fault]
    return ir.mode_count, ir.labels, (element, *ir.elements)


FAULTS = ["zero-modes", "too-many-modes", "ket-norm", "ket-inf", "ket-photons", "dualrail-norm",
          "bell-kind", "non-unitary", "negative-count", "no-clause", "empty-clause", "junk",
          "negative-occupation", "float-occupation", "float-predicate-count", "pairless-clause", "ket-huge-int",
          "bs-huge-int", "str-dualrail-amp", "str-ket-amp", "long-ket-term", "int-bell-modes"]


# Part of the message of the one run-time CircuitError a valid program can raise.
LEAKING = "outside the dual-rail subspace"


def outcome(call, *args):
    """What ``call(*args)`` returns, or the message of the ``CircuitError`` it raises."""
    try:
        return call(*args), None
    except CircuitError as exc:
        return None, str(exc)


def branch_bits(result: circuits.RunResult) -> list:
    """Every field of every branch, floats as hex, so equal means bit-identical."""
    def terms(state):
        return None if state is None else [(k, v.real.hex(), v.imag.hex()) for k, v in state.terms.items()]

    rows = [(b.counts, b.probability.hex(), terms(b.residual), b.corrections, b.accepted) for b in result.branches]
    return [rows, result.accepted_probability.hex(), result.rejected_probability.hex(), result.output_labels]


@given(seed=st.integers(0, 2**32 - 1), fault=st.sampled_from([None, "bad-label", *FAULTS]))
@settings(max_examples=200, deadline=None)
def test_run_and_format_agree_and_every_formatted_program_round_trips(seed, fault):
    """``CircuitIR`` raises the rule's ``CircuitError`` exactly when a rule
    fault is planted; ``format`` then raises only for names; otherwise the
    formatted text parses back to the same program, which runs to
    bit-identical branches (or to the same run-time error, such as a leaking
    ``correct``)."""
    ir = random_program(np.random.default_rng(seed))
    fields = (ir.mode_count, ir.labels, ir.elements) if fault is None else plant(ir, fault)
    ir, error = outcome(circuits.CircuitIR, *fields)
    assert (error is None) == (fault in (None, "bad-label"))
    if error is not None:
        return
    result, run_error = outcome(circuits.run_branches, ir)
    text, format_error = outcome(circuits.format, ir)
    ran = run_error is None or LEAKING in run_error  # a leaking correct is a fault of the run
    if format_error is not None:
        assert format_error.endswith("is not a .loc name")
        assert fault == "bad-label" and ran
        return
    assert fault is None
    parsed = parse(text)
    assert parsed == ir, text
    assert ran
    if run_error is not None:
        assert outcome(circuits.run_branches, parsed)[1] == run_error
    else:
        assert branch_bits(circuits.run_branches(parsed)) == branch_bits(result)


for _fault in [None, "bad-label", *FAULTS]:
    test_run_and_format_agree_and_every_formatted_program_round_trips = example(seed=7340, fault=_fault)(
        test_run_and_format_agree_and_every_formatted_program_round_trips
    )


def relabelled(ir: circuits.CircuitIR, sigma: list[int]) -> circuits.CircuitIR:
    """``ir`` with circuit mode m moved to mode ``sigma[m]`` in every element, the
    ket occupations included, and each mode keeping its label."""
    def ket(occ):
        moved = [0] * ir.mode_count
        for m, count in enumerate(occ):
            moved[sigma[m]] = count
        return tuple(moved)

    def move(e):
        if isinstance(e, PrepareKet):
            return PrepareKet(tuple((ket(occ), amp) for occ, amp in e.terms))
        if isinstance(e, (PrepareDualRail, CorrectZ)):
            return replace(e, rail1=sigma[e.rail1], rail0=sigma[e.rail0])
        if isinstance(e, (PrepareBell, ApplyBS)):
            return replace(e, modes=tuple(sigma[m] for m in e.modes))
        if isinstance(e, Detect):
            return replace(e, mode=sigma[e.mode])
        return e

    labels = [""] * ir.mode_count
    for m in range(ir.mode_count):
        labels[sigma[m]] = ir.label_of(m)
    return circuits.CircuitIR(ir.mode_count, tuple(labels), tuple(map(move, ir.elements)))


@given(seed=st.integers(0, 2**32 - 1), shuffle=st.integers(0, 2**32 - 1))
@example(seed=7340, shuffle=0)
@settings(max_examples=60, deadline=None)
def test_relabelling_the_modes_moves_only_the_residual_kets(seed, shuffle):
    """Branch probabilities are bit-identical under a permutation of the modes, and
    each residual is too, term by term in the same order, once its kets are mapped back
    by the output labels: the plan's live positions follow the modes."""
    ir = random_program(np.random.default_rng(seed))
    sigma = [int(m) for m in np.random.default_rng(shuffle).permutation(ir.mode_count)]
    result, error = outcome(circuits.run_branches, ir)
    moved, moved_error = outcome(circuits.run_branches, relabelled(ir, sigma))
    assert (error is None) == (moved_error is None)
    if error is not None:
        assert LEAKING in error and error.split(":")[0] == moved_error.split(":")[0]
        return
    back = [moved.output_labels.index(label) for label in result.output_labels]
    for b in moved.branches:
        if b.residual is not None:
            b.residual = SimpleNamespace(terms={tuple(k[j] for j in back): v for k, v in b.residual.terms.items()})
    moved.output_labels = tuple(moved.output_labels[j] for j in back)
    assert branch_bits(moved) == branch_bits(result)


def splitter_sites(ir: circuits.CircuitIR) -> list[tuple[int, list[int]]]:
    """Each index before which a ``bs`` may go, with the circuit modes live there: past the
    preparations, not inside a run of ``detect`` lines (one joint detection), two modes live."""
    live, sites = list(range(ir.mode_count)), []
    for at, element in enumerate((*ir.elements, None)):
        prepares = isinstance(element, (PrepareKet, PrepareDualRail, PrepareBell))
        joint = at > 0 and isinstance(ir.elements[at - 1], Detect) and isinstance(element, Detect)
        if not prepares and not joint and len(live) >= 2:
            sites.append((at, list(live)))
        if isinstance(element, Detect):
            live.remove(element.mode)
    return sites


def with_splitters(ir: circuits.CircuitIR, at: int, pair: tuple[int, int], matrices: list) -> circuits.CircuitIR:
    """``ir`` with one ``bs`` on ``pair`` per matrix, in order, before element ``at``."""
    added = tuple(ApplyBS(pair, tuple(complex(z) for z in m.flat)) for m in matrices)
    return circuits.CircuitIR(ir.mode_count, ir.labels, ir.elements[:at] + added + ir.elements[at:])


def unnormalized(result: circuits.RunResult) -> dict:
    """Each branch by its counts: its flags, its probability, and its residual's amplitudes
    times sqrt(probability), the state its detections left before it was renormalized."""
    return {
        tuple(sorted(b.counts.items())): (
            (b.accepted, b.corrections),
            b.probability,
            {} if b.residual is None else {k: v * math.sqrt(b.probability) for k, v in b.residual.terms.items()},
        )
        for b in result.branches
    }


@given(seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 2**32 - 1), relation=st.sampled_from(["split", "undone"]))
@example(seed=7340, draw=0, relation="split")
@example(seed=7340, draw=0, relation="undone")
@settings(max_examples=150, deadline=None)
def test_a_splitter_factored_in_two_or_undone_by_its_inverse_leaves_the_branches(seed, draw, relation):
    """A ``bs`` of matrix U equals a ``bs`` of A followed by one of U A^H, and U followed
    by U^H equals no ``bs`` at all: the runs give the same branches, flags and labels,
    probabilities and unnormalized residuals to 1e-12. Placed after any detections, the
    splitters reach the kernels through the plan's live positions."""
    ir = random_program(np.random.default_rng(seed))
    rng = np.random.default_rng(draw)
    sites = splitter_sites(ir)
    at, live = sites[int(rng.integers(len(sites)))]
    pair = tuple(int(m) for m in rng.choice(live, size=2, replace=False))
    u = hadamard_bs().matrix if rng.random() < 0.5 else random_unitary(rng, 2)
    if relation == "split":
        a = random_unitary(rng, 2)
        one, two = with_splitters(ir, at, pair, [u]), with_splitters(ir, at, pair, [a, u @ a.conj().T])
    else:
        one, two = ir, with_splitters(ir, at, pair, [u, u.conj().T])
    (first, error), (second, second_error) = outcome(circuits.run_branches, one), outcome(circuits.run_branches, two)
    assert (error is None) == (second_error is None)
    if error is not None:
        assert LEAKING in error and error.split(":")[0] == second_error.split(":")[0]
        return
    assert first.output_labels == second.output_labels
    assert math.isclose(first.accepted_probability, second.accepted_probability, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(first.rejected_probability, second.rejected_probability, rel_tol=0, abs_tol=1e-12)
    left, right = unnormalized(first), unnormalized(second)
    for counts in left.keys() | right.keys():
        flags, p, terms = left.get(counts, (None, 0.0, {}))
        other_flags, other_p, other_terms = right.get(counts, (None, 0.0, {}))
        assert None in (flags, other_flags) or flags == other_flags
        assert abs(p - other_p) <= 1e-12
        assert all(abs(terms.get(k, 0j) - other_terms.get(k, 0j)) <= 1e-12 for k in terms.keys() | other_terms.keys())


def joint_detections(ir: circuits.CircuitIR) -> list[tuple[int, int]]:
    """Each joint detection of two or more ``detect`` lines, as its (start, stop) element indices."""
    runs, start = [], None
    for at, element in enumerate((*ir.elements, None)):
        if isinstance(element, Detect):
            start = at if start is None else start
            continue
        if start is not None and at - start >= 2:
            runs.append((start, at))
        start = None
    return runs


def by_counts(result: circuits.RunResult) -> dict:
    """Each branch, keyed by its counts in name order, with every other field as bits."""
    return {tuple(sorted(b.counts.items())): row for b, row in zip(result.branches, branch_bits(result)[0])}


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=7340)
@settings(max_examples=100, deadline=None)
def test_reordering_the_detect_lines_of_a_joint_detection_permutes_only_the_counts(seed):
    """One joint detection's ``detect`` lines in another order give the same branches, bit
    for bit, each keyed by its counts: only the order of the names in each branch's counts,
    and of the branches, follows the lines. Summed over branches in another order, the
    accepted and rejected weights agree to 1e-12."""
    rng = np.random.default_rng(seed)
    while not (runs := joint_detections(ir := random_program(rng))):
        pass
    start, stop = runs[int(rng.integers(len(runs)))]
    lines = ir.elements[start:stop]
    lines = tuple(lines[int(i)] for i in rng.permutation(len(lines)))
    moved = circuits.CircuitIR(ir.mode_count, ir.labels, ir.elements[:start] + lines + ir.elements[stop:])
    (result, error), (other, other_error) = outcome(circuits.run_branches, ir), outcome(circuits.run_branches, moved)
    assert (error is None) == (other_error is None)
    if error is not None:
        assert LEAKING in error and error.split(":")[0] == other_error.split(":")[0]
        return
    names = [e.name for e in moved.elements if isinstance(e, Detect)]
    assert all(list(b.counts) == names for b in other.branches)
    assert len(other.branches) == len(result.branches) and by_counts(other) == by_counts(result)
    assert other.output_labels == result.output_labels
    assert math.isclose(other.accepted_probability, result.accepted_probability, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(other.rejected_probability, result.rejected_probability, rel_tol=0, abs_tol=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=7340)
@settings(max_examples=100, deadline=None)
def test_execute_is_run_branches_filtered_and_sorted(seed):
    """``execute`` keeps exactly the accepted branches of ``run_branches``, bit for bit, each
    with its counts in name order, listed in increasing order of those counts, and the same
    accepted and rejected weights and labels."""
    ir = random_program(np.random.default_rng(seed))
    (result, error), (kept, kept_error) = outcome(circuits.run_branches, ir), outcome(circuits.execute, ir)
    assert error == kept_error
    if error is not None:
        return
    keys = [tuple(b.counts.items()) for b in kept.branches]
    assert keys == sorted(tuple(sorted(b.counts.items())) for b in result.branches if b.accepted)
    assert by_counts(kept) == {key: row for key, row in by_counts(result).items() if row[-1]}
    assert branch_bits(kept)[1:] == branch_bits(result)[1:]


RAIL_PREPARATIONS = (PrepareDualRail, PrepareBell)


def with_one_ket(ir: circuits.CircuitIR) -> circuits.CircuitIR:
    """``ir`` with its ``dualrail`` and ``bell`` lines, which open it, replaced by one ``ket``
    of their product: each line's terms as ``reference_kernels.preparation`` gives them,
    on the vacuum of every mode no line prepares."""
    count = sum(isinstance(e, RAIL_PREPARATIONS) for e in ir.elements)
    assert all(isinstance(e, RAIL_PREPARATIONS) for e in ir.elements[:count])
    product = {(0,) * ir.mode_count: 1.0 + 0j}
    for element in ir.elements[:count]:
        modes, terms = ref.preparation(ir.mode_count, element)
        grown = {}
        for ket, amp in product.items():
            for sub, z in terms:
                occ = list(ket)
                for m, n in zip(modes, sub):
                    occ[m] = n
                grown[tuple(occ)] = amp * z
        product = grown
    return circuits.CircuitIR(ir.mode_count, ir.labels, (PrepareKet(tuple(product.items())),) + ir.elements[count:])


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=7340)
@settings(max_examples=100, deadline=None)
def test_dualrail_and_bell_lines_run_as_the_ket_of_their_product(seed):
    """A program's ``dualrail`` and ``bell`` lines and the one ``ket`` that spells their
    product prepare the same state, so the runs give the same branches, in the same order,
    with the same counts, flags and labels, and probabilities and residual amplitudes to
    1e-15 (or the same run-time error)."""
    rng = np.random.default_rng(seed)
    ir = random_program(rng)
    while not ir.elements or not isinstance(ir.elements[0], RAIL_PREPARATIONS):
        ir = random_program(rng)
    result, error = outcome(circuits.run_branches, ir)
    other, other_error = outcome(circuits.run_branches, with_one_ket(ir))
    assert error == other_error
    if error is not None:
        return
    assert [(b.counts, b.accepted, b.corrections) for b in other.branches] == [
        (b.counts, b.accepted, b.corrections) for b in result.branches
    ]
    assert other.output_labels == result.output_labels
    assert abs(result.accepted_probability - other.accepted_probability) <= 1e-15
    assert abs(result.rejected_probability - other.rejected_probability) <= 1e-15
    for b, c in zip(result.branches, other.branches):
        assert abs(b.probability - c.probability) <= 1e-15
        assert (b.residual is None) == (c.residual is None)
        if b.residual is not None:
            assert b.residual.terms.keys() == c.residual.terms.keys()
            assert all(abs(v - c.residual.terms[k]) <= 1e-15 for k, v in b.residual.terms.items())
