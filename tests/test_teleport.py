"""The Bell-basis rewrite behind the gate, checked against brute force.

The oracle below builds the full three-qubit vector by explicit index
arithmetic and projects the first two qubits on each Bell state; nothing is
shared with the implementation except the Bell-state conventions
phi+- = (|00> +- |11>)/sqrt2 and psi+- = (|10> +- |01>)/sqrt2.
"""

import math

import numpy as np
import pytest

from dualrail.protocols import (
    BELL_LABELS,
    COMPONENT_LABELS,
    LITERATURE_COEFFICIENTS,
    PAULI,
    PAULI_PRODUCTS,
    BellAmplitudes,
    derive_teleport_coefficients,
    teleport_gate_table,
    verify_a_matrix,
)
from dualrail.rails import LogicalAmplitudes
from dualrail.verify import run_verification

from conftest import random_qubit
from reference_kernels import teleport_outcome_branches

S = 1.0 / math.sqrt(2.0)

BELL_VECTORS = {
    "phi+": np.array([S, 0, 0, S], dtype=complex),
    "phi-": np.array([S, 0, 0, -S], dtype=complex),
    "psi+": np.array([0, S, S, 0], dtype=complex),
    "psi-": np.array([0, -S, S, 0], dtype=complex),
}

# Frozen first-principles coefficient table (rows psi+, psi-, phi+, phi-;
# columns 0, z, x, y), computed with the oracle below.
EXPECTED_COEFFICIENTS = np.array(
    [
        [1, 1, 1, 1j],
        [-1, -1, 1, 1j],
        [1, -1, 1, -1j],
        [-1j, 1j, 1j, 1],
    ],
    dtype=complex,
)

# Entries where the frozen derivation disagrees with the literature table.
EXPECTED_MISMATCHES = {
    ("psi+", "z"),
    ("psi-", "0"),
    ("psi-", "x"),
    ("psi-", "y"),
    ("phi+", "z"),
    ("phi+", "y"),
    ("phi-", "z"),
    ("phi-", "x"),
}


def oracle_branches(u_amps, alpha) -> dict[str, np.ndarray]:
    """Un-normalized qubit-3 vector per Bell outcome on qubits (1, 2)."""
    psi = np.zeros(8, dtype=complex)
    ancilla_order = ("psi+", "psi-", "phi+", "phi-")
    for amp, label in zip(u_amps, ancilla_order):
        bell = BELL_VECTORS[label]
        for q1 in range(2):
            for q2 in range(2):
                for q3 in range(2):
                    psi[4 * q1 + 2 * q2 + q3] += amp * alpha[q1] * bell[2 * q2 + q3]
    out = {}
    for label, bell in BELL_VECTORS.items():
        vec = np.zeros(2, dtype=complex)
        for q3 in range(2):
            vec[q3] = sum(
                bell[2 * q1 + q2].conjugate() * psi[4 * q1 + 2 * q2 + q3]
                for q1 in range(2)
                for q2 in range(2)
            )
        out[label] = vec
    return out


def test_derived_coefficients_match_frozen_table():
    assert np.allclose(derive_teleport_coefficients(), EXPECTED_COEFFICIENTS, atol=1e-12)


def test_derived_coefficients_match_oracle(rng):
    """Branch structure: outcome b carries (a[b,i]/2) sigma_b sigma_i."""
    table = derive_teleport_coefficients()
    paulis = {
        "0": np.eye(2, dtype=complex),
        "z": np.diag([1, -1]).astype(complex),
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    }
    for c, component in enumerate(COMPONENT_LABELS):
        u = np.zeros(4)
        u[c] = 1.0
        for _ in range(5):
            alpha = random_qubit(rng).as_array()
            branches = oracle_branches(u, alpha)
            for r, (outcome, blabel) in enumerate(zip(BELL_LABELS, COMPONENT_LABELS)):
                want = (table[r, c] / 2.0) * (paulis[blabel] @ paulis[component] @ alpha)
                assert np.allclose(branches[outcome], want, atol=1e-12)


def test_every_coefficient_is_a_fourth_root_of_unity():
    table = derive_teleport_coefficients()
    for value in table.flatten():
        assert min(abs(value - w) for w in (1, -1, 1j, -1j)) < 1e-12


def test_gate_table_against_oracle_for_random_ancillas(rng):
    for _ in range(20):
        u_vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        u_vec /= np.linalg.norm(u_vec)
        u = BellAmplitudes(*[complex(x) for x in u_vec])
        qubit = random_qubit(rng)
        want = oracle_branches(u_vec, qubit.as_array())
        rows = teleport_gate_table(u, qubit)
        for outcome in BELL_LABELS:
            got = np.zeros(2, dtype=complex)
            for row in rows:
                if row.outcome == outcome:
                    got = got + row.coefficient * (row.operator @ qubit.as_array())
            assert np.allclose(got, want[outcome], atol=1e-12)


class TestStandardTeleportation:
    def test_psi_plus_ancilla_gives_single_pauli_rows(self, rng):
        u = BellAmplitudes(1.0, 0.0, 0.0, 0.0)
        rows = teleport_gate_table(u, random_qubit(rng))
        assert len(rows) == 4
        assert {r.outcome for r in rows} == set(BELL_LABELS)
        for row in rows:
            assert abs(row.coefficient) == pytest.approx(0.5, abs=1e-12)
            # operator is a Pauli: unitary with entries in {0, +-1, +-i}
            assert np.allclose(row.operator @ row.operator.conj().T, np.eye(2), atol=1e-12)

    def test_psi_plus_outcome_is_identity(self, rng):
        u = BellAmplitudes(1.0, 0.0, 0.0, 0.0)
        row = [r for r in teleport_gate_table(u, random_qubit(rng)) if r.outcome == "psi+"][0]
        assert np.allclose(row.operator, np.eye(2))

    def test_psi_minus_ancilla_psi_plus_outcome_is_sigma_z(self, rng):
        u = BellAmplitudes(0.0, 1.0, 0.0, 0.0)
        row = [r for r in teleport_gate_table(u, random_qubit(rng)) if r.outcome == "psi+"][0]
        assert np.allclose(row.operator, np.diag([1, -1]))

    def test_corrections_reconstruct_the_input(self, rng):
        """Every outcome of psi+ teleportation undoes to the input, weight 1/4."""
        u = BellAmplitudes(1.0, 0.0, 0.0, 0.0)
        for _ in range(10):
            qubit = random_qubit(rng)
            rows = {r.outcome: r for r in teleport_gate_table(u, qubit)}
            for outcome, (p, vec) in teleport_outcome_branches(u, qubit).items():
                assert p == pytest.approx(0.25, abs=1e-12)
                undone = rows[outcome].operator.conj().T @ vec
                assert abs(np.vdot(qubit.as_array(), undone)) == pytest.approx(
                    1.0, abs=1e-12
                )


def test_sign_flip_mechanism(rng):
    """An equal psi+/psi- ancilla makes the psi- outcome pick I or Z."""
    u = BellAmplitudes(S, S, 0.0, 0.0)
    qubit = random_qubit(rng)
    rows = [r for r in teleport_gate_table(u, qubit) if r.outcome == "psi-"]
    operators = {r.component: r.operator for r in rows}
    assert np.allclose(operators["0"], np.diag([1, -1]))  # flips (a, b) -> (a, -b)
    assert np.allclose(operators["z"], np.eye(2))
    probabilities = {r.component: abs(r.coefficient) ** 2 for r in rows}
    assert sum(probabilities.values()) == pytest.approx(0.25, abs=1e-12)


class TestCoefficientReport:
    def test_sixteen_entries(self):
        report = verify_a_matrix()
        assert len(report.entries) == 16

    def test_mismatches_are_itemized(self):
        report = verify_a_matrix()
        got = {(e.outcome, e.component) for e in report.mismatches}
        assert got == EXPECTED_MISMATCHES

    def test_derived_side_is_canonical(self):
        report = verify_a_matrix()
        assert np.allclose(report.derived, EXPECTED_COEFFICIENTS, atol=1e-12)
        assert np.allclose(report.literature, LITERATURE_COEFFICIENTS, atol=1e-12)

    def test_report_lines_mention_every_mismatch(self):
        text = "\n".join(verify_a_matrix().lines())
        assert "8 of 16 entries disagree" in text

    def test_unnormalized_ancilla_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            teleport_gate_table(BellAmplitudes(1.0, 1.0, 0.0, 0.0), LogicalAmplitudes.zero())


class TestCachedTable:
    """The table is derived once per process; the uncached derivation is the oracle."""

    def test_cached_table_equals_a_fresh_derivation(self):
        fresh = derive_teleport_coefficients.__wrapped__()
        cached = derive_teleport_coefficients()
        assert fresh is not cached
        assert np.array_equal(fresh, cached)  # exact ==, entry for entry

    def test_calls_share_one_read_only_array(self):
        first = derive_teleport_coefficients()
        assert derive_teleport_coefficients() is first
        assert not first.flags.writeable

    def test_cold_cache_gives_the_same_verify_text(self):
        warm = run_verification(0, 8).to_text()
        derive_teleport_coefficients.cache_clear()
        assert derive_teleport_coefficients.cache_info().currsize == 0
        assert run_verification(0, 8).to_text() == warm


# Module arrays every gate reads; one in-place write would corrupt them all.
SHARED_ARRAYS = {
    **{f"PAULI[{k}]": PAULI[k] for k in "IXYZ"},
    **{f"PAULI_PRODUCTS[{b},{i}]": m for (b, i), m in PAULI_PRODUCTS.items()},
    "LITERATURE_COEFFICIENTS": LITERATURE_COEFFICIENTS,
    "derive_teleport_coefficients()": derive_teleport_coefficients(),
}


@pytest.mark.parametrize("name", sorted(SHARED_ARRAYS))
def test_shared_arrays_reject_in_place_writes(name):
    array = SHARED_ARRAYS[name]
    before = array.copy()
    with pytest.raises(ValueError, match="read-only"):
        array *= -1
    with pytest.raises(ValueError, match="read-only"):
        array[0, 0] = 7
    assert np.array_equal(array, before)
