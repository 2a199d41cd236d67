"""Randomized invariant suite behind the ``verify`` command.

Every check is deterministic for a fixed seed, and the printed summary
contains no timing information, so two runs with the same seed are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measure, protocols
from .fock import FockState, as_int
from .optics import ModeUnitary, apply_mode_unitary, hadamard_bs
from .rails import LogicalAmplitudes


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    seed: int
    samples: int
    checks: list[CheckResult]
    coefficient_report: protocols.CoefficientReport

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verification suite (seed={self.seed}, samples={self.samples})"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"{mark} {c.name}: {c.detail}")
        lines.append("")
        lines.extend(self.coefficient_report.lines())
        lines.append("")
        lines.append("all checks passed" if self.all_passed else "SOME CHECKS FAILED")
        return "\n".join(lines) + "\n"


def _random_state(rng: np.random.Generator, modes: int, max_total: int) -> FockState:
    kets = set()
    for _ in range(rng.integers(1, 6)):
        total = int(rng.integers(0, max_total + 1))
        ket = [0] * modes
        for _ in range(total):
            ket[int(rng.integers(0, modes))] += 1
        kets.add(tuple(ket))
    terms = {k: complex(rng.normal(), rng.normal()) for k in kets}
    return FockState(modes, terms).normalized()


def _random_unitary(rng: np.random.Generator, dim: int) -> ModeUnitary:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return ModeUnitary(q)


def _random_qubit(rng: np.random.Generator) -> LogicalAmplitudes:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return LogicalAmplitudes(complex(v[0]), complex(v[1]))


def run_verification(seed: int = 0, samples: int = 50) -> VerifyReport:
    seed, samples = as_int(seed, "seed"), as_int(samples, "sample count")
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    def record(name: str, worst: float, bound: float, extra: str = "") -> None:
        detail = f"worst deviation {worst:.3e} (bound {bound:.0e})" + extra
        checks.append(CheckResult(name, worst <= bound, detail))

    # Norm preservation + photon conservation under random 2-mode unitaries.
    worst_norm = 0.0
    conserved = True
    for _ in range(samples):
        state = _random_state(rng, 4, 3)
        modes = list(rng.choice(4, size=2, replace=False))
        out = apply_mode_unitary(state, modes, _random_unitary(rng, 2))
        worst_norm = max(worst_norm, abs(out.norm_squared() - state.norm_squared()))
        conserved = conserved and out.total_photons() <= state.total_photons()
    record("norm preservation under mode unitaries", worst_norm, 1e-12)
    checks.append(
        CheckResult(
            "photon-number conservation",
            conserved,
            "every output ket keeps its source total" if conserved else "violated",
        )
    )

    # Hong-Ou-Mandel: balanced splitter on |1,1> has no coincidence term.
    hom = apply_mode_unitary(FockState.ket((1, 1)), [0, 1], hadamard_bs())
    record("Hong-Ou-Mandel coincidence suppression", abs(hom.amplitude((1, 1))), 1e-14)

    # Detection outcomes form a complete distribution.
    worst_total = 0.0
    for _ in range(samples):
        state = _random_state(rng, 4, 3)
        dist = measure.outcome_distribution(state, [0, 2])
        worst_total = max(worst_total, abs(sum(b.probability for b in dist) - 1.0))
    record("outcome distributions sum to one", worst_total, 1e-12)

    # Teleportation identity: ancilla psi+ reconstructs the input on every
    # outcome with weight 1/4, after undoing the derived correction.
    worst_tele = 0.0
    u = protocols.BellAmplitudes(1.0, 0.0, 0.0, 0.0)
    for _ in range(samples):
        qubit = _random_qubit(rng)
        table = protocols.teleport_gate_table(u, qubit)
        rows = {r.outcome: r for r in table}
        for outcome, (p, vec) in protocols.collapse_teleport_rows(table, qubit).items():
            worst_tele = max(worst_tele, abs(p - 0.25))
            undone = rows[outcome].operator.conj().T @ vec
            overlap = abs(np.vdot(qubit.as_array(), undone))
            worst_tele = max(worst_tele, abs(overlap - 1.0))
    record("teleportation identity (ancilla psi+)", worst_tele, 1e-12)

    # Destructive gate: acceptance probabilities and decoded outputs.
    worst_prob = 0.0
    worst_fid = 0.0
    for _ in range(samples):
        control = LogicalAmplitudes.one() if rng.integers(2) else LogicalAmplitudes.zero()
        target = _random_qubit(rng)
        for policy, expected in (("strict", 0.25), ("feedforward", 0.5)):
            run = protocols.run_destructive_csign(control, target, policy)
            worst_prob = max(worst_prob, abs(run.accepted_probability - expected))
            worst_fid = max(worst_fid, abs(run.fidelity_vs_reference - 1.0))
    record("destructive gate acceptance probability", worst_prob, 1e-12)
    record("destructive gate output fidelity", worst_fid, 1e-12)

    # Encoder for n = 2..4.
    worst_enc = 0.0
    for n in (2, 3, 4):
        qubit = _random_qubit(rng)
        for policy, expected in (("strict", 0.25), ("feedforward", 0.5)):
            run = protocols.run_quantum_encoder(qubit, n, policy)
            worst_enc = max(worst_enc, abs(run.accepted_probability - expected))
            worst_enc = max(worst_enc, abs(run.fidelity_vs_reference - 1.0))
    record("quantum encoder probability and fidelity (n=2..4)", worst_enc, 1e-12)

    # Nondestructive gate against the reference unitary.
    worst_nd = 0.0
    for _ in range(max(1, samples // 5)):
        control = _random_qubit(rng)
        target = _random_qubit(rng)
        run = protocols.run_nondestructive_csign(control, target, "feedforward")
        worst_nd = max(worst_nd, abs(run.accepted_probability - 0.25))
        worst_nd = max(worst_nd, abs(run.fidelity_vs_reference - 1.0))
        strict = protocols.run_nondestructive_csign(control, target, "strict")
        worst_nd = max(worst_nd, abs(strict.accepted_probability - 0.0625))
    record("nondestructive gate probability and fidelity", worst_nd, 1e-12)

    # Accepted branches never leak outside the dual-rail subspace: the
    # decodes above would have raised, so reaching this point proves it.
    checks.append(
        CheckResult("no leakage in accepted branches", True, "decodes raised no leakage")
    )

    return VerifyReport(seed, samples, checks, protocols.verify_a_matrix())
