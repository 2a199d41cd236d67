"""Command-line entry point.

Exit codes: 0 success, 2 usage or input validation error, 3 circuit parse or
validation error, 4 internal invariant violation or any other unexpected
error (one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Callable, NoReturn

from . import circuits, protocols, reports, verify
from .rails import LeakageError, LogicalAmplitudes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Rejects a malformed command line with one stderr line and exit 2; the
    stock parser also prints the usage, which can wrap over several lines."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def _parse_amplitudes(text: str, what: str, warnings: list[str]) -> LogicalAmplitudes:
    """Read ``a0_re,a0_im,a1_re,a1_im`` into a normalized qubit.

    Inputs must normalize within 1e-6; deviations above 1e-12 are rescaled
    and noted in ``warnings``.
    """
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"{what}: expected four comma-separated reals, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what}: malformed number in {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{what}: non-finite number in {text!r}")
    q = LogicalAmplitudes(complex(values[0], values[1]), complex(values[2], values[3]))
    try:
        norm = math.sqrt(q.norm_squared())
    except OverflowError:  # finite amplitudes whose squares exceed the float range
        norm = math.inf
    if norm == 0.0:
        raise UsageError(f"{what}: amplitudes are all zero")
    if abs(norm - 1.0) > 1e-6:
        raise UsageError(f"{what}: amplitudes are not normalized (norm {norm!r})")
    if abs(norm - 1.0) > 1e-12:
        warnings.append(f"renormalizing {what} (norm deviation {abs(norm-1.0):.2e})")
    return q.normalized()


def _parse_bloch(text: str, what: str) -> LogicalAmplitudes:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what}: expected theta,phi, got {text!r}")
    try:
        theta, phi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{what}: malformed number in {text!r}")
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise UsageError(f"{what}: non-finite angle in {text!r}")
    return LogicalAmplitudes.from_bloch(theta, phi)


def _qubit_options(args: argparse.Namespace, *names: str) -> list[LogicalAmplitudes]:
    """Parse every named qubit option before warning, in one stderr line, about
    the rescaled ones; a rejected option leaves its error as the only line."""
    warnings: list[str] = []
    qubits = []
    for name in names:
        bloch = getattr(args, f"{name}_bloch")
        if bloch is not None:
            qubits.append(_parse_bloch(bloch, name))
        else:
            qubits.append(_parse_amplitudes(getattr(args, name), name, warnings))
    if warnings:
        print("warning: " + "; ".join(warnings), file=sys.stderr)
    return qubits


def _qubit_json(q: LogicalAmplitudes) -> list[list[float]]:
    return [[q.a0.real, q.a0.imag], [q.a1.real, q.a1.imag]]


def _add_qubit_args(parser: argparse.ArgumentParser, name: str, default: str) -> None:
    parser.add_argument(
        f"--{name}",
        default=default,
        metavar="RE,IM,RE,IM",
        help=f"{name} qubit as a0_re,a0_im,a1_re,a1_im (default {default})",
    )
    parser.add_argument(
        f"--{name}-bloch",
        default=None,
        metavar="THETA,PHI",
        help=f"{name} qubit as Bloch angles; overrides --{name}",
    )


_SQRT_HALF = "0.7071067811865476"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dualrail",
        description="Exact simulator for heralded dual-rail conditional sign-flip gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("csign-destructive", help="run the control-consuming gate")
    _add_qubit_args(p, "control", "0,0,1,0")
    _add_qubit_args(p, "target", f"{_SQRT_HALF},0,{_SQRT_HALF},0")
    p.add_argument("--policy", choices=protocols.POLICIES, default="strict")
    p.add_argument("--json", action="store_true", help="emit the schema'd JSON report")
    p.set_defaults(func=cmd_csign, gate=protocols.run_destructive_csign)

    p = sub.add_parser("csign-nondestructive", help="run the encoder-backed gate")
    _add_qubit_args(p, "control", "0,0,1,0")
    _add_qubit_args(p, "target", f"{_SQRT_HALF},0,{_SQRT_HALF},0")
    p.add_argument("--policy", choices=protocols.POLICIES, default="strict")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_csign, gate=protocols.run_nondestructive_csign)

    p = sub.add_parser("encoder", help="copy a qubit's basis states onto n qubits")
    _add_qubit_args(p, "input", f"{_SQRT_HALF},0,{_SQRT_HALF},0")
    p.add_argument(
        "--n",
        type=int,
        default=2,
        help=f"number of encoded copies (2 to {protocols.MAX_ENCODER_COPIES})",
    )
    p.add_argument("--policy", choices=protocols.POLICIES, default="strict")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encoder)

    p = sub.add_parser("run", help="execute a .loc circuit file")
    p.add_argument("path", help="circuit file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the randomized invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    return parser


def _report(args: argparse.Namespace, inputs: dict, run: Callable[[], circuits.RunResult]) -> int:
    """Time ``run``, then write its report as a table or, with ``--json``, as JSON."""
    start = time.perf_counter()
    result = run()
    duration = time.perf_counter() - start
    report = reports.from_run(result, args.command, inputs, duration)
    sys.stdout.write(report.to_json() if args.json else report.to_table())
    return EXIT_OK


def cmd_csign(args: argparse.Namespace) -> int:
    control, target = _qubit_options(args, "control", "target")
    inputs = {
        "control": _qubit_json(control),
        "target": _qubit_json(target),
        "policy": args.policy,
    }
    return _report(args, inputs, lambda: args.gate(control, target, args.policy))


def cmd_encoder(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if args.n > protocols.MAX_ENCODER_COPIES:
        raise UsageError(f"--n must be at most {protocols.MAX_ENCODER_COPIES}")
    (qubit,) = _qubit_options(args, "input")
    inputs = {"input": _qubit_json(qubit), "n": args.n, "policy": args.policy}
    return _report(args, inputs, lambda: protocols.run_quantum_encoder(qubit, args.n, args.policy))


def cmd_run(args: argparse.Namespace) -> int:
    try:
        ir = circuits.load(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _report(args, {"path": args.path}, lambda: circuits.execute(ir))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.samples <= 0:
        raise UsageError("--samples must be positive")
    report = verify.run_verification(args.seed, args.samples)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (circuits.ParseError, circuits.CircuitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (LeakageError, protocols.SimulationInvariantError) as exc:
        # LeakageError subclasses ValueError, so this arm must come first.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
