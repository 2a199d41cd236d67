"""Run one workload of the dualrail benchmark and print its metrics.

    python3 perfbench/run.py --workload gates --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src`` (no
install needed). The run is pinned to one CPU. Set-up is measured in fresh
processes: several ``--setup-only`` workers plus the measuring worker, each
timed from process start to the point where it is ready for its first timed
operation; ``setup_s`` is their median. All end-to-end timings are scaled
to a nominal machine speed with a kernel from ``calibrate.py``; the raw
timings are kept in the record. With ``--trace 0`` the worker runs the
closed loop untraced and the end-to-end metrics are printed; with
``--trace 1`` it runs the traced passes and the per-layer metrics are
printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, sample counts, failure reasons, set-up samples) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and the spans of a
traced run to ``perfbench/out/spans-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import per_layer_units

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("gates", "verify", "wide-states", "cli")

SETUP_ONLY_WORKERS = 4
# Every wait is cut at this many seconds after start, so that a hung worker
# still ends the run (with an error) inside the 180 s a run may take.
DEADLINE_S = 170.0
PROBE_REPEATS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_START = time.perf_counter()


def time_left() -> float:
    return max(0.0, DEADLINE_S - (time.perf_counter() - _START))


def start_worker(args: argparse.Namespace, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; return it and its set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(OUT), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(time_left(), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
    finally:
        killer.cancel()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker until the deadline; return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=time_left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"run did not finish within {DEADLINE_S} s")
    return out


def measure_setup(args: argparse.Namespace) -> float:
    proc, setup = start_worker(args, ["--setup-only"])
    finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with code {proc.returncode}")
    return setup


def run_worker(args: argparse.Namespace, spans: Path) -> tuple[dict, float]:
    extra = ["--spans-out", str(spans)] if args.trace else []
    proc, setup = start_worker(args, extra)
    out = finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def probe_ms(code: str) -> float:
    """Median wall time of ``python -c code`` in milliseconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=time_left())
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _git(*argv: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args: argparse.Namespace) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    status = _git("status", "--porcelain")
    src_status = _git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "git_src_dirty": None if src_status is None else bool(src_status),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def pin_to_one_cpu() -> int | None:
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="dualrail benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dualrail" / "__init__.py").is_file():
        print(f"error: no dualrail package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    # One CPU for this process and every process it starts, so that the
    # calibration kernel runs on the core that runs the measured work.
    env["pinned_cpu"] = pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    try:
        # setup_s is an end-to-end metric, so traced runs skip the extra workers.
        setups = [measure_setup(args) for _ in range(0 if args.trace else SETUP_ONLY_WORKERS)]
        result, setup = run_worker(args, spans)
        setups.append(setup)
        metrics = result["metrics"]
        if args.trace:
            interp = probe_ms("pass")
            metrics["cli.interp_start_ms"] = interp
            metrics["cli.import_ms"] = probe_ms("import dualrail") - interp
        else:
            # Scaled by the mean kernel time of the loop that follows: the
            # few kernel runs that fit next to one set-up are too noisy.
            metrics["setup_s"] = statistics.median(setups) * result["speed_factor"]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "environment": {**env, "numpy": result["numpy"]},
        "result": line,
        "fail_ratio": result["failed"] / result["attempted"],
        "latency_samples": result["attempted"],
        "busy_s": result["busy_s"],
        "setup_samples_s": setups,
        "raw_timings": result.get("raw"),
        "kernel": result.get("kernel"),
        "kernel_mean_s": result.get("kernel_mean_s"),
        "speed_factor": result.get("speed_factor"),
        "fail_reasons": result["fail_reasons"],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for reason_kind, reason in result["fail_reasons"].items():
        print(f"FAILED {reason_kind}: {reason}")
    print(f"{tag}: {result['attempted']} operations ({result['failed']} failed) in {result['busy_s']:.2f} s busy")
    for name, entry in line["metrics"].items():
        print(f"  {name:28} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
