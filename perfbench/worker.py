"""One benchmark process: set up a workload, then run it as a closed loop.

Started by ``run.py``, which times the set-up from process start to the
``READY`` line this script prints, then reads the result JSON it prints as
its last line. ``--setup-only`` stops after ``READY``; ``run.py`` starts
several such processes so that ``setup_s`` is a median.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracer import TraceError, Tracer, layer_metrics, require_layers, span_counts

MIN_OPS = 100
# Hard stop for the minimum-operation extension, so that a run, set-up
# included, ends well inside 180 s even when operations become very slow.
MAX_LOOP_SECONDS = 60.0
MIN_TRACE_PASSES = 2


def run_op(op: workloads.Op, call) -> tuple[float, str | None]:
    """Run and check one operation; return its wall time and failure reason."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the operation
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


class LoopStats:
    """Latencies and failures of the operations a loop attempted.

    ``kernel`` holds calibration kernel times taken between operations;
    ``segment[j]`` is the index of the last kernel sample before operation j.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.segment: list[int] = []
        self.kernel: list[float] = []
        self.failed = 0
        self.reasons: dict[str, str] = {}

    def add(self, op: workloads.Op, elapsed: float, reason: str | None) -> None:
        self.latencies.append(elapsed)
        self.segment.append(max(0, len(self.kernel) - 1))
        if reason is not None:
            self.failed += 1
            self.reasons.setdefault(op.kind, reason)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def calibrated(self, kernel: calibrate.Kernel) -> list[float]:
        """Latencies scaled to the nominal machine speed (see ``calibrate``)."""
        scale = kernel.factors(self.kernel)
        return [t * scale[s] for t, s in zip(self.latencies, self.segment)]


def closed_loop(
    deck: list[workloads.Op],
    seconds: float,
    min_ops: int = MIN_OPS,
    kernel: calibrate.Kernel = calibrate.DICT_LOOP,
) -> LoopStats:
    """One client: each operation starts after the previous one is checked.

    Runs for ``seconds`` and on until ``min_ops`` operations are done, so
    that at least ten latency samples lie beyond p90. The calibration kernel
    runs before the first operation, after every ``kernel.every_s`` of
    operation time and after the last operation.
    """
    stats = LoopStats()
    start = time.perf_counter()
    stats.kernel.append(kernel.sample())
    since_kernel = 0.0
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_SECONDS or (elapsed >= seconds and stats.attempted >= min_ops):
            break
        op = deck[i % len(deck)]
        i += 1
        took, reason = run_op(op, op.run)
        stats.add(op, took, reason)
        since_kernel += took
        if since_kernel >= kernel.every_s:
            stats.kernel.append(kernel.sample())
            since_kernel = 0.0
    stats.kernel.append(kernel.sample())
    return stats


def _timing(latencies: list[float], ok: int) -> dict[str, float]:
    return {
        "ops_per_s": ok / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def loop_metrics(
    stats: LoopStats, kernel: calibrate.Kernel = calibrate.DICT_LOOP
) -> tuple[dict[str, float], dict[str, float]]:
    """Calibrated end-to-end timings plus ``ok_ratio``, and the raw timings."""
    ok = stats.attempted - stats.failed
    metrics = _timing(stats.calibrated(kernel), ok)
    metrics["ok_ratio"] = ok / stats.attempted
    return metrics, _timing(stats.latencies, ok)


def traced_run(wl: workloads.Workload, seconds: float, spans_path: Path | None) -> tuple[dict, LoopStats]:
    """Alternate untraced and traced passes over the first ``trace_ops`` operations.

    Every traced pass must give the same span counts; the per-layer counts
    come from the first one. Both kinds of pass run the same in-process
    calls, so their rates give the tracing overhead.
    """
    ops = wl.deck[: wl.trace_ops]
    tracer = Tracer()
    stats = LoopStats()
    with tracer.installed():
        for call in wl.traced_setup:
            call()
    pass_time = {False: [], True: []}
    next_id = 0
    first_ids: set[int] | None = None
    first_counts: dict[str, int] | None = None
    start = time.perf_counter()
    traced = False
    while True:
        elapsed = time.perf_counter() - start
        done = min(len(pass_time[False]), len(pass_time[True])) >= MIN_TRACE_PASSES
        if done and (elapsed >= seconds or elapsed >= MAX_LOOP_SECONDS):
            break
        ids = set(range(next_id, next_id + len(ops)))
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in ops:
                tracer.op = next_id
                next_id += 1
                stats.add(op, *run_op(op, op.inprocess or op.run))
        pass_time[traced].append(time.perf_counter() - t0)
        tracer.op = -1
        if traced:
            counts = span_counts(tracer.spans, ids)
            if first_counts is None:
                first_ids, first_counts = ids, counts
            elif counts != first_counts:
                raise TraceError(f"span counts differ between traced passes: {first_counts} vs {counts}")
        traced = not traced

    require_layers(wl.name, span_counts(tracer.spans, first_ids | {-1}))
    n_traced = len(ops) * len(pass_time[True])
    metrics = layer_metrics(tracer.spans, n_traced, first_ids, len(ops))
    traced_rate = len(ops) / statistics.median(pass_time[True])
    untraced_rate = len(ops) / statistics.median(pass_time[False])
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    if spans_path is not None:
        tracer.write(spans_path)
    return metrics, stats


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory: of this process, or of its largest child for ``cli``."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy

    import dualrail  # noqa: F401  (part of set-up: the import users pay)

    ctx = workloads.Context(
        root=Path(__file__).resolve().parent.parent,
        python=sys.executable,
        env=dict(os.environ),
        out_dir=args.out_dir,
    )
    wl = workloads.build(args.workload, args.seed, ctx)
    for op in wl.warmup:
        run_op(op, op.run)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result: dict = {"numpy": numpy.__version__}
    if args.trace:
        try:
            metrics, stats = traced_run(wl, args.seconds, args.spans_out)
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        stats = closed_loop(wl.deck, args.seconds, kernel=wl.kernel)
        metrics, raw = loop_metrics(stats, wl.kernel)
        metrics["peak_rss_mb"] = peak_rss_mb(args.workload)
        result.update(
            raw=raw,
            kernel=wl.kernel.name,
            kernel_mean_s=statistics.fmean(stats.kernel),
            speed_factor=wl.kernel.nominal_s / statistics.fmean(stats.kernel),
        )
    result.update(
        metrics=metrics,
        attempted=stats.attempted,
        failed=stats.failed,
        fail_reasons=stats.reasons,
        busy_s=sum(stats.latencies),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
