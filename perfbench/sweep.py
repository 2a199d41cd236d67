"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 \\
        --out perfbench/out/sweep.json

For every workload, trace setting and metric it reports the median and the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median. With
``BENCHMARK.json`` present it also flags every end-to-end spread that is not
below a third of the metric's bound. The output keeps every run's full
record (environment, sample counts, set-up samples), so a sweep over seeds
1 and 2 with both trace settings is a baseline for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["gates", "verify", "wide-states", "cli"])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", nargs="+", type=int, default=[0], choices=(0, 1))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8")) if spec_path.exists() else {}
    seconds = args.seconds or spec.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    runs, summary = [], {}
    for trace in args.trace:
        for workload in args.workloads:
            values: dict[str, list[float]] = {}
            for seed in args.seeds:
                record = run_once(workload, seed, seconds, trace)
                runs.append(record)
                result = record["result"]
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
                for name, entry in result["metrics"].items():
                    values.setdefault(name, []).append(entry["value"])
            table = {name: summarise(v) for name, v in values.items()}
            summary[f"{workload}/trace{trace}"] = table
            for name, s in table.items():
                flag = ""
                if name in bounds and name != "setup_s" and s["spread"] >= bounds[name] / 3:
                    flag = f"  <-- not below a third of bound {bounds[name]}"
                print(f"  {name:28} median {s['median']:<12.6g} spread {s['spread']:.4f}{flag}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps({"seconds": seconds, "seeds": args.seeds, "summary": summary, "runs": runs}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
