"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads bounds-float,compress-dp --seeds 1-10 [--seconds 20]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread: the distance between the
quartiles as a share of the median.  Each run's JSON line is appended to
perfbench/results/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    (HERE / "results").mkdir(exist_ok=True)
    log = HERE / "results" / "spread.jsonl"
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        fractions = set()
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            fractions.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)
        print(f"{workload}: failed share per run {sorted(fractions)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:13s} {name:14s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {(q3 - q1) / med:.2%}  min {min(vals):.5g}  max {max(vals):.5g}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
