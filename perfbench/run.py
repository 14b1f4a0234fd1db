"""commlb benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a commlb checkout; the program is imported from
``src/``.  Workloads: bounds-float, bounds-exact, compress-dp, compress-mc
(see perfbench/README.md).

The operations run in a separate process (perfbench/worker.py) that imports
only commlb, numpy and the standard library.  It repeats the workload's
operations in passes for about --seconds seconds, and takes each operation's
fastest pass.  This process then checks the outputs (checks.py) and prints,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The lines before it show each pass with its machine-speed
probe, each check, and each metric with its unit.  Result and trace files go
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("bounds-float", "bounds-exact", "compress-dp", "compress-mc")
WORKER_TIMEOUT_S = 165

END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", str(RESULTS / f"trace-{workload}-seed{seed}.json")]
    # A fixed hash seed gives every run the same dict and set layouts.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(data: dict) -> dict:
    best = [op["best_s"] for op in data["ops"] if op["best_s"] is not None]
    values = {
        "setup_s": min(data["setup_s"]),
        "work_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "peak_rss_mb": data["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import checks

    data = run_worker(workload, seed, seconds, trace)
    items = checks.run(workload, data["ops"])
    if data["unstable"]:
        items.append(("same output on every pass", False, ", ".join(data["unstable"][:5])))
    else:
        items.append(("same output on every pass", True, f"{len(data['passes'])} passes"))
    if trace:
        residue = data["self_time_residue_s"]
        items.append(("self times add up to the traced work", abs(residue) < 1e-6,
                      f"residue {residue:.1e} s"))
        if data["missing"]:
            items.append(("wrapped functions present", True,
                          "missing: " + ", ".join(data["missing"])))
    metrics = data["layers"] if trace else end_to_end(data)

    print(f"# {workload} seed={seed} trace={trace}: {len(data['ops'])} operations, "
          f"{len(data['passes'])} passes in {data['measured_s']:.1f} s")
    for i, p in enumerate(data["passes"]):
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {i + 1:2d} {kind:8s} wall {p['wall_s']:8.3f} s  "
              f"probe {p['probe_ms']:6.2f} ms  failed {p['failed']}")
    print("setup launches: " + " ".join(f"{s:.3f}" for s in data["setup_s"]) + " s")
    for name, ok, detail in items:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    for name, err in data["errors"].items():
        print(f"ERROR {name}: {err}")
    bases = data.get("layer_bases", {})
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        base = f"  (base: {bases[name]} trials)" if name in bases else ""
        print(f"{name:36s} {value:>14s} {m['unit']}{base}")
    result = {
        "correct": all(ok for _, ok, _ in items),
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }
    out = RESULTS / f"run-{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps({"result": result, "checks": items, "worker": data}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="commlb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "commlb" / "__init__.py").is_file():
        print(f"error: no commlb sources at {ROOT / 'src' / 'commlb'}; run from a commlb checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    RESULTS.mkdir(exist_ok=True)

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0

    results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print("# summary")
    for w, r in results.items():
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items()
                          if m["value"] is not None and not args.trace)
        print(f"{w:13s} correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}  {cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
