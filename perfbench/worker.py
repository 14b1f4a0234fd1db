"""The measured process: runs one workload's operations in passes and times them.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--trace-file F]
        Prints one JSON object: each operation's fastest time over the passes,
        the machine-speed probe of each pass, the records the checks read, the
        peak resident memory, the set-up times and, when traced, the per-layer
        metrics.  perfbench/run.py starts this process and reads that object.

    python3 perfbench/worker.py --setup W --seed N
        Prints the seconds this fresh interpreter takes to import commlb and
        build the workload's inputs.

This process imports nothing beyond commlb, numpy (through commlb) and the
standard library, so its peak resident memory is the program's own.  It runs
one operation at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

MIN_BLOCKS = 3        # passes of an untraced run, whatever --seconds says
MIN_TRACED_BLOCKS = 2 # untraced/traced pairs of a traced run
MIN_SETUPS = 5        # fresh-interpreter set-up launches per run
PROBE_LOOP = 60_000   # iterations of the machine-speed reference loop
PROBE_REPS = 5
PICK_LOOP = 15_000    # iterations of the loop that picks the less loaded CPU
PICK_EVERY_S = 0.25
LONG_OP_S = 0.05      # operations at least this long pick a CPU right before they run
SHORT_OP_S = 0.005    # operations shorter than this are timed WARM_REPEATS times per pass
WARM_REPEATS = 5


def setup_seconds(workload: str, seed: int) -> float:
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    return time.perf_counter() - start


def launch_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up launch failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _loop_s(iterations: int) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter() - start


class CpuPicker:
    """Keeps this thread on whichever allowed CPU currently runs a short loop fastest.

    On a shared host each CPU slows down by tens of per cent for a second or
    more at a time while another tenant loads it, and the CPUs do so
    independently.  Before each operation of LONG_OP_S or more, and otherwise
    every PICK_EVERY_S, the picker times the loop on each CPU, the current one
    last, and moves to the fastest.  A move costs cold caches, so it happens
    between operations, outside the timed region.
    """

    def __init__(self) -> None:
        try:
            self.allowed = os.sched_getaffinity(0)
        except (AttributeError, OSError):
            self.allowed = set()
        self.cpus = sorted(self.allowed)[:4]
        self.last = -float("inf")

    def release(self) -> None:
        """Back to every allowed CPU, as a process started by a user would be."""
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, self.allowed)

    def pick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or (not force and now - self.last < PICK_EVERY_S):
            return
        current = os.sched_getaffinity(0)
        order = [c for c in self.cpus if c not in current] + [c for c in self.cpus if c in current]
        times = []
        for cpu in order:
            os.sched_setaffinity(0, {cpu})
            times.append((_loop_s(PICK_LOOP), cpu))
        os.sched_setaffinity(0, {min(times)[1]})
        self.last = time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    On Linux ``ru_maxrss`` survives exec, so a worker started by a parent
    that had grown larger would report the parent's peak; VmHWM belongs to
    the current image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_ms() -> float:
    """Fastest time of a fixed pure-Python loop: a reading of machine speed."""
    return min(_loop_s(PROBE_LOOP) for _ in range(PROBE_REPS)) * 1e3


def run_pass(ops, tracer, picker, best):
    """One pass over the operations.  Returns per-op times, records, errors
    and (traced) root span ids.  `best` holds each operation's fastest time
    so far: long operations pick a CPU first, and short ones are timed
    WARM_REPEATS times in a row, keeping the fastest, so that their figure
    is the warm-cache time rather than the cost of the cache misses that the
    operation before them, or another tenant, left behind."""
    n = len(ops)
    times: list[float | None] = [None] * n
    records: list[object] = [None] * n
    roots: list[int | None] = [None] * n
    errors: dict[int, str] = {}
    prev = None
    for i, op in enumerate(ops):
        picker.pick(force=LONG_OP_S <= best[i] < float("inf"))
        repeats = WARM_REPEATS if best[i] < SHORT_OP_S else 1
        try:
            for _ in range(repeats):
                if tracer is None:
                    start = time.perf_counter()
                    out = op.run(prev)
                    elapsed, sid = time.perf_counter() - start, None
                else:
                    sid = tracer.open("op")
                    try:
                        out = op.run(prev)
                    finally:
                        elapsed = tracer.close(sid)
                if times[i] is None or elapsed < times[i]:
                    times[i], roots[i] = elapsed, sid
        except Exception as exc:  # an operation that fails is counted, not fatal
            times[i], prev = None, None
            errors[i] = f"{type(exc).__name__}: {exc}"
            continue
        prev = out
        records[i] = op.record(out)
    return times, records, errors, roots


def measure(workload: str, seed: int, seconds: float, traced: bool, trace_file: str | None) -> dict:
    import tracing
    import workloads

    ops = workloads.build(workload, seed)
    n = len(ops)
    best = [float("inf")] * n
    best_traced = [float("inf")] * n
    best_root: list[int | None] = [None] * n
    first_record: list[object] = [None] * n
    unstable: set[str] = set()
    errors: dict[str, str] = {}
    attempted = failed = 0
    passes, setups = [], []
    tracer = tracing.Tracer() if traced else None
    picker = CpuPicker()

    start = time.perf_counter()
    fastest_block = None
    blocks = 0
    while True:
        # A traced run alternates untraced and traced passes, swapping their
        # order every pair, so both kinds see the same machine states.
        if traced:
            kinds = (False, True) if blocks % 2 == 0 else (True, False)
        else:
            kinds = (False,)
        block_start = time.perf_counter()
        for is_traced in kinds:
            probe = probe_ms()
            gc.collect()
            pass_start = time.perf_counter()
            if is_traced:
                tracer.install()
                try:
                    times, records, errs, roots = run_pass(ops, tracer, picker, best)
                finally:
                    tracer.uninstall()
            else:
                times, records, errs, roots = run_pass(ops, None, picker, best)
            wall = time.perf_counter() - pass_start
            attempted += n
            failed += len(errs)
            for i, message in errs.items():
                errors.setdefault(ops[i].name, message)
            for i, t in enumerate(times):
                if t is None:
                    continue
                if first_record[i] is None:
                    first_record[i] = records[i]
                elif records[i] != first_record[i]:
                    unstable.add(ops[i].name)
                if is_traced and t < best_traced[i]:
                    best_traced[i], best_root[i] = t, roots[i]
                elif not is_traced and t < best[i]:
                    best[i] = t
            passes.append({"traced": is_traced, "wall_s": wall, "probe_ms": probe,
                           "failed": len(errs)})
        picker.release()
        setups.append(launch_setup(workload, seed))
        block = time.perf_counter() - block_start
        fastest_block = block if fastest_block is None else min(fastest_block, block)
        blocks += 1
        minimum = MIN_TRACED_BLOCKS if traced else MIN_BLOCKS
        if blocks >= minimum and time.perf_counter() - start + fastest_block > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(launch_setup(workload, seed))
    peak = peak_rss_mb()

    out = {
        "workload": workload,
        "seed": seed,
        "measured_s": time.perf_counter() - start,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "unstable": sorted(unstable),
        "passes": passes,
        "setup_s": setups,
        "peak_rss_mb": peak,
        "ops": [
            {"name": op.name, "info": op.info, "record": first_record[i],
             "best_s": None if best[i] == float("inf") else best[i]}
            for i, op in enumerate(ops)
        ],
    }
    if traced:
        untraced_work = sum(t for t in best if t != float("inf"))
        roots = [r for r in best_root if r is not None]
        metrics, bases, residue = tracing.layer_metrics(tracer.spans, roots, untraced_work,
                                                        tracer.missing)
        out["layers"] = metrics
        out["layer_bases"] = bases
        out["self_time_residue_s"] = residue
        out["missing"] = tracer.missing
        if trace_file:
            with open(trace_file, "w") as fh:
                json.dump({"workload": workload, "seed": seed, "missing": tracer.missing,
                           "fields": ["id", "parent", "name", "start", "end", "counts"],
                           "fastest_roots": roots, "spans": tracer.spans}, fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", metavar="WORKLOAD")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    if args.setup:
        print(repr(setup_seconds(args.setup, args.seed)))
        return 0
    if not args.workload:
        parser.error("--workload or --setup is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
