"""Spans around the calls into each commlb layer, recorded from outside the program.

`Tracer.install` wraps the public functions listed in `WRAPPED` wherever a
commlb module holds them: in the module that defines them and in every module
that imported them by name (``bounds.lp_solve``, ``compression.factorization``
and so on), so the program's own calls between layers go through the wrapper.
`Tracer.uninstall` puts the original functions back.  Nothing under ``src/``
changes.

A span is (id, parent id, name, start, end, counts).  The benchmark opens one
root span per operation; spans of the wrapped functions nest under it.  A
span's self time is its duration minus the durations of its direct children,
so the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function) pairs that a traced pass wraps.
WRAPPED = (
    ("commlb.core", "enumerate_rectangles"),
    ("commlb.solver", "lp_solve"),
    ("commlb.bounds", "bprt"),
    ("commlb.bounds", "bprt_mu"),
    ("commlb.bounds", "prt"),
    ("commlb.bounds", "srec"),
    ("commlb.bounds", "rect_dual"),
    ("commlb.bounds", "discrepancy"),
    ("commlb.bounds", "check_witness"),
    ("commlb.protocol", "information_cost"),
    ("commlb.protocol", "factorization"),
    ("commlb.protocol", "transcript_distribution"),
    ("commlb.protocol", "protocol_error"),
    ("commlb.compression", "exact_output_distribution"),
    ("commlb.compression", "mc_output_distribution"),
    ("commlb.compression", "verify_compression"),
    ("commlb.compression", "extract_strategy"),
    ("commlb.compression", "run_zero_comm"),
)

ROOT = "op"


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_lp(fn, args, kwargs) -> tuple[str, dict]:
    a = _bound_args(fn, args, kwargs)
    problem = a["problem"]
    return f"commlb.solver.lp_solve[{a['mode']}]", {
        "rows": problem.num_rows, "vars": problem.num_vars
    }


def _count_trials(key):
    """Counts `trials` as T times the argument `key` (1 when key is None)."""

    def count(fn, args, kwargs):
        a = _bound_args(fn, args, kwargs)
        reps = 1 if key is None else a[key]
        return None, {"trials": reps * a["params"].trials}

    return count


# Extra counts recorded per call: a function returning (span name or None,
# counts).  Spans without an entry are named module.function.
_COUNTERS = {
    "lp_solve": _count_lp,
    "exact_output_distribution": _count_trials(None),
    "mc_output_distribution": _count_trials("samples"),
    "extract_strategy": _count_trials("seed_count"),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, counts]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, counts: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, None, None, counts])
        self._stack.append(sid)
        self.spans[sid][3] = time.perf_counter()
        return sid

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        span = self.spans[sid]
        span[4] = end
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")
        return end - span[3]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        short = qualname.rsplit(".", 1)[1]
        counter = _COUNTERS.get(short)
        tracer = self

        if short == "enumerate_rectangles":
            # A generator: its work happens while the caller iterates, so the
            # span materializes it and hands back an iterator over the list.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                counts = {"rectangles": 0}
                sid = tracer.open(qualname, counts)
                try:
                    rects = list(fn(*args, **kwargs))
                    counts["rectangles"] = len(rects)
                finally:
                    tracer.close(sid)
                return iter(rects)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, counts = qualname, None
            if counter is not None:
                renamed, counts = counter(fn, args, kwargs)
                name = renamed or qualname
            sid = tracer.open(name, counts)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a commlb module holds it."""
        if self._originals:
            raise RuntimeError("wrappers already installed")
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "commlb" or name.startswith("commlb."))]
        for modname, fname in WRAPPED:
            home = sys.modules.get(modname)
            fn = getattr(home, fname, None) if home is not None else None
            if fn is None or not callable(fn):
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._originals.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals = []


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of each operation's fastest traced pass
# ---------------------------------------------------------------------------

# name -> (unit, functions it needs).  A metric whose function is missing from
# the program is reported as missing, not as zero.
LAYER_METRICS = {
    "core.rectangles": ("count", ["commlb.core.enumerate_rectangles"]),
    "core.enumerate_s": ("s", ["commlb.core.enumerate_rectangles"]),
    "solver.float_s": ("s", ["commlb.solver.lp_solve"]),
    "solver.float_rows": ("count", ["commlb.solver.lp_solve"]),
    "solver.float_vars": ("count", ["commlb.solver.lp_solve"]),
    "solver.rational_s": ("s", ["commlb.solver.lp_solve"]),
    "solver.rational_rows": ("count", ["commlb.solver.lp_solve"]),
    "solver.rational_vars": ("count", ["commlb.solver.lp_solve"]),
    "bounds.self_s": ("s", []),
    "bounds.discrepancy_s": ("s", ["commlb.bounds.discrepancy"]),
    "bounds.check_witness_s": ("s", ["commlb.bounds.check_witness"]),
    "protocol.self_s": ("s", []),
    "protocol.information_cost_s": ("s", ["commlb.protocol.information_cost"]),
    "protocol.factorization_s": ("s", ["commlb.protocol.factorization"]),
    "compression.dp_s": ("s", ["commlb.compression.exact_output_distribution"]),
    "compression.dp_trials_per_s": ("1/s", ["commlb.compression.exact_output_distribution"]),
    "compression.verify_self_s": ("s", ["commlb.compression.verify_compression"]),
    "compression.mc_s": ("s", ["commlb.compression.mc_output_distribution"]),
    "compression.mc_trials_per_s": ("1/s", ["commlb.compression.mc_output_distribution"]),
    "compression.extract_s": ("s", ["commlb.compression.extract_strategy"]),
    "compression.extract_trials_per_s": ("1/s", ["commlb.compression.extract_strategy"]),
    "compression.zero_comm_s": ("s", ["commlb.compression.run_zero_comm"]),
    "trace.unattributed_s": ("s", []),
    "trace.work_s": ("s", []),
    "trace.overhead_s": ("s", []),
}


# The metrics that split the traced work: every span's self time is in one.
SELF_TIMES = (
    "core.enumerate_s", "solver.float_s", "solver.rational_s", "bounds.self_s",
    "protocol.self_s", "compression.dp_s", "compression.verify_self_s", "compression.mc_s",
    "compression.extract_s", "compression.zero_comm_s", "trace.unattributed_s",
)


def layer_metrics(spans: list[list], roots: list[int], untraced_work_s: float,
                  missing: list[str]) -> tuple[dict, dict, float]:
    """Per-layer metrics over the span trees under `roots`.

    Returns the metrics; the base of each rate (trials, for the MC samples
    times T, for extraction seeds times T); and the accounting residue:
    traced work minus the sum of the self-time metrics in SELF_TIMES, which
    is zero up to float rounding when every span is counted in one layer.
    """
    children: dict[int, list[int]] = {}
    for sid, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append(sid)

    def duration(sid: int) -> float:
        return spans[sid][4] - spans[sid][3]

    total: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0) + value

    work = 0.0
    for root in roots:
        work += duration(root)
        todo = [root]
        while todo:
            sid = todo.pop()
            kids = children.get(sid, [])
            todo.extend(kids)
            name, counts = spans[sid][2], spans[sid][5] or {}
            own = duration(sid) - sum(duration(k) for k in kids)
            if name == ROOT:
                add("trace.unattributed_s", own)
                continue
            module = name.split(".")[1]
            short = name.split(".")[2]
            if module == "core":
                add("core.enumerate_s", own)
                add("core.rectangles", counts["rectangles"])
            elif short.startswith("lp_solve["):
                mode = short[len("lp_solve["):-1]
                add(f"solver.{mode}_s", own)
                add(f"solver.{mode}_rows", counts["rows"])
                add(f"solver.{mode}_vars", counts["vars"])
            elif module == "bounds":
                add("bounds.self_s", own)
                if short in ("discrepancy", "check_witness"):
                    add(f"bounds.{short}_s", duration(sid))
            elif module == "protocol":
                add("protocol.self_s", own)
                if short in ("information_cost", "factorization"):
                    add(f"protocol.{short}_s", duration(sid))
            elif module == "compression":
                key = {
                    "exact_output_distribution": "dp",
                    "mc_output_distribution": "mc",
                    "extract_strategy": "extract",
                    "run_zero_comm": "zero_comm",
                    "verify_compression": "verify_self",
                }[short]
                add(f"compression.{key}_s", own)
                if key in ("dp", "mc", "extract"):
                    add(f"compression.{key}_trials", counts["trials"])

    bases = {}
    for key in ("dp", "mc", "extract"):
        seconds = total.get(f"compression.{key}_s", 0.0)
        trials = total.pop(f"compression.{key}_trials", 0)
        total[f"compression.{key}_trials_per_s"] = trials / seconds if seconds > 0 else 0.0
        bases[f"compression.{key}_trials_per_s"] = trials
    total["trace.work_s"] = work
    total["trace.overhead_s"] = work - untraced_work_s

    metrics = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        gone = [fn for fn in needs if fn in missing]
        if gone:
            metrics[name] = {"value": None, "unit": unit, "missing": gone}
        else:
            metrics[name] = {"value": total.get(name, 0), "unit": unit}
    return metrics, bases, work - sum(total.get(name, 0.0) for name in SELF_TIMES)
