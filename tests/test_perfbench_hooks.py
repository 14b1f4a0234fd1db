"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps the functions listed in its ``WRAPPED`` by
name, and its counters bind some of their parameters by name.  A renamed
function or parameter would break a traced benchmark run, far from the
change that caused it.  These tests read the tracer as it is, from its file.
"""

import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import commlb

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The parameters that the tracer's counters (its ``_COUNTERS``) bind by name.
BOUND = {
    "lp_solve": {"problem", "mode"},
    "exact_output_distribution": {"params"},
    "mc_output_distribution": {"params", "samples"},
    "extract_strategy": {"params", "seed_count"},
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_has_the_parameters_the_tracer_binds():
    tracing = _tracing()
    assert set(tracing._COUNTERS) == set(BOUND)
    for modname, fname in tracing.WRAPPED:
        fn = getattr(importlib.import_module(modname), fname, None)
        assert callable(fn), f"{modname}.{fname} is gone"
        assert BOUND.get(fname, set()) <= set(inspect.signature(fn).parameters), fname


def test_traced_calls_are_counted():
    # One call of each counted kind, through the installed wrappers.
    tracing = _tracing()
    tracer = tracing.Tracer()
    and1 = commlb.make_function("AND,1")
    mu = commlb.make_distribution("uniform", and1)
    pi = commlb.make_protocol("noisy_bit", flip=Fraction(1, 4))
    params = commlb.compression_parameters(0.5, 0.2, pi.universe_size, overrides=(2, 20, 1))
    root = tracer.open(tracing.ROOT)
    tracer.install()
    try:
        assert tracer.missing == []
        commlb.srec(and1, 0.1, 1)
        commlb.exact_output_distribution(pi, mu, 0, 1, params)
        commlb.mc_output_distribution(pi, mu, 0, 1, params, 10, 0)
        commlb.extract_strategy(pi, and1, mu, 0.5, params, 10)
        commlb.run_zero_comm(pi, mu, 0, 1, params, 0)
    finally:
        tracer.uninstall()
        tracer.close(root)
    assert not hasattr(commlb.srec, "__wrapped__")  # the originals are back
    metrics, bases, _ = tracing.layer_metrics(tracer.spans, [root], 0.0, tracer.missing)
    assert metrics["solver.float_rows"]["value"] > 0
    assert bases == {"compression.dp_trials_per_s": 20, "compression.mc_trials_per_s": 200,
                     "compression.extract_trials_per_s": 200}
    assert metrics["compression.zero_comm_s"]["value"] > 0
