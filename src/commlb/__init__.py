"""Communication-complexity lower bounds, information cost, and
zero-communication protocol compression for small explicit functions."""

from .caps import Caps, default_caps
from .core import (
    BadSet,
    EMPTY_RECTANGLE,
    FiniteDistribution,
    InputDistribution,
    PartialFunction,
    Rectangle,
    bad_set,
    enumerate_rectangles,
    kl_divergence,
    rectangle_count,
    stat_distance,
)
from .errors import (
    CapacityError,
    CommlbError,
    ConditioningError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    ParameterError,
    SolverError,
)
from .solver import LpProblem, LpSolution, lp_solve
from .protocol import (
    Factorization,
    Leaf,
    Node,
    ProtocolTree,
    factorization,
    information_cost,
    information_cost_paths,
    marginal_x,
    marginal_y,
    protocol_error,
    transcript_distribution,
)
from .bounds import (
    BoundResult,
    LabeledRectangleStrategy,
    bprt,
    bprt_mu,
    check_witness,
    corruption_witness,
    discrepancy,
    prt,
    rect_dual,
    srec,
    verify_bound_chain,
)
from .compression import (
    BOT,
    CompressionParameters,
    CompressionReport,
    ExperimentInputs,
    ExperimentTable,
    compression_parameters,
    conditional_distance_check,
    exact_output_distribution,
    experiment_probabilities,
    extract_strategy,
    mc_output_distribution,
    run_zero_comm,
    verify_compression,
)
from .corpus import (
    CorpusSpec,
    corpus_functions,
    corpus_triples,
    make_distribution,
    make_function,
    make_protocol,
    parse_spec,
)

__version__ = "0.1.0"
