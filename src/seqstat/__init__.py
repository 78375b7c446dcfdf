"""Sequential and fixed-length classification with empirically trained models.

The package provides the weighted divergence between empirical
distributions, the threshold equation whose root governs expected
stopping times, certified solvers for the error-exponent programs of
the fixed-length test, the sequential and fixed-length classifiers
themselves, and a reproducible Monte Carlo harness.
"""

from .classifiers import (
    GutmanConfig,
    SequentialConfig,
    SequentialState,
    TrialTrace,
    Verdict,
    gutman_binary,
    gutman_multiclass,
    score,
    seq_binary_start,
    seq_binary_step,
    seq_multiclass_run,
)
from .divergence import (
    chernoff,
    entropy,
    gjs,
    gjs_alpha_derivative,
    gjs_mutual_info_form,
    joint_sequence_exponent,
    kl,
)
from .errors import (
    NoSolution,
    NonConvergence,
    NumericalError,
    SeqstatError,
    ValidationError,
)
from .exponents import (
    ComparisonRow,
    bayes_multiclass_gutman,
    compare_sequential_vs_gutman,
    constrained_kl_min,
    gutman_bayes_curve,
    gutman_bayes_curve_swapped,
    gutman_bayes_exponent,
    gutman_type2_exponent,
    lp_closed_form,
    minimize_over_simplices,
)
from .fixedpoint import (
    ExponentReport,
    FixedPointResult,
    empirical_fixed_point,
    exponent_report,
    multiclass_thetas,
    solve_fixed_point,
)
from .probability import (
    Alphabet,
    Distribution,
    EmpiricalType,
    SeedSpec,
    bit_generator,
    empirical_type,
    make_distribution,
    sample_iid,
    sample_indices,
)
from .simulator import (
    ExperimentConfig,
    HypothesisReport,
    ProbeReport,
    ProbeRow,
    SimulationReport,
    estimate,
    exponent_probe,
    gutman_reference_run,
    run_trial,
)

__all__ = [
    "Alphabet",
    "ComparisonRow",
    "Distribution",
    "EmpiricalType",
    "ExperimentConfig",
    "ExponentReport",
    "FixedPointResult",
    "GutmanConfig",
    "HypothesisReport",
    "NoSolution",
    "NonConvergence",
    "NumericalError",
    "ProbeReport",
    "ProbeRow",
    "SeedSpec",
    "SeqstatError",
    "SequentialConfig",
    "SequentialState",
    "SimulationReport",
    "TrialTrace",
    "ValidationError",
    "Verdict",
    "bayes_multiclass_gutman",
    "bit_generator",
    "chernoff",
    "compare_sequential_vs_gutman",
    "constrained_kl_min",
    "empirical_fixed_point",
    "empirical_type",
    "entropy",
    "estimate",
    "exponent_probe",
    "exponent_report",
    "gjs",
    "gjs_alpha_derivative",
    "gjs_mutual_info_form",
    "gutman_bayes_curve",
    "gutman_bayes_curve_swapped",
    "gutman_bayes_exponent",
    "gutman_binary",
    "gutman_multiclass",
    "gutman_reference_run",
    "gutman_type2_exponent",
    "joint_sequence_exponent",
    "kl",
    "lp_closed_form",
    "make_distribution",
    "minimize_over_simplices",
    "multiclass_thetas",
    "run_trial",
    "sample_iid",
    "sample_indices",
    "score",
    "seq_binary_start",
    "seq_binary_step",
    "seq_multiclass_run",
    "solve_fixed_point",
    "__version__",
]

__version__ = "0.1.0"
