"""Confidential stochastic optimization on the unit interval.

A learner queries a stochastic oracle through a replicated query schedule so
that an eavesdropper who sees only the query points learns almost nothing
about the optimizer's location, at the price of a 1/delta_adv slowdown in the
effective sample budget.
"""
from .adversary import (
    ADVERSARY_ORDER,
    AdversaryEstimate,
    default_packing_centers,
    packing_ball_sample,
    posterior_interval_adversary,
    proportional_sample,
    uniform_naive,
)
from .bounds import (
    RateReport,
    binary_entropy,
    c_of_p,
    kl_gaussian_pair,
    lower_bound_binary,
    lower_bound_convex,
    lower_bound_noisy,
    make_rate_report,
    upper_bound_rates,
)
from .epoch_gd import (
    default_constants,
    epoch_gd_solve,
    epoch_schedule,
)
from .errors import (
    BudgetError,
    ConstructionError,
    DomainError,
    PackingError,
    ParameterError,
)
from .functions import (
    Ball,
    FunctionInstance,
    HardPair,
    make_abs,
    make_hard_pair,
    make_uniformly_convex,
)
from .harness import (
    CSV_HEADER,
    BatchSummary,
    SlopeFit,
    SweepResult,
    TrialOutcome,
    export_csv,
    instance_for_trial,
    run_batch,
    run_trial,
    sample_x_star,
    summarize,
    sweep_budget,
    trial_seed,
)
from .oracles import (
    RngStream,
    noisy_sign_oracle,
    sign_oracle,
)
from .protocol import (
    MODES,
    ProtocolConfig,
    Transcript,
    majority_repetitions,
    run_plain_convex,
    run_protocol,
    subinterval_index,
)

__version__ = "0.1.0"

__all__ = [
    "ADVERSARY_ORDER",
    "AdversaryEstimate",
    "Ball",
    "BatchSummary",
    "BudgetError",
    "CSV_HEADER",
    "ConstructionError",
    "DomainError",
    "FunctionInstance",
    "HardPair",
    "MODES",
    "PackingError",
    "ParameterError",
    "ProtocolConfig",
    "RateReport",
    "RngStream",
    "SlopeFit",
    "SweepResult",
    "Transcript",
    "TrialOutcome",
    "binary_entropy",
    "c_of_p",
    "default_constants",
    "default_packing_centers",
    "epoch_gd_solve",
    "epoch_schedule",
    "export_csv",
    "instance_for_trial",
    "kl_gaussian_pair",
    "lower_bound_binary",
    "lower_bound_convex",
    "lower_bound_noisy",
    "majority_repetitions",
    "make_abs",
    "make_hard_pair",
    "make_rate_report",
    "make_uniformly_convex",
    "noisy_sign_oracle",
    "packing_ball_sample",
    "posterior_interval_adversary",
    "proportional_sample",
    "run_batch",
    "run_plain_convex",
    "run_protocol",
    "run_trial",
    "sample_x_star",
    "sign_oracle",
    "subinterval_index",
    "summarize",
    "sweep_budget",
    "trial_seed",
    "uniform_naive",
    "upper_bound_rates",
]
