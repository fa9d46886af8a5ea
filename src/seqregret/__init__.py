"""Sequential prediction with hindsight-regret certificates.

Core pieces: bounded sequences and parametric feature classes
(:mod:`.sequences`), the online ridge recursion and baselines
(:mod:`.predictors`), hindsight solves and the log-determinant regret
certificate (:mod:`.batch`), sign-flip adversaries with Bayes reference
predictors and Monte-Carlo regret floors (:mod:`.adversary`), randomized
mixtures and their derandomization (:mod:`.randomized`), and a CLI
(:mod:`.cli`).
"""

from .adversary import (
    AdversaryKind,
    AdversarySpec,
    LowerBoundRow,
    LowerBoundTable,
    TransitionCheck,
    bayes_predict,
    bayes_prediction_trace,
    estimate_lower_bound,
    generate,
    sample_theta,
    transition_posterior_check,
)
from .batch import (
    PSEUDO_RANK_TOL,
    RegretReport,
    batch_solve,
    bound_convention_audit,
    gram_log_det_ratio,
    mixture_log_evidence,
    regret_report,
    simple_envelope,
)
from .predictors import (
    OnlineRunResult,
    PredictorState,
    init,
    predict,
    run_lms,
    run_online,
    run_rls,
    update,
)
from .randomized import (
    RandomizedPredictor,
    derandomize,
    extended_csv_row,
    mc_trial_totals,
    mixture_tables,
    ridge_predictor_fn,
    run_predictor_fn,
    run_randomized,
    static_rule,
    uniform_rule,
    variance_decomposition,
)
from .sequences import (
    BoundedSequence,
    ClassKind,
    FeatureSpec,
    feature_matrix,
    features,
    linear_lag,
    monomial_features,
    normalization_constant,
    univariate_poly,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryKind",
    "AdversarySpec",
    "BoundedSequence",
    "ClassKind",
    "FeatureSpec",
    "LowerBoundRow",
    "LowerBoundTable",
    "OnlineRunResult",
    "PredictorState",
    "PSEUDO_RANK_TOL",
    "RandomizedPredictor",
    "RegretReport",
    "TransitionCheck",
    "batch_solve",
    "bayes_predict",
    "bayes_prediction_trace",
    "bound_convention_audit",
    "derandomize",
    "estimate_lower_bound",
    "extended_csv_row",
    "feature_matrix",
    "features",
    "generate",
    "gram_log_det_ratio",
    "init",
    "linear_lag",
    "mc_trial_totals",
    "mixture_tables",
    "mixture_log_evidence",
    "monomial_features",
    "normalization_constant",
    "predict",
    "regret_report",
    "ridge_predictor_fn",
    "run_lms",
    "run_online",
    "run_predictor_fn",
    "run_randomized",
    "run_rls",
    "sample_theta",
    "simple_envelope",
    "static_rule",
    "transition_posterior_check",
    "uniform_rule",
    "univariate_poly",
    "update",
    "variance_decomposition",
]
