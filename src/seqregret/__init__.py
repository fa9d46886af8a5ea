"""Sequential prediction with hindsight-regret certificates.

Core pieces: bounded sequences and parametric feature classes
(:mod:`.sequences`), the online ridge recursion and baselines
(:mod:`.predictors`), hindsight solves and the log-determinant regret
certificate (:mod:`.batch`), sign-flip adversaries with Bayes reference
predictors and Monte-Carlo regret floors (:mod:`.adversary`), randomized
mixtures and their derandomized account (:mod:`.randomized`), and a CLI
(:mod:`.cli`).  The names below are the README's library tour.
"""

from .adversary import (
    AdversaryKind,
    AdversarySpec,
    LowerBoundTable,
    bayes_prediction_trace,
    estimate_lower_bound,
    generate,
    sample_theta,
)
from .batch import (
    RegretReport,
    batch_solve,
    gram_log_det_ratio,
    mixture_log_evidence,
    regret_report,
    simple_envelope,
)
from .predictors import OnlineRunResult, run_lms, run_online, run_rls
from .randomized import (
    RandomizedPredictor,
    mixture_account,
    mixture_tables,
    ridge_predictor_fn,
    static_rule,
)
from .sequences import (
    BoundedSequence,
    FeatureSpec,
    feature_matrix,
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
    "FeatureSpec",
    "LowerBoundTable",
    "OnlineRunResult",
    "RandomizedPredictor",
    "RegretReport",
    "batch_solve",
    "bayes_prediction_trace",
    "estimate_lower_bound",
    "feature_matrix",
    "generate",
    "gram_log_det_ratio",
    "linear_lag",
    "mixture_account",
    "mixture_log_evidence",
    "mixture_tables",
    "monomial_features",
    "normalization_constant",
    "regret_report",
    "ridge_predictor_fn",
    "run_lms",
    "run_online",
    "run_rls",
    "sample_theta",
    "simple_envelope",
    "static_rule",
    "univariate_poly",
]
