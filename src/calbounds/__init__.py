"""Binned calibration-error estimation with bias and generalization bounds.

The package computes the expected calibration error under uniform-width and
uniform-mass binning, evaluates every closed-form bias/generalization bound
on it, performs histogram recalibration (held-out and training-reuse
variants), estimates mutual information with a mixed-type kNN estimator,
and runs the synthetic and supersample experiments at desk scale.
"""

__version__ = "0.1.0"

from .binning import BinningScheme, BinStats, assign, bin_stats, bin_sums, umb_scheme, uwb_scheme
from .bounds import (
    BoundReport,
    binning_bias_bound,
    gen_ece_bound,
    gen_tce_bound,
    high_prob_bound,
    metric_entropy_bound,
    metric_entropy_bound_parametric,
    recalib_holdout_bound,
    recalib_reuse_bound,
    stat_bias_bound,
    total_bias_bound,
)
from .data import RunRecord, ScoredDataset, Supersample, load_scores, save_scores
from .metrics import (
    EceValue,
    GapStatistic,
    binned_tce,
    cube_root_bins,
    ece,
    ece_gap,
    ece_reformulated,
    optimal_bins,
)
from .mi import (
    CmiExperimentConfig,
    CmiExperimentResult,
    MiEstimate,
    ksg_mixed_mi,
    plugin_mi,
    run_cmi_experiment,
)
from .models import (
    McEstimate,
    SyntheticModel,
    TrainerConfig,
    canonical_calibration,
    calibration_slope,
    estimate_lipschitz,
    logistic_predict,
    mc_tce,
    sample_synthetic,
    train_logistic,
)
from .recalibration import (
    Recalibrator,
    apply_recalibrator,
    fit_recalibrator,
    recalibrated_tce,
)

__all__ = [
    "__version__",
    "BinningScheme", "BinStats", "assign", "bin_stats", "bin_sums", "umb_scheme", "uwb_scheme",
    "BoundReport", "binning_bias_bound", "gen_ece_bound", "gen_tce_bound",
    "high_prob_bound", "metric_entropy_bound", "metric_entropy_bound_parametric",
    "recalib_holdout_bound", "recalib_reuse_bound", "stat_bias_bound", "total_bias_bound",
    "RunRecord", "ScoredDataset", "Supersample", "load_scores", "save_scores",
    "EceValue", "GapStatistic", "binned_tce", "cube_root_bins", "ece", "ece_gap",
    "ece_reformulated", "optimal_bins",
    "CmiExperimentConfig", "CmiExperimentResult", "MiEstimate", "ksg_mixed_mi",
    "plugin_mi", "run_cmi_experiment",
    "McEstimate", "SyntheticModel", "TrainerConfig",
    "canonical_calibration", "calibration_slope", "estimate_lipschitz",
    "logistic_predict", "mc_tce", "sample_synthetic", "train_logistic",
    "Recalibrator", "apply_recalibrator", "fit_recalibrator", "recalibrated_tce",
]
