"""Mask information: kNN and plug-in MI estimators plus the supersample experiment.

First sanity-checks the two mutual-information estimators on channels with
known information content, then runs the supersample pipeline: draw an
n x 2 data matrix, train a logistic model on the mask-selected half,
measure the train/test calibration-error gap, and ask how much those
statistics reveal about the mask.
"""

import math
import warnings

import numpy as np

from calbounds import (
    CmiExperimentConfig,
    TrainerConfig,
    gen_ece_bound,
    ksg_mixed_mi,
    plugin_mi,
    run_cmi_experiment,
)

rng = np.random.default_rng(5)

print("== estimator sanity on known channels ==")
v_ind = rng.uniform(size=2000)
u_ind = rng.integers(0, 2, size=2000)
print("independent pair        knn:", round(ksg_mixed_mi(v_ind, u_ind).value, 4),
      " plugin:", round(plugin_mi(v_ind, u_ind, bins=8).value, 4))

labels = np.repeat([0, 1], 1000)
v_det = labels + rng.normal(0, 1e-6, size=2000)
print("deterministic binary    knn:", round(ksg_mixed_mi(v_det, labels).value, 4),
      " plugin:", round(plugin_mi(v_det, labels, bins=8).value, 4),
      " (ln 2 =", round(math.log(2), 4), ")")
print()

print("== supersample experiment, sampled masks (the production protocol) ==")
cfg = CmiExperimentConfig(
    n=500,
    B=7,
    trainer=TrainerConfig(learning_rate=0.5, epochs=150),
    seed=99,
    n_supersamples=5,
    n_masks=10,
)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # sampled mask patterns are all-distinct labels
    result = run_cmi_experiment(cfg)
bound = gen_ece_bound(result.ecmi_est.clamped, cfg.B, cfg.n).value
print(f"mean train/test ECE gap: {result.mean_gap:.5f}")
print(f"estimated mask info (gap statistic): {result.ecmi_est.value:.5f}"
      "  <- sampled masks never repeat, so the kNN estimate collapses to 0")
print(f"gap bound at that estimate: {bound:.5f}  (gap <= bound: {result.mean_gap <= bound})")
print()

print("== exhaustive mode at tiny n: every mask, plug-in estimate (at most ln 8 = 2.0794) ==")
cfg_small = CmiExperimentConfig(
    n=8,
    B=2,
    trainer=TrainerConfig(learning_rate=0.5, epochs=60),
    seed=17,
    n_supersamples=3,
    n_masks=2,
    exhaustive=True,  # enumerates all 2^8 masks per supersample
)
small = run_cmi_experiment(cfg_small)
print(f"ecmi (gap statistic):   {small.ecmi_est.value:.4f}  [{small.ecmi_est.method}]")
print(f"I(delta1; mask):        {small.i_delta1.value:.4f}")
print(f"I(delta2; mask):        {small.i_delta2.value:.4f}")
print(f"cells recorded: {small.stats.size} (3 statistics x 3 supersamples x 256 masks)")
