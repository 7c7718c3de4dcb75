"""Histogram recalibration: held-out fit vs reusing the training data.

Fits the per-bin label-mean recalibrator both ways on a synthetic pool,
evaluates the recalibrated calibration error on a disjoint test split,
and compares each variant's closed-form bound. The held-out bound pays
for its tiny fit set; the reuse bound pays a mask-information penalty
that is near zero here.
"""

import numpy as np

from calbounds import SyntheticModel, apply_recalibrator, ece, fit_recalibrator, recalibrated_tce
from calbounds.experiments import run_recalibration, scored_synthetic_dataset

pool = scored_synthetic_dataset(SyntheticModel(0.5, -1.5), 8100, 11, 7)

print("== the recalibrator object ==")
fit = pool.subset(np.arange(1000))
recal = fit_recalibrator(fit, B=10)
print("uniform-mass edges:", np.round(recal.scheme.edges, 3))
print("per-bin label means:", np.round(recal.mu, 3))
print("a few scores through it:", apply_recalibrator(recal, [0.05, 0.5, 0.95]).round(3))
print("fit-set ECE (zero by construction):", recalibrated_tce(recal, fit))
print()

print("== held-out vs training-reuse on the same pool ==")
hold = run_recalibration(pool, "holdout", B=15, eval_split=0.49, seed=11, n_re=100)
reuse = run_recalibration(pool, "reuse", B=15, eval_split=0.49, seed=11)
print(f"{'variant':>8} {'fit size':>9} {'raw ECE':>9} {'recal ECE':>10} {'bound':>8}")
for variant, r in (("holdout", hold), ("reuse", reuse)):
    print(
        f"{variant:>8} {r.n_fit:>9} {r.ece_raw:>9.4f} "
        f"{r.tce_recalibrated:>10.4f} {r.bound.value:>8.4f}"
    )
print()
print("the held-out bound pays dearly for its 100-sample fit set (and exceeds 1")
print("outright at B = 27), while reusing the full training half keeps the bound")
print("small when the mask-information terms are near zero.")
print()

print("== averaging the improvement over 10 seeds ==")
raw, rec = [], []
for seed in range(10):
    r = run_recalibration(
        scored_synthetic_dataset(SyntheticModel(0.5, -1.5), 6000, seed, 2),
        "reuse", B=12, eval_split=0.5, seed=seed,
    )
    raw.append(r.ece_raw)
    rec.append(r.tce_recalibrated)
print(f"mean raw test ECE:          {np.mean(raw):.4f}")
print(f"mean recalibrated test ECE: {np.mean(rec):.4f}")
