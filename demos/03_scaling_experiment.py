"""Scaling behavior of the TCE gap on the synthetic logistic family.

The synthetic family has a closed-form calibration map, so the true
calibration error is a Monte-Carlo integral away. For a perfectly
calibrated and a miscalibrated member we measure |TCE - ECE| over a grid
of test-set sizes at the bound-optimal bin count and compare each gap's
decay with the bound's cube-root rate.
"""

import numpy as np

from calbounds import (
    SyntheticModel,
    canonical_calibration,
    estimate_lipschitz,
    mc_tce,
)
from calbounds.experiments import run_synthetic_experiment

model = SyntheticModel(beta0=0.5, beta1=-1.5)  # a miscalibrated predictor

print("== the calibration map and its slope ==")
for z in (0.1, 0.3, 0.5, 0.7, 0.9):
    print(f"  pi({z:.1f}) = {canonical_calibration(model, z):.4f}")
L = estimate_lipschitz(model)  # a grid maximum of the slope, not a bound
print("grid estimate of the Lipschitz constant:", round(L, 4))
tce = mc_tce(model, 10**6, seed=1)
print(f"Monte-Carlo TCE: {tce.value:.5f} +/- {tce.std_error:.5f}")
print()

print("note: the perfectly specified member beta=(0, -2) has TCE",
      f"{mc_tce(SyntheticModel(0.0, -2.0), 10**5, seed=2).value:.2e}")
print()

grid = [1000, 3162, 10_000, 31_623, 100_000]
slopes = {}
for beta in ((0.5, -1.5), (0.0, -2.0)):
    print(f"== beta={beta}: gap vs n at the optimal bin count (10 reps per n) ==")
    result = run_synthetic_experiment(*beta, grid, reps=10, b_rule="optimal", seed=3)
    per_n = {}
    for row in result.rows:
        per_n.setdefault(row["n"], []).append(row)
    print(f"{'n':>7} {'B':>4} {'mean gap':>10} {'bound':>8}")
    for n, rows in per_n.items():
        gaps = [r["tce_gap"] for r in rows]
        print(f"{n:>7} {rows[0]['B']:>4} {np.mean(gaps):>10.5f} {rows[0]['bound']:>8.4f}")
    slopes[beta] = result.slope
    print()
print(f"log-log slope of the mean gap: miscalibrated (0.5, -1.5) "
      f"{slopes[(0.5, -1.5)]:.3f}, calibrated (0, -2) {slopes[(0.0, -2.0)]:.3f}")
print("(the bound decays at the cube-root rate, slope -1/3. The calibrated")
print(" member's gap is the ECE's folded noise, of order sqrt(B/n), and")
print(" follows that rate; the miscalibrated member's binning bias is")
print(" negligible, so its gap is sampling error around a nonzero TCE and")
print(" shrinks at the CLT rate n^(-1/2), well under the bound)")
