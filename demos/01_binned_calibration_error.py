"""Binned calibration error from scratch: schemes, assignment, two ECE forms.

Walks through building uniform-width and uniform-mass schemes over a small
scored dataset, shows where each sample lands, and checks that the two
algebraic forms of the ECE coincide.
"""

import numpy as np

from calbounds import (
    ScoredDataset,
    assign,
    bin_stats,
    ece,
    ece_reformulated,
    optimal_bins,
    umb_scheme,
    uwb_scheme,
)

rng = np.random.default_rng(7)

# A miscalibrated synthetic score file: confident scores, noisier labels.
scores = np.clip(rng.beta(2.0, 1.2, size=400), 0.0, 1.0)
labels = (rng.uniform(size=400) < 0.65 * scores + 0.1).astype(int)
data = ScoredDataset(scores, labels)

print("dataset:", data)
print()

print("== uniform-width binning ==")
uwb = uwb_scheme(8)
print("edges:", np.round(uwb.edges, 3))
print("boundary membership is right-closed: assign(0.25) ->", assign(uwb, 0.25))
print("score exactly 0 still lands in bin 1:  assign(0.0) ->", assign(uwb, 0.0))
stats = bin_stats(uwb, data)
for i in range(uwb.B):
    if stats.counts[i]:
        print(
            f"  bin {i + 1}: count {stats.counts[i]:3d}  "
            f"mean score {stats.mean_scores[i]:.3f}  mean label {stats.mean_labels[i]:.3f}"
        )
    else:
        print(f"  bin {i + 1}: empty (contributes nothing)")
print("ECE (uniform width):", round(ece(data, uwb).value, 6))
print()

print("== uniform-mass binning ==")
umb = umb_scheme(data.scores, 8)
print("edges from order statistics:", np.round(umb.edges, 3))
counts = bin_stats(umb, data).counts
print("per-bin counts (near-equal by construction):", counts.tolist())
print("ECE (uniform mass):", round(ece(data, umb).value, 6))
print()

print("== the two ECE forms are the same number ==")
for scheme in (uwb, umb):
    a = ece(data, scheme).value
    b = ece_reformulated(data, scheme).value
    print(f"  {scheme.method}: mass-weighted {a:.12f}  residual-sum {b:.12f}  diff {abs(a - b):.2e}")
print()

print("== how many bins should you use? ==")
for n in (500, 5000, 50_000):
    print(f"  n = {n:6d}: optimal uniform-width B = {optimal_bins(n, 1.0, 'uwb')}")
