"""The bound family: statistical, binning, total, and generalization bounds.

Every bound is a closed-form BoundReport whose inputs are stored verbatim.
This script evaluates the family over a grid of bin counts to show the
bias trade-off, then reproduces the recalibration bound values reported
for the deep-net score files (B = 15 at n = 4000, B = 27 at n = 20000).
"""

from calbounds import (
    gen_ece_bound,
    high_prob_bound,
    metric_entropy_bound_parametric,
    optimal_bins,
    recalib_holdout_bound,
    recalib_reuse_bound,
    stat_bias_bound,
    total_bias_bound,
)

n, L = 4000, 1.0

print(f"== bias trade-off over B at n = {n}, L = {L} ==")
print(f"{'B':>5} {'stat':>10} {'total(uwb)':>12} {'total(umb)':>12}")
for B in (2, 5, 10, 20, 35, 60, 120, 400):
    print(
        f"{B:>5} {stat_bias_bound(B, n, 'uwb').value:>10.4f} "
        f"{total_bias_bound(B, n, L, 'uwb').value:>12.4f} "
        f"{total_bias_bound(B, n, L, 'umb').value:>12.4f}"
    )
print("closed-form optimal B (uwb):", optimal_bins(n, L, "uwb"))
print("scan optimal B (umb):       ", optimal_bins(n, L, "umb"))
print()

print("== high-probability and generalization variants ==")
print("high-prob (delta=0.05):", round(high_prob_bound(15, n, 0.05).value, 5))
print("gen-ECE at zero eCMI:  ", round(gen_ece_bound(0.0, 15, n).value, 5))
print(
    "parametric metric-entropy (d=2, L0=1):",
    round(metric_entropy_bound_parametric(15, n, L, 2, 1.0).value, 5),
)
print()

print("== recalibration bounds reported for the image-model score files ==")
for B, n_tr in ((15, 4000), (27, 20_000)):
    hold = recalib_holdout_bound(B, 100)
    reuse = recalib_reuse_bound(0.0, 0.0, B, n_tr)
    flag = " (vacuous)" if hold.vacuous else ""
    print(
        f"  B={B:2d}: held-out fit on 100 samples -> {hold.value:.4f}{flag}   "
        f"training reuse on {n_tr} -> {reuse.value:.4f}"
    )
print()
print("every report carries its inputs, e.g.:", recalib_holdout_bound(15, 100))
