"""
The full test battery on one small trial
=========================================

A stratified two-arm trial with a baseline measurement admits several
honest analyses: the parametric ANCOVA t-test, design-respecting
randomization tests, and residual-permutation approximations.  This script
builds one synthetic trial and runs all of them side by side.
"""
import numpy as np

from stratperm.hypothesis_tests import METHODS, TrialData, npc_combine
from stratperm.randomization import PermutationPlan

# Three sites of 16 subjects, half treated at each site.  The baseline x
# carries most of the outcome variance; the treatment adds 0.8.
rng = np.random.default_rng(7)
strata = np.repeat(["lyon", "nancy", "paris"], 16)
z = np.zeros(48, dtype=np.int8)
for j in range(3):
    z[16 * j + rng.choice(16, 8, replace=False)] = 1
x = rng.normal(10.0, 2.0, 48)
y = x + 0.8 * z + rng.normal(0.0, 1.5, 48)
data = TrialData.from_arrays(strata, z, x, y)

# Each method draws its re-randomizations from the same kind of plan.  With
# 10,000 Monte Carlo draws the p-values are stable to about +/-0.005.
plan = PermutationPlan(
    layout=data.layout, mode="monte_carlo", draws=10_000, master_seed=2024
)

print(f"{'method':<24} {'statistic':>10} {'p':>8}")
for name, method in METHODS.items():
    result = method(data, plan)
    print(f"{name:<24} {result.statistic:>10.4f} {result.p_value.value:>8.4f}")

# The stratified difference of means also decomposes by site: compute the
# per-site statistics on the shared draws and combine them with Fisher's
# rule.  This is useful when sites may respond in different directions.
from stratperm.randomization import sample_assignments  # noqa: E402

stream = plan.stream(99)
draws = sample_assignments(data.layout, stream, 10_000)
observed = []
null = np.empty((10_000, 3))
for j, site in enumerate(("lyon", "nancy", "paris")):
    members = strata == site
    yj = y[members]
    def diff(zj):
        return float(yj[zj == 1].mean() - yj[zj == 0].mean())
    observed.append(diff(z[members]))
    null[:, j] = [diff(zd[members]) for zd in draws]
combined = npc_combine(np.array(observed), null)
print(f"\nper-site diff-means p: "
      + " ".join(f"{p:.3f}" for p in combined.partial_p))
print(f"Fisher NPC global p:   {combined.p_value.value:.4f}")
