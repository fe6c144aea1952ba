"""
Exact inference on a fully enumerable design
=============================================

Two sites of four subjects with two treated at each site admit only
C(4,2) * C(4,2) = 36 assignments.  The randomization test can then walk the
whole orbit instead of sampling it: the p-value is a count, not an estimate,
and its null distribution is known exactly.
"""
import numpy as np

from stratperm.hypothesis_tests import METHODS, TrialData
from stratperm.randomization import (
    PermutationPlan,
    count_assignments,
    enumerate_assignments,
)

rng = np.random.default_rng(3)
strata = np.repeat(["a", "b"], 4)
z = np.array([1, 1, 0, 0, 0, 1, 0, 1], dtype=np.int8)
x = rng.normal(size=8)
y = x + 1.2 * z + 0.5 * rng.normal(size=8)
data = TrialData.from_arrays(strata, z, x, y)

print(f"assignments in the orbit: {count_assignments(data.layout)}")

# The exact plan enumerates all 36 assignments.  Every p-value below is a
# multiple of 1/36 ~ 0.0278, which is also the smallest p this design can
# ever produce, no matter how strong the effect.  Tiny stratified designs
# cap the attainable significance.
exact = PermutationPlan(layout=data.layout, mode="exact", master_seed=0)
print(f"\n{'method':<24} {'p (exact)':>10} {'x 36':>6}")
for name in ("stratified_diff_means", "stratified_sum_abs", "lm_permutation"):
    result = METHODS[name](data, exact)
    p = result.p_value.value
    print(f"{name:<24} {p:>10.4f} {p * 36:>6.1f}")

# Monte Carlo sampling of the same orbit converges to the exact answer at
# the usual 1/sqrt(B) rate.
print(f"\n{'B':>7}  diff-means p")
exact_p = METHODS["stratified_diff_means"](data, exact).p_value.value
for b in (99, 999, 9_999, 99_999):
    mc = PermutationPlan(
        layout=data.layout, mode="monte_carlo", draws=b, master_seed=5
    )
    p = METHODS["stratified_diff_means"](data, mc).p_value.value
    print(f"{b:>7}  {p:.4f}")
print(f"  exact  {exact_p:.4f}")

# The orbit itself is available for inspection: each site's C(4, 2) = 6
# treated sets, crossed into the 36 assignments.  Here is the null
# distribution of the treated-arm mean under the design.
site = enumerate_assignments(4, 2)
draws = np.array([np.concatenate([a, b]) for a in site for b in site])
treated_means = np.array([y[d].mean() for d in draws])
observed = y[z == 1].mean()
print(f"\ntreated-arm mean: observed {observed:.3f}; orbit quantiles "
      + " ".join(f"{q:.3f}" for q in np.quantile(treated_means, (0, 0.25, 0.5, 0.75, 1))))
