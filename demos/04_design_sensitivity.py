"""
Why the analysis must respect the design
=========================================

When sites differ systematically, a permutation test that shuffles
treatment labels across sites is answering the wrong question: it compares
the observed assignment against assignments the randomization could never
have produced.  This demo generates trials whose three sites draw from
different latent ranges, then analyzes each trial twice under the sharp
null: once respecting the strata and once pretending all 48 subjects form
one big pool under complete randomization.
"""
import numpy as np

from stratperm.hypothesis_tests import METHODS, TrialData
from stratperm.randomization import PermutationPlan, derive_stream, sample_assignments
from stratperm.simulation import ScenarioConfig, generate_population

config = ScenarioConfig(
    scenario_id="design-sensitivity",
    family="continuous",
    latent="heterogeneous",
    error_dist="normal",
    gamma=0.0,  # sharp null: rejections below are false positives
    master_seed=29,
)
strata = np.repeat(["low", "mid", "high"], 16)

REPS, B, ALPHA = 400, 499, 0.05
rejections = {"stratified": 0, "pooled": 0}
for i in range(REPS):
    stream = derive_stream(config.master_seed, i)
    pop = generate_population(config, stream)
    z = sample_assignments(config.layout, stream, 1)[0]
    y = np.where(z == 1, pop.y1, pop.y0)

    # Analysis 1: permute within sites, as the trial was actually randomized.
    data = TrialData.from_arrays(strata, z, pop.x, y)
    plan = PermutationPlan(
        layout=data.layout, mode="monte_carlo", draws=B, master_seed=i
    )
    # Analysis 2: the same numbers with the site structure erased.
    pooled = TrialData.from_arrays(np.repeat("all", 48), z, pop.x, y)
    pooled_plan = PermutationPlan(
        layout=pooled.layout, mode="monte_carlo", draws=B, master_seed=i
    )
    for label, d, p in (("stratified", data, plan), ("pooled", pooled, pooled_plan)):
        if METHODS["stratified_diff_means"](d, p).p_value.value <= ALPHA:
            rejections[label] += 1

print(f"false-positive rate at alpha={ALPHA} over {REPS} null trials:")
for label, count in rejections.items():
    rate = count / REPS
    se = (rate * (1 - rate) / REPS) ** 0.5
    print(f"  {label:<11} {rate:.3f} (se {se:.3f})")

# The stratified test sits at its nominal level.  The pooled test is badly
# conservative here: across-site shuffles inflate the null spread of the
# difference in means, so real assignments rarely look extreme against it.
# The same mismatch costs power once gamma moves off zero.
