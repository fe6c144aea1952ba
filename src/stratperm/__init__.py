"""Randomization inference for stratified two-arm experiments.

Covariate-adjusted parametric ANCOVA next to a family of stratified
permutation tests (assignment re-randomization, Freedman-Lane, Kennedy,
Manly, nonparametric combination), a simulation engine for power studies,
and CSV-in/CSV-out trial analysis.  Names are imported from the submodules:
``hypothesis_tests`` (the battery and its ``METHODS`` registry),
``randomization``, ``linear_model``, ``simulation``, ``reporting`` and ``cli``.
"""

__version__ = "0.1.0"
