"""Statistical substrate: kernels, KMM, KDE, PCA and preprocessing.

Everything here is implemented from first principles on numpy alone — the
environment has no scikit-learn — and each algorithm corresponds to a method
named in the paper: kernel mean matching (Section 2.4), adaptive
Epanechnikov KDE tail modeling (Section 2.5), PCA (Section 3.2) and the
preprocessing the boundary learner relies on.
"""

from repro.stats.kde import AdaptiveKde, EpanechnikovKde, epanechnikov_bandwidth
from repro.stats.kernels import median_heuristic_gamma, rbf_kernel
from repro.stats.kmm import KernelMeanMatcher, KmmProblem, importance_resample
from repro.stats.mmd import mmd_permutation_test, mmd_squared
from repro.stats.pca import PrincipalComponentAnalysis
from repro.stats.preprocessing import Whitener

__all__ = [
    "rbf_kernel",
    "median_heuristic_gamma",
    "KernelMeanMatcher",
    "KmmProblem",
    "importance_resample",
    "mmd_squared",
    "mmd_permutation_test",
    "EpanechnikovKde",
    "AdaptiveKde",
    "epanechnikov_bandwidth",
    "PrincipalComponentAnalysis",
    "Whitener",
]
