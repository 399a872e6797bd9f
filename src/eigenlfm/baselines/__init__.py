"""Baselines beside the eigenfunction LFMs: the dense-GP oracle, sparse
spectrum features (SSGPR) that `comparison.linear_regress` scores beside the
eigenfunction rows, and the resonator blocks that thermal's "resonator"
roster entry is built from."""

from .dense_gp import DenseGp, gp_regress, log_marginal_likelihood, stationary_lfm_kernel
from .ssgpr import SsgprModel, ssgpr_build, ssgpr_features, implied_covariance

__all__ = [
    "DenseGp",
    "gp_regress",
    "log_marginal_likelihood",
    "stationary_lfm_kernel",
    "SsgprModel",
    "ssgpr_build",
    "ssgpr_features",
    "implied_covariance",
]
