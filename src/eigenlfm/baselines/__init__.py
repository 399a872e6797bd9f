from .dense_gp import DenseGp, gp_regress, log_marginal_likelihood, stationary_lfm_kernel
from .ssgpr import SsgprModel, ssgpr_build, ssgpr_regress, implied_covariance
from .resonator import ResonatorModel, resonator_fit

__all__ = [
    "DenseGp",
    "gp_regress",
    "log_marginal_likelihood",
    "stationary_lfm_kernel",
    "SsgprModel",
    "ssgpr_build",
    "ssgpr_regress",
    "implied_covariance",
    "ResonatorModel",
    "resonator_fit",
]
