"""Dense-GP oracles: exact (cubic-cost) GP regression that the state-space
and weight-space results are checked against.

- `gp_regress`: posterior moments from a Cholesky of the Gram plus noise
  (tests/test_baselines.py: `test_gp_*`, the SSGPR and eigenbasis regression
  oracles; tests/test_lfm.py: `test_hartikainen_equivalence_small`).
- `log_marginal_likelihood`: the evidence from the same factor
  (tests/test_baselines.py: `test_gp_marginal_likelihood_gaussian`;
  tests/test_lfm.py: `test_force_only_loglik_matches_dense_gp`;
  tests/test_learn.py: `test_ou_scale_recovery_band`).
- `stationary_lfm_kernel`: the kernel of a non-periodic LFM's first
  coordinate (tests/test_lfm.py: `test_hartikainen_equivalence_small`).
"""

import numpy as np
import scipy.linalg

from eigenlfm import kernels, lti

_NOISE_FLOOR = 1e-16  # keeps a noise-free Gram factorable


def _chol_gram(kernel, noise: float, x: np.ndarray):
    gram = kernels.eval_matrix(kernel, x, x)
    return scipy.linalg.cho_factor(gram + max(noise, _NOISE_FLOOR) * np.eye(x.size), lower=True)


def gp_regress(kernel, noise: float, x, y, test) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the latent function at `test` given
    targets `y` at `x` under observation noise variance `noise`; the prior
    when `x` is empty."""
    x, y, test = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (x, y, test))
    prior_var = np.array([kernels.eval_kernel(kernel, t, t) for t in test])
    if x.size == 0:
        return np.zeros(test.size), prior_var
    chol = _chol_gram(kernel, noise, x)
    cross = kernels.eval_matrix(kernel, test, x)
    means = cross @ scipy.linalg.cho_solve(chol, y)
    solved = scipy.linalg.cho_solve(chol, cross.T)
    return means, prior_var - np.sum(cross * solved.T, axis=1)


def log_marginal_likelihood(kernel, noise: float, x, y) -> float:
    """log p(y | x) under the GP prior plus noise variance `noise`."""
    x, y = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (x, y))
    chol = _chol_gram(kernel, noise, x)
    white = scipy.linalg.solve_triangular(chol[0], y, lower=True)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    return -0.5 * (x.size * np.log(2.0 * np.pi) + log_det + float(white @ white))


def stationary_lfm_kernel(drift, diffusion):
    """Scalar kernel of the first coordinate of the stationary process
    dX = drift X dt + noise of spectral density `diffusion`:
    cov(X(t), X(t')) = P_inf expm(drift^T |t' - t|)."""
    drift = np.atleast_2d(np.asarray(drift, dtype=float))
    p_inf = lti.lyapunov_stationary(drift, np.atleast_2d(np.asarray(diffusion, dtype=float)))

    def kern(t, tp):
        tau = np.abs(np.asarray(tp, dtype=float) - np.asarray(t, dtype=float))
        vals = [(p_inf @ scipy.linalg.expm(drift.T * d))[0, 0] for d in np.ravel(tau)]
        return np.reshape(vals, np.shape(tau))

    return kern
