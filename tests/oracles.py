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

One oracle is not a GP: `rbpf_reference`, the particle filter's bank moved
by one product per step, against which the blocked bank of
`filtering.rbpf_predict_day` is checked (tests/test_filtering.py:
`test_rbpf_blocked_bank_matches_the_per_step_bank`).
"""

import math

import numpy as np
import scipy.linalg

from eigenlfm import kernels, lti
from eigenlfm.filtering import predict, update

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


def rbpf_reference(mean, cov, n_steps, step, changepoints, setpoints, n_particles, draws, *,
                   jump):
    """The records of `filtering.rbpf_predict_day` with the bank moved every
    step: the (C + 2, P) bank holds the means before their last conditioning,
    the draws z and the heaters, and one product [G | G g | b] @ bank
    conditions, predicts and heats every mean."""
    columns = iter(draws.T)
    c = mean.size
    bank = np.zeros((c + 2, n_particles))
    bank[:c] = mean[:, None]
    bank[c + 1] = mean[0] < setpoints[0]
    no_gain, temperature, no_noise = np.zeros(c), np.eye(1, c), np.zeros((1, 1))
    gain, product = no_gain, np.empty((c, c + 2))  # product: [G | G g | b]
    records = []
    for k, sp in enumerate(setpoints[1:], start=1):
        transition, noise, input_on = step(k, None)
        product[:, c], cov = predict(gain, cov, transition, noise)
        product[:, :c], product[:, c + 1] = transition, 0.0 if input_on is None else input_on
        bank[:c] = product @ bank
        if k in changepoints:
            means, cov = jump(bank[:c].T, cov)
            bank[:c] = means.T
        var_t = float(cov[0, 0])
        m_t = bank[0]
        mix_mean = float(np.add.reduce(m_t) / n_particles)
        dev = m_t - mix_mean
        records.append((mix_mean, var_t + float(np.add.reduce(dev * dev) / n_particles)))
        if var_t > 1e-14:
            sd, bank[c] = math.sqrt(var_t), next(columns)
            gain, cov, _ = update(no_gain, cov, temperature, no_noise, [sd])
        else:
            sd, gain, bank[c] = 0.0, no_gain, 0.0
        bank[c + 1] = m_t + sd * bank[c] < sp
    return records
