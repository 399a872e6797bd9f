"""Dense Gaussian process regression: the exact (cubic-cost) oracle that the
state-space machinery is checked against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .. import kernels
from ..errors import NumericError

__all__ = ["DenseGp", "gp_regress", "log_marginal_likelihood", "stationary_lfm_kernel"]

_JITTER_CAP_FRACTION = 1e-6
_NOISE_FLOOR = 1e-16  # variance of the 1e-8 jitter floor


@dataclass
class DenseGp:
    kernel: kernels.KernelLike
    noise: float  # observation noise variance
    train_inputs: np.ndarray
    train_targets: np.ndarray

    def __post_init__(self):
        self.train_inputs = np.atleast_1d(np.asarray(self.train_inputs, dtype=float))
        self.train_targets = np.atleast_1d(np.asarray(self.train_targets, dtype=float))
        if self.train_inputs.shape != self.train_targets.shape:
            raise ValueError("training inputs and targets must have equal length")


def _chol_gram(model: DenseGp):
    x = model.train_inputs
    gram = kernels.eval_matrix(model.kernel, x, x)
    noise = max(model.noise, _NOISE_FLOOR)
    base = gram + noise * np.eye(x.size)
    trace = float(np.trace(gram)) or 1.0
    jitter = 0.0
    while True:
        try:
            return scipy.linalg.cho_factor(base + jitter * np.eye(x.size), lower=True)
        except scipy.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * trace / x.size)
            if jitter > _JITTER_CAP_FRACTION * trace:
                raise NumericError("Gram matrix is not positive definite after max jitter")


def gp_regress(model: DenseGp, test_inputs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the latent function at the test inputs."""
    xs = np.atleast_1d(np.asarray(test_inputs, dtype=float))
    prior_var = np.array([kernels.eval_kernel(model.kernel, x, x) for x in xs])
    if model.train_inputs.size == 0:
        return np.zeros(xs.size), prior_var
    chol = _chol_gram(model)
    cross = kernels.eval_matrix(model.kernel, xs, model.train_inputs)
    alpha = scipy.linalg.cho_solve(chol, model.train_targets)
    means = cross @ alpha
    solved = scipy.linalg.cho_solve(chol, cross.T)
    variances = prior_var - np.sum(cross * solved.T, axis=1)
    return means, variances


def log_marginal_likelihood(model: DenseGp) -> float:
    """log p(Y | X) of the training data under the GP prior plus noise."""
    if model.train_inputs.size == 0:
        raise NumericError("need at least one training point")
    chol = _chol_gram(model)
    white = scipy.linalg.solve_triangular(chol[0], model.train_targets, lower=True)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    n = model.train_inputs.size
    return -0.5 * (n * np.log(2.0 * np.pi) + log_det + float(white @ white))


def stationary_lfm_kernel(drift, diffusion, out_index: int = 0):
    """Exact scalar kernel of one coordinate of a stationary Gauss-Markov
    process dX = drift X dt + noise, with `diffusion` the (p, p) white-noise
    spectral density matrix.

    cov(X(t), X(t')) = P_inf expm(drift^T (t'-t)) for t <= t', so the scalar
    kernel of coordinate `out_index` follows by selecting that entry.  Used
    to build the dense-GP oracle equivalent of a state-space model.
    """
    from .. import lti

    drift = np.atleast_2d(np.asarray(drift, dtype=float))
    diffusion = np.atleast_2d(np.asarray(diffusion, dtype=float))
    p_inf = lti.lyapunov_stationary(drift, diffusion)

    def kern(t, tp):
        t = np.asarray(t, dtype=float)
        tp = np.asarray(tp, dtype=float)
        tau = np.abs(np.asarray(tp - t, dtype=float))
        flat = np.ravel(tau)
        vals = np.empty(flat.shape)
        for i, d in enumerate(flat):
            vals[i] = (p_inf @ scipy.linalg.expm(drift.T * d))[out_index, out_index]
        return vals.reshape(np.shape(tau))

    return kern
