"""Head-to-head protocol for the two linear-basis kernel representations.

Functions are drawn from a dense squared-exponential GP on a grid, measured
sparsely without noise, and regressed with (a) the eigenfunction basis and
(b) sparse-spectrum trigonometric features at matched basis counts.  Both go
through one Bayesian linear regression, `linear_regress`, so the rows differ
only in their features and weight prior: eigenfunction rows with variances
mu_j / N, or cos/sin features with sigma^2 / S each.  Each row reports the
worst covariance reconstruction error of the representation plus the
regression RMSE and expected log-likelihood against the truth.
"""

from __future__ import annotations

import numpy as np

from .. import eigenbasis as eb
from .. import kernels
from ..errors import InvalidParameterError, NumericError
from .ssgpr import implied_covariance, ssgpr_build, ssgpr_features

__all__ = ["compare_linear_bases", "linear_regress"]


def linear_regress(
    train_features, targets, test_features, prior_var, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and variance of the latent function at the test rows
    under the weight prior N(0, diag(prior_var)) given the noisy targets at
    the training rows; features are (n, J) arrays."""
    import scipy.linalg  # only compare-bases regresses; track and predict never load scipy
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        return np.zeros(test_features.shape[0]), (test_features**2) @ prior_var
    noise = max(noise, 1e-16)
    phi = train_features
    precision = phi.T @ phi / noise + np.diag(1.0 / prior_var)
    try:
        chol = scipy.linalg.cho_factor(precision, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError("feature precision matrix is singular") from exc
    w_mean = scipy.linalg.cho_solve(chol, phi.T @ y / noise)
    half = scipy.linalg.solve_triangular(chol[0], test_features.T, lower=True)
    return test_features @ w_mean, np.sum(half**2, axis=0)


def _ell(truth, mean, var):
    var = np.maximum(var, 1e-12)
    return float(np.mean(
        -0.5 * np.log(2.0 * np.pi * var) - 0.5 * (truth - mean) ** 2 / var
    ))


def compare_linear_bases(
    sigma: float = 1.0,
    ell: float = 10.0,
    window: float = 120.0,
    n_points: int = 100,
    n_basis: int = 22,
    n_draws: int = 20,
    measure_every: float = 10.0,
    noise: float = 1e-10,
    grid_count: int = 200,
    ssgpr_multipliers: tuple[int, ...] = (1, 4),
    seed: int = 0,
) -> list[dict]:
    """Regress every draw with `n_basis` eigenpairs ("kpca") and with
    `n_basis * m` spectral points per multiplier m ("ssgpr_xm", drawn afresh
    per draw); one record per method."""
    kernel = kernels.SquaredExponential(sigma, ell)
    grid = np.linspace(0.0, window, grid_count)
    meas_idx = np.searchsorted(grid, np.arange(0.0, window + 1e-9, measure_every))
    meas_idx = np.unique(np.minimum(meas_idx, grid_count - 1))
    x = grid[meas_idx]

    # significance threshold tuned so exactly n_basis eigenpairs survive
    probe = eb.build(kernel, n_points, window, gamma=1e-15)
    mu = probe.eigenvalues
    positive = int(np.count_nonzero(mu > 0.0))
    if n_basis > positive:
        raise InvalidParameterError(
            f"n_basis = {n_basis} exceeds the count of positive eigenvalues of the "
            f"n_points = {n_points} Gram, {positive}"
        )
    # midway to the next eigenvalue, or to 0 when that one is not positive
    gamma = 0.5 * (mu[n_basis - 1] + max(mu[min(n_basis, n_points - 1)], 0.0)) / mu[0]
    basis = eb.build(kernel, n_points, window, gamma=gamma)

    true_cov = kernels.eval_matrix(kernel, grid, grid)
    chol = np.linalg.cholesky(true_cov + 1e-10 * np.eye(grid_count))
    rng = np.random.default_rng(seed)
    draws = [chol @ rng.standard_normal(grid_count) for _ in range(n_draws)]

    # (method, basis count, covariance error, per draw: the features at the
    # measurements and on the grid, and the weight prior)
    kpca = (eb.eigenfunction_matrix(basis, x), eb.eigenfunction_matrix(basis, grid),
            basis.scaled_eigenvalues())
    cov_err = float(np.max(np.abs(eb.reconstruct(basis, grid, grid) - true_cov)))
    methods = [("kpca", basis.n_selected, cov_err, [kpca] * n_draws)]
    for mult in ssgpr_multipliers:
        count = n_basis * mult
        models = [ssgpr_build(kernel, count, seed=seed + 1000 + d) for d in range(n_draws)]
        errs = [np.max(np.abs(implied_covariance(m, grid - grid[0], 0.0) - true_cov[0]))
                for m in models]
        methods.append((f"ssgpr_x{mult}", count, float(np.median(errs)), [
            (ssgpr_features(m, x), ssgpr_features(m, grid), np.full(2 * count, m.sigma2 / count))
            for m in models
        ]))

    rows = []
    for name, count, cov_err, features in methods:
        rmse, ells = [], []
        for f, (phi, phi_s, prior) in zip(draws, features):
            mean, var = linear_regress(phi, f[meas_idx], phi_s, prior, noise)
            rmse.append(float(np.sqrt(np.mean((mean - f) ** 2))))
            ells.append(_ell(f, mean, var))
        rows.append({"method": name, "basis_count": count, "max_cov_error": cov_err,
                     "rmse": float(np.mean(rmse)), "ell": float(np.mean(ells))})
    return rows
