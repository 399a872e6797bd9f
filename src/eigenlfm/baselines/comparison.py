"""Head-to-head protocol for the two linear-basis kernel representations.

Functions are drawn from a dense squared-exponential GP on a grid, measured
sparsely without noise, and regressed with (a) the eigenfunction basis and
(b) sparse-spectrum trigonometric features at matched basis counts.  Each
row reports the worst covariance reconstruction error of the representation
plus the regression RMSE and expected log-likelihood against the truth.
"""

from __future__ import annotations

import numpy as np

from .. import eigenbasis as eb
from .. import kernels
from .ssgpr import implied_covariance, ssgpr_build, ssgpr_regress

__all__ = ["compare_linear_bases"]


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
    """Run the comparison; returns one record per method."""
    kernel = kernels.SquaredExponential(sigma, ell)
    grid = np.linspace(0.0, window, grid_count)
    meas_idx = np.searchsorted(grid, np.arange(0.0, window + 1e-9, measure_every))
    meas_idx = np.unique(np.minimum(meas_idx, grid_count - 1))

    # significance threshold tuned so exactly n_basis eigenpairs survive
    probe = eb.build(kernel, n_points, window, gamma=1e-15)
    mu = probe.eigenvalues
    gamma = 0.5 * (mu[n_basis - 1] + mu[min(n_basis, n_points - 1)]) / mu[0]
    basis = eb.build(kernel, n_points, window, gamma=gamma)

    true_cov = kernels.eval_matrix(kernel, grid, grid)
    chol = np.linalg.cholesky(true_cov + 1e-10 * np.eye(grid_count))

    kpca_cov_err = float(np.max(np.abs(eb.reconstruct(basis, grid, grid) - true_cov)))

    rows = []
    rng = np.random.default_rng(seed)
    draws = [chol @ rng.standard_normal(grid_count) for _ in range(n_draws)]

    rmse, ells = [], []
    for f in draws:
        mean, var = eb.kpca_regress(basis, grid[meas_idx], f[meas_idx], grid, noise)
        rmse.append(float(np.sqrt(np.mean((mean - f) ** 2))))
        ells.append(_ell(f, mean, var))
    rows.append({
        "method": "kpca",
        "basis_count": basis.n_selected,
        "max_cov_error": kpca_cov_err,
        "rmse": float(np.mean(rmse)),
        "ell": float(np.mean(ells)),
        "rmse_per_draw": rmse,
        "ell_per_draw": ells,
    })

    for mult in ssgpr_multipliers:
        count = n_basis * mult
        rmse, ells, cov_errs = [], [], []
        for d, f in enumerate(draws):
            model = ssgpr_build(kernel, count, seed=seed + 1000 + d, noise_variance=noise)
            tau = grid - grid[0]
            cov_errs.append(float(np.max(np.abs(
                implied_covariance(model, tau, 0.0) - true_cov[0]
            ))))
            mean, var = ssgpr_regress(model, grid[meas_idx], f[meas_idx], grid)
            rmse.append(float(np.sqrt(np.mean((mean - f) ** 2))))
            ells.append(_ell(f, mean, var))
        rows.append({
            "method": f"ssgpr_x{mult}",
            "basis_count": count,
            "max_cov_error": float(np.median(cov_errs)),
            "rmse": float(np.mean(rmse)),
            "ell": float(np.mean(ells)),
            "rmse_per_draw": rmse,
            "ell_per_draw": ells,
        })
    return rows
