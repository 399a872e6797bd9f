"""What the two applications share: the daily period `DAY_MINUTES` (time
is in minutes), the daily periodic eigenbasis of every generator and model
(`daily_basis`), the force and changepoints of a periodic roster entry
(`periodic_roster`), the held-out scorer (`score`) and the synthetic draws.

Forces are drawn from the same priors the filters assume: periodic draws use
the eigenfunction basis with per-cycle weight chains (step or random-walk
jumps, or continuous OU decorrelation), non-periodic draws use exact
discretizations of the corresponding LTI blocks.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .. import eigenbasis as eb
from .. import kernels, lfm, lti
from ..errors import ContractViolationError, InvalidParameterError

__all__ = [
    "DAY_MINUTES", "daily_basis", "periodic_roster", "score",
    "draw_periodic_force", "draw_ou", "draw_matern32",
]

DAY_MINUTES = 1440.0
_PERIODIC_KINDS = ("with", "quasi-cqm", "quasi-sqm", "quasi-wqm")


def daily_basis(sigma: float, ell: float, config) -> eb.EigenBasis:
    """Eigenbasis of the daily periodic Matern-1/2 kernel, with the
    `n_basis_points` and `gamma` of a generator config."""
    kernel = kernels.PeriodicMatern(0.5, sigma, ell, DAY_MINUTES)
    return eb.build(kernel, config.n_basis_points, DAY_MINUTES, config.gamma)


def periodic_roster(kind: str, sigma: float, ell: float, params: dict, config, coupling):
    """(force, changepoints) of a periodic roster entry on `daily_basis`; the
    changepoints are the day boundaries of the record when the force jumps
    (sqm, wqm).  More than 30 basis functions raise ContractViolationError."""
    if kind not in _PERIODIC_KINDS:
        raise InvalidParameterError(f"unknown periodic roster entry {kind!r}")
    basis = daily_basis(sigma, ell, config)
    if basis.n_selected > 30:
        raise ContractViolationError("periodic roster exceeded 30 basis functions")
    if kind == "with":
        force = lfm.periodic_force(basis, coupling)
    elif kind == "quasi-cqm":
        force = lfm.cqm_force(basis, coupling, 1.0, params["ell_q"] * DAY_MINUTES)
    elif kind == "quasi-sqm":
        force = lfm.sqm_force(basis, coupling, 1.0, params["ell_q"])
    else:
        force = lfm.wqm_force(basis, coupling, 1.0, params["xi"])
    changepoints = () if force.jump is None else DAY_MINUTES * np.arange(1, config.days)
    return force, changepoints


def score(times, mean, var, grid, truth) -> dict:
    """RMSE and expected log-likelihood of the predictive marginals at `times`
    against `truth` on `grid` (interpolated), with the arrays they used:
    `times`, `mean`, `var` (clamped at 1e-12) and `truth`."""
    times = np.asarray(times, dtype=float)
    mean = np.asarray(mean, dtype=float)
    var = np.maximum(np.asarray(var, dtype=float), 1e-12)
    truth = np.interp(times, grid, truth)
    rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
    ell = float(np.mean(-0.5 * np.log(2.0 * np.pi * var) - 0.5 * (truth - mean) ** 2 / var))
    return {"rmse": rmse, "ell": ell, "times": times, "mean": mean, "var": var, "truth": truth}


def draw_periodic_force(
    grid: np.ndarray,
    basis: eb.EigenBasis,
    kind: str,
    rng: np.random.Generator,
    ell_q: float = 2.0,
    xi: float = 1.0,
) -> np.ndarray:
    """Draw one force trajectory on `grid` from a (quasi-)periodic prior.

    `kind` selects the weight dynamics: "with" keeps the weights fixed,
    "quasi-sqm" / "quasi-wqm" jump at each cycle boundary, "quasi-cqm"
    evolves them as OU chains with time constant ell_q cycles.
    """
    grid = np.asarray(grid, dtype=float)
    mu = basis.scaled_eigenvalues()
    period = basis.period
    phi = eb.eigenfunction_matrix(basis, grid)

    if kind == "quasi-cqm":
        rate = 1.0 / (ell_q * period)
        w = np.empty((grid.size, mu.size))
        w[0] = rng.standard_normal(mu.size) * np.sqrt(mu)
        for k in range(1, grid.size):
            g = math.exp(-rate * (grid[k] - grid[k - 1]))
            w[k] = g * w[k - 1] + rng.standard_normal(mu.size) * np.sqrt(
                mu * (1.0 - g * g)
            )
        return np.sum(phi * w, axis=1)

    days = int(np.ceil((grid[-1] + 1e-9) / period))
    w = np.empty((max(days, 1), mu.size))
    if kind == "with":
        w[:] = rng.standard_normal(mu.size) * np.sqrt(mu)
    elif kind == "quasi-sqm":
        jump = lti.sqm_jump(1.0, ell_q)
        w[0] = rng.standard_normal(mu.size) * np.sqrt(mu)
        for d in range(1, days):
            w[d] = jump.gain * w[d - 1] + rng.standard_normal(mu.size) * np.sqrt(
                mu * jump.noise_var
            )
    elif kind == "quasi-wqm":
        w[0] = rng.standard_normal(mu.size) * np.sqrt(mu)  # base variance xi0 = 1
        for d in range(1, days):
            w[d] = w[d - 1] + rng.standard_normal(mu.size) * np.sqrt(mu * xi)
    else:
        raise InvalidParameterError(f"unsupported periodic draw kind {kind!r}")
    day_of = np.minimum((grid / period).astype(int), days - 1)
    return np.sum(phi * w[day_of], axis=1)


def draw_ou(grid: np.ndarray, sigma: float, ell: float, rng) -> np.ndarray:
    """Exact OU (first-order Matern) draw on an arbitrary grid."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty(grid.size)
    out[0] = rng.standard_normal() * sigma
    for k in range(1, grid.size):
        g = math.exp(-(grid[k] - grid[k - 1]) / ell)
        out[k] = g * out[k - 1] + rng.standard_normal() * sigma * math.sqrt(1.0 - g * g)
    return out


def draw_matern32(n: int, step: float, sigma: float, ell: float, rng) -> np.ndarray:
    """Exact Matern-3/2 draw on a uniform grid of `n` points: returns values
    (not derivatives), initialized from the stationary distribution."""
    block = lti.matern32_block(sigma, ell)
    g = scipy.linalg.expm(block.drift * step)
    p_inf = lti.stationary_covariance(block)
    q = p_inf - g @ p_inf @ g.T
    chol_q = np.linalg.cholesky(q + 1e-14 * np.eye(2) * max(1.0, q[0, 0]))
    chol_p = np.linalg.cholesky(p_inf)
    state = chol_p @ rng.standard_normal(2)
    out = np.empty(n)
    out[0] = state[0]
    for k in range(1, n):
        state = g @ state + chol_q @ rng.standard_normal(2)
        out[k] = state[0]
    return out
