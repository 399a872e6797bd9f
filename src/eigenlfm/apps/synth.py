"""Shared synthetic-data draws for the applications.

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
from .. import lti
from ..errors import InvalidParameterError

__all__ = ["draw_periodic_force", "draw_ou", "draw_matern32"]


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
