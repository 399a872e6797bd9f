"""What the two applications share: the daily period `DAY_MINUTES` (time
is in minutes), the held-out day's start and a pass's step count, the
daily periodic eigenbasis of every generator and model (`daily_basis`),
the force of a periodic roster entry on a basis (`roster_force`) and its
changepoints (`periodic_roster`), the held-out scorer and the draws.

Forces are drawn from the same priors the filters assume: a periodic draw
takes the `roster_force` of its kind and follows that force's weight
dynamics (step or random-walk jumps at each cycle, or continuous OU
decorrelation), evaluating the eigenfunction rows over one period of a
uniform grid, since they repeat every period; non-periodic draws use exact
discretizations of the corresponding LTI blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .. import eigenbasis as eb
from .. import kernels, lfm, lti
from ..errors import ContractViolationError, InvalidParameterError
from ..pade import expm

__all__ = [
    "DAY_MINUTES", "held_out_start", "pass_length", "daily_basis", "roster_force",
    "periodic_roster", "score", "draw_periodic_force", "draw_ou", "draw_matern32",
]

DAY_MINUTES = 1440.0
MAX_BASIS = 30  # eigenfunctions a periodic roster entry may select


def held_out_start(config) -> float:
    """First minute of a record's held-out day, the last of `config.days`."""
    return (config.days - 1) * DAY_MINUTES


def pass_length(t_start: float, t_end: float, dt: float, what: str) -> int:
    """Steps of a pass over [t_start, t_end] (`lfm.grid_steps`); a `t_end`
    off the step grid t_start + k dt raises, naming it as `what`."""
    return int(lfm.grid_steps([t_end], t_start, dt, round((t_end - t_start) / dt), what)[0])


def daily_basis(sigma: float, ell: float, config) -> eb.EigenBasis:
    """Eigenbasis of the daily periodic Matern-1/2 kernel, with the
    `n_basis_points` and `gamma` of a generator config."""
    kernel = kernels.PeriodicMatern(0.5, sigma, ell, DAY_MINUTES)
    return eb.build(kernel, config.n_basis_points, DAY_MINUTES, config.gamma)


def roster_force(kind: str, basis: eb.EigenBasis, params, coupling) -> lfm.PeriodicForce:
    """The force of a periodic roster entry on `basis`: "with" keeps its
    weights fixed, "quasi-sqm" and "quasi-wqm" jump at each cycle boundary
    (`params["ell_q"]` in cycles, `params["xi"]`), "quasi-cqm" decorrelates
    them continuously over `params["ell_q"]` cycles.  Another kind raises
    InvalidParameterError."""
    if kind == "with":
        return lfm.periodic_force(basis, coupling)
    if kind == "quasi-cqm":
        return lfm.cqm_force(basis, coupling, params["ell_q"] * basis.period)
    if kind == "quasi-sqm":
        return lfm.sqm_force(basis, coupling, params["ell_q"])
    if kind == "quasi-wqm":
        return lfm.wqm_force(basis, coupling, params["xi"])
    raise InvalidParameterError(f"unknown periodic roster entry {kind!r}")


def periodic_roster(kind: str, sigma: float, ell: float, params: dict, config, coupling):
    """(force, changepoints) of a periodic roster entry: its `roster_force`
    on `daily_basis`, and the day boundaries of the record when the force
    jumps (sqm, wqm).  More than `MAX_BASIS` basis functions raise
    ContractViolationError naming the kind, the phase scale and the count."""
    force = roster_force(kind, daily_basis(sigma, ell, config), params, coupling)
    if force.basis.n_selected > MAX_BASIS:
        raise ContractViolationError(
            f"periodic roster exceeded {MAX_BASIS} basis functions: {kind!r} at "
            f"phase scale ell = {ell:g} selects {force.basis.n_selected}, "
            f"the cap is {MAX_BASIS}"
        )
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
    grid: np.ndarray, force: lfm.PeriodicForce, rng: np.random.Generator
) -> np.ndarray:
    """Draw one trajectory of `force` (its coupling aside) on `grid`.

    The weights start from their prior N(0, mu_j / N) and follow the force's
    dynamics: with a `weight_rate` they are OU chains at that rate, else they
    are fixed within each cycle and, given a `jump`, take it at each cycle
    boundary.  The grid must be uniform from its start with a step dividing
    the period (the `lfm.grid_steps` tolerance; else
    ContractViolationError): the rows are evaluated on its first period
    only, and point k reads row k mod n_period and the weights of cycle
    k // n_period.
    """
    grid = np.asarray(grid, dtype=float)
    basis = force.basis
    mu = basis.scaled_eigenvalues()
    period = basis.period
    k = np.arange(grid.size)
    step = (grid[-1] - grid[0]) / k[-1] if k[-1] else period
    what = f"periodic draw grid (mean step {step:g}, period {period:g})"
    if not (step > 0.0 and np.array_equal(lfm.grid_steps(grid, grid[0], step, k[-1], what), k)):
        raise ContractViolationError(f"{what} is not uniform from its start")
    (n_period,) = lfm.grid_steps([grid[0] + period], grid[0], step, k[-1], f"{what}: period end")
    phi = eb.eigenfunction_matrix(basis, grid[:n_period])

    if force.weight_rate:
        # w[i] = g w[i-1] + e[i] as a prefix scan: after shift s, w[i] sums
        # g^j e[i-j] over j < 2s; it stops once g^s underflows to 0
        g = math.exp(force.weight_rate * step)
        w = rng.standard_normal((grid.size, mu.size))
        w[0] *= np.sqrt(mu)
        w[1:] *= np.sqrt(mu * (1.0 - g * g))
        shift, g_shift = 1, g
        while shift < grid.size and g_shift > 0.0:
            w[shift:] += g_shift * w[:-shift]
            shift, g_shift = 2 * shift, g_shift * g_shift
        return np.sum(phi[k % n_period] * w, axis=1)

    days = (grid.size - 1) // n_period + 1
    w = np.tile(rng.standard_normal(mu.size) * np.sqrt(mu), (days, 1))
    jump = force.jump
    if jump is not None:
        for d in range(1, days):
            w[d] = jump.gain * w[d - 1] + rng.standard_normal(mu.size) * np.sqrt(
                mu * jump.noise_var
            )
    return np.sum(phi[k % n_period] * w[k // n_period], axis=1)


def draw_ou(grid: np.ndarray, sigma: float, ell: float, rng) -> np.ndarray:
    """Exact OU (first-order Matern) draw on an arbitrary grid."""
    grid = np.asarray(grid, dtype=float).tolist()
    noise = rng.standard_normal(len(grid)).tolist()
    out = [noise[0] * sigma]
    for t0, t1, e in zip(grid, grid[1:], noise[1:]):
        g = math.exp(-(t1 - t0) / ell)
        out.append(g * out[-1] + e * sigma * math.sqrt(1.0 - g * g))
    return np.array(out)


def draw_matern32(n: int, step: float, sigma: float, ell: float, rng) -> np.ndarray:
    """Exact Matern-3/2 draw on a uniform grid of `n` points: returns values
    (not derivatives), initialized from the stationary distribution."""
    block = lti.matern32_block(sigma, ell)
    g = expm(block.drift * step)
    p_inf = lti.stationary_covariance(block)
    q = p_inf - g @ p_inf @ g.T
    chol_q = np.linalg.cholesky(q + 1e-14 * np.eye(2) * max(1.0, q[0, 0]))
    x, v = (np.linalg.cholesky(p_inf) @ rng.standard_normal(2)).tolist()
    (g00, g01), (g10, g11) = g.tolist()
    (c00, _), (c10, c11) = chol_q.tolist()  # lower triangular
    out = [x]
    for e0, e1 in rng.standard_normal((n - 1, 2)).tolist():
        x, v = g00 * x + g01 * v + c00 * e0, g10 * x + g11 * v + (c10 * e0 + c11 * e1)
        out.append(x)
    return np.array(out)
