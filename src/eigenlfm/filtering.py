"""Gaussian filtering: Kalman predict/update of one mean or a bank of means
sharing one covariance (each update returns the innovation log-density), and
the Rao-Blackwellised particle filter for a binary control input, run on them.

This module knows nothing of how a model is discretized: a pass hands it
transitions (for the particle filter, a stream of steps from
`lfm.pass_steps`) and, where the model jumps, a jump callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import InvalidParameterError, NumericError

__all__ = [
    "GaussianState",
    "UpdateResult",
    "predict",
    "update",
    "rbpf_predict_day",
]


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


@dataclass
class GaussianState:
    """Filter posterior: a mean (C,) or a bank of means (P, C), one covariance, the time."""

    mean: np.ndarray
    cov: np.ndarray
    t: float

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class UpdateResult:
    state: GaussianState
    innovation: np.ndarray
    innovation_cov: np.ndarray
    log_density: float | np.ndarray


def predict(
    state: GaussianState,
    transition: np.ndarray,
    process_noise: np.ndarray,
    input_term: np.ndarray | None = None,
    t_new: float | None = None,
) -> GaussianState:
    """Linear-Gaussian time update: each mean -> G mean + b, cov -> G cov G^T + Q."""
    g = np.asarray(transition, dtype=float)
    if g.shape[1] != state.dim:
        raise InvalidParameterError(
            f"transition has {g.shape[1]} columns for a state of dimension {state.dim}"
        )
    mean = state.mean @ g.T
    if input_term is not None:
        mean = mean + input_term
    cov = _symmetrize(g @ state.cov @ g.T + process_noise)
    return GaussianState(mean, cov, state.t if t_new is None else t_new)


def update(
    state: GaussianState,
    obs_matrix: np.ndarray,
    obs_noise: np.ndarray,
    observation: np.ndarray,
) -> UpdateResult:
    """Measurement update with the Joseph-stabilized covariance form.

    Returns the posterior, the innovation, its shared covariance S = L L^T and
    the log-density of the observation: (d,) and a float for one mean, (P, d)
    and (P,) for a bank.  S is factored by LAPACK's `potrf` and L inverted by
    `trtri`, called directly: on a d x d matrix numpy.linalg's wrappers cost
    several times the factorization.  A non-positive-definite S raises
    NumericError ("singular"), and so does a non-finite log det S, taken from
    L's diagonal (potrf passes a NaN through).  With W = L^-1 H P the gain is
    K = W^T L^-1 and the mean moves by (L^-1 v)^T W.  The Joseph form
    (I - KH) P (I - KH)^T + K R K^T is formed as
    P - K (HP) - ((HP)^T - K S) K^T: the C x d term vanishes in exact
    arithmetic, and keeping it lets a round-off error in K reach the
    covariance at second order only, as in the Joseph form.
    """
    h = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    z = np.atleast_2d(np.asarray(obs_noise, dtype=float))
    y = np.atleast_1d(np.asarray(observation, dtype=float))
    expected = state.mean.shape[:-1] + h.shape[:1]
    if h.shape[1] != state.dim or y.shape != expected:
        raise InvalidParameterError(
            f"observation of shape {y.shape} and observation matrix of shape {h.shape} for "
            f"means of shape {state.mean.shape}: the observation must have shape {expected}"
        )

    # np.dot, not @, for the bank products: @ of a (P, 1) by a (1, C) array is 5x slower
    innovation = y - np.dot(state.mean, h.T)
    hp = h @ state.cov
    s = _symmetrize(hp @ h.T + z)
    chol, info = dpotrf(s, lower=1, clean=1)
    if info:
        raise NumericError("innovation covariance is singular")
    log_det = 2.0 * sum(map(math.log, chol.diagonal().tolist()))
    if not math.isfinite(log_det):
        raise NumericError(f"innovation covariance S is not finite: log det S = {log_det}")
    chol_inv, _ = dtrtri(chol, lower=1)

    w = chol_inv @ hp
    gain = w.T @ chol_inv
    white = np.dot(innovation, chol_inv.T)
    mean = state.mean + np.dot(white, w)
    cov = _symmetrize(state.cov - gain @ hp - (hp.T - gain @ s) @ gain.T)

    quad = (white * white).sum(axis=-1)
    log_density = -0.5 * (h.shape[0] * math.log(2.0 * math.pi) + log_det + quad)

    return UpdateResult(
        state=GaussianState(mean, cov, state.t),
        innovation=innovation,
        innovation_cov=s,
        log_density=log_density if y.ndim > 1 else float(log_density),
    )


def _particle_draws(seed: int, n_particles: int, n_draws: int) -> np.ndarray:
    """(n_particles, n_draws) standard normals: row i is the start of the
    counter-based Philox stream keyed by (seed, i), the stream of
    `Generator(Philox(key=[seed, i]))`, so a particle's draws do not depend
    on how particles are scheduled.  One generator is re-keyed per row (key
    (seed, i), counter 0, empty buffer) instead of building one per particle."""
    bit_gen = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    draws = np.empty((n_particles, n_draws))
    for i, row in enumerate(draws):
        fresh["state"]["key"][1] = i
        bit_gen.state = fresh
        rng.standard_normal(out=row)
    return draws


def rbpf_predict_day(
    steps: Iterable,
    n_steps: int,
    init: GaussianState,
    setpoint: Callable[[float], float],
    n_particles: int,
    seed: int,
    *,
    jump: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> list[dict]:
    """Day-ahead prediction with particles over the binary heater input.

    `steps` yields the `n_steps` steps of the pass in order, each with the
    end time `t`, the `transition` G and `noise` Q, the input term
    `input_on` of a heater that is on, and whether a `changepoint` falls on
    the step end (see `lfm.pass_steps`); it may be lazy.  On such a step,
    `jump(means, cov)` maps the bank of means and the shared covariance
    across the changepoint.  The temperature is state 0.

    Per step and particle: the heater is on while the particle's last sampled
    temperature is strictly below the set point, the Kalman prediction runs
    with that input held constant over the step, the temperature marginal is
    sampled, and the Gaussian is conditioned on that sample.  All particles
    share one covariance (input changes only the mean): a step is `predict` on
    the bank, the input on rows whose heater is on, the jump, and `update` with
    H = e_0, zero noise and the samples as observations; cost O(C^2 T (C + P)).

    Particle i draws from its own Philox stream keyed by (seed, i), so the
    result does not depend on how particles are scheduled.  Each stream is
    drawn once, up front, as a block of one normal per step (the same numbers
    in the same order as that many scalar draws).  The k-th conditioning step
    consumes column k of the block; a step that does not condition (a
    vanishing temperature variance) consumes none.

    Returns one record per step: {"t", "mean", "var"} with the equal-weight
    mixture moments of the temperature marginal after the prediction.
    """
    if n_particles < 1:
        raise InvalidParameterError("need at least one particle")
    if math.isnan(setpoint(init.t)):
        raise InvalidParameterError("setpoint must not be NaN")

    draws = _particle_draws(seed, n_particles, n_steps)
    n_drawn = 0

    bank = GaussianState(np.tile(init.mean, (n_particles, 1)), init.cov, init.t)
    temperature, no_noise = np.eye(1, init.dim), np.zeros((1, 1))

    # initial heater from the known initial temperature
    heaters = _controller(np.full(n_particles, float(init.mean[0])), setpoint(init.t))

    records = []
    for step in steps:
        # G and Q do not depend on the input, and the off input is zero, so a
        # particle with its heater off gets no input term
        bank = predict(bank, step.transition, step.noise, t_new=step.t)
        bank.mean[heaters] += step.input_on
        if step.changepoint:
            bank.mean, bank.cov = jump(bank.mean, bank.cov)

        var_t = float(bank.cov[0, 0])
        m_t = bank.mean[:, 0]
        mix_mean = float(np.mean(m_t))
        mix_var = var_t + float(np.mean(m_t**2) - mix_mean**2)
        records.append({"t": step.t, "mean": mix_mean, "var": mix_var})

        if var_t > 1e-14:
            samples = m_t + math.sqrt(var_t) * draws[:, n_drawn]
            n_drawn += 1
            bank = update(bank, temperature, no_noise, samples[:, None]).state
        else:
            samples = m_t

        sp = setpoint(step.t)
        if math.isnan(sp):
            raise InvalidParameterError("setpoint must not be NaN")
        heaters = _controller(samples, sp)

    return records


def _controller(temps: np.ndarray, setpoint: float) -> np.ndarray:
    """Threshold controller: the heater is on strictly below the set point."""
    return temps < setpoint
