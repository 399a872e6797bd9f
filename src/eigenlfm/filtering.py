"""Gaussian filtering: Kalman predict/update, innovation log-likelihood, and
the Rao-Blackwellised particle filter for a binary control input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import InvalidParameterError, NumericError

__all__ = [
    "GaussianState",
    "UpdateResult",
    "predict",
    "update",
    "log_likelihood",
    "rbpf_predict_day",
]


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


@dataclass
class GaussianState:
    """Filter posterior: mean vector, covariance, and the current time."""

    mean: np.ndarray
    cov: np.ndarray
    t: float

    def copy(self) -> "GaussianState":
        return GaussianState(self.mean.copy(), self.cov.copy(), self.t)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class UpdateResult:
    state: GaussianState
    innovation: np.ndarray
    innovation_cov: np.ndarray
    log_density: float


def predict(
    state: GaussianState,
    transition: np.ndarray,
    process_noise: np.ndarray,
    input_term: np.ndarray | None = None,
    t_new: float | None = None,
) -> GaussianState:
    """Linear-Gaussian time update: mean -> G mean + b, cov -> G cov G^T + Q."""
    g = np.asarray(transition, dtype=float)
    if g.shape[1] != state.dim:
        raise InvalidParameterError(
            f"transition has {g.shape[1]} columns for a state of dimension {state.dim}"
        )
    mean = g @ state.mean
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

    Returns the posterior together with the innovation, its covariance, and
    the Gaussian log-density of the observation under the predictive.
    """
    h = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    z = np.atleast_2d(np.asarray(obs_noise, dtype=float))
    y = np.atleast_1d(np.asarray(observation, dtype=float))
    if h.shape[1] != state.dim:
        raise InvalidParameterError("observation matrix does not match state size")

    innovation = y - h @ state.mean
    s = _symmetrize(h @ state.cov @ h.T + z)
    try:
        chol = scipy.linalg.cho_factor(s, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError("innovation covariance is singular") from exc

    gain = scipy.linalg.cho_solve(chol, h @ state.cov).T
    mean = state.mean + gain @ innovation
    closed = np.eye(state.dim) - gain @ h
    cov = _symmetrize(closed @ state.cov @ closed.T + gain @ z @ gain.T)

    white = scipy.linalg.solve_triangular(chol[0], innovation, lower=True)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    log_density = -0.5 * (y.size * math.log(2.0 * math.pi) + log_det + float(white @ white))

    return UpdateResult(
        state=GaussianState(mean, cov, state.t),
        innovation=innovation,
        innovation_cov=s,
        log_density=log_density,
    )


def log_likelihood(updates: Sequence[UpdateResult]) -> float:
    """Innovation (prediction-error) decomposition of the run log-likelihood."""
    if len(updates) == 0:
        raise InvalidParameterError("log-likelihood needs at least one update")
    return float(sum(u.log_density for u in updates))


def _particle_rngs(seed: int, n_particles: int) -> list[np.random.Generator]:
    # counter-based streams keyed by (seed, particle index): reproducible
    # regardless of how particles are scheduled
    return [
        np.random.Generator(np.random.Philox(key=[seed, i]))
        for i in range(n_particles)
    ]


def rbpf_predict_day(
    model,
    init: GaussianState,
    setpoint: Callable[[float], float],
    n_particles: int,
    step: float,
    horizon: float,
    seed: int,
    *,
    temp_index: int = 0,
    sample_condition: bool = True,
) -> list[dict]:
    """Day-ahead prediction with particles over the binary heater input.

    Per step and particle: the heater is on while the particle's last sampled
    temperature is strictly below the set point, the Kalman prediction runs
    with that input held constant over the step, the temperature marginal is
    sampled, and the Gaussian is conditioned on that sample.  All particles
    share one covariance (input changes only the mean), so every step is one
    transition of the whole bank of means and the cost is O(C^2 T (C + P)).

    Particle i draws from its own Philox stream keyed by (seed, i), so the
    result does not depend on how particles are scheduled.  Each stream is
    drawn once, up front, as a block of one normal per step (the same numbers
    in the same order as that many scalar draws).  The k-th conditioning step
    consumes column k of the block; a step that does not condition (sampling
    off, or a vanishing temperature variance) consumes none.

    Returns one record per step: {"t", "mean", "var"} with the equal-weight
    mixture moments of the temperature marginal after the prediction.
    """
    from . import lfm  # deferred: lfm depends on this module for GaussianState

    if n_particles < 1:
        raise InvalidParameterError("need at least one particle")
    if model.binary_input is None:
        raise InvalidParameterError("model has no binary input channel")
    if math.isnan(setpoint(init.t)):
        raise InvalidParameterError("setpoint must not be NaN")

    n_steps = int(round(horizon / step))
    draws = np.empty((n_particles, n_steps))
    for row, rng in zip(draws, _particle_rngs(seed, n_particles)):
        rng.standard_normal(out=row)
    n_drawn = 0

    on_input = np.asarray(model.binary_input, dtype=float)
    constant_weights = lfm.has_constant_weights(model)
    if constant_weights:
        plan = lfm.make_constant_step_plan(model, step)
        off_input = np.zeros_like(on_input)
        b_on = np.zeros(model.dim)
        b_on[: on_input.size] = plan.input_response @ on_input

    means = np.tile(init.mean, (n_particles, 1))
    cov = init.cov.copy()
    t = init.t

    # initial heater from the known initial temperature
    heaters = _controller(np.full(n_particles, float(init.mean[temp_index])), setpoint(t))

    records = []
    changepoints = np.asarray(model.changepoints, dtype=float)
    for _ in range(n_steps):
        t_next = t + step
        # changepoints are aligned with step boundaries by construction
        hit = changepoints[(changepoints > t + 1e-9) & (changepoints <= t_next + 1e-9)]

        # G and Q do not depend on the input, and the off input is zero, so a
        # particle with its heater off gets no input term
        if constant_weights:
            trans = lfm.constant_weight_transition(
                model, t, t_next, plan=plan, input_value=off_input
            )
        else:
            trans = lfm.discretize(model, t, t_next, input_value=on_input)
            b_on = trans.input_term

        means = means @ trans.transition.T
        means[heaters] += b_on
        cov = _symmetrize(trans.transition @ cov @ trans.transition.T + trans.noise)
        t = t_next

        for tau in hit:
            means, cov = lfm.apply_changepoint_moments(model, means, cov)

        var_t = float(cov[temp_index, temp_index])
        m_t = means[:, temp_index]
        mix_mean = float(np.mean(m_t))
        mix_var = var_t + float(np.mean(m_t**2) - mix_mean**2)
        records.append({"t": t, "mean": mix_mean, "var": mix_var})

        if sample_condition and var_t > 1e-14:
            samples = m_t + math.sqrt(var_t) * draws[:, n_drawn]
            n_drawn += 1
            gain_col = cov[:, temp_index] / var_t
            means = means + np.outer(samples - m_t, gain_col)
            cov = _symmetrize(cov - np.outer(cov[:, temp_index], cov[:, temp_index]) / var_t)
        else:
            samples = m_t

        sp = setpoint(t)
        if math.isnan(sp):
            raise InvalidParameterError("setpoint must not be NaN")
        heaters = _controller(samples, sp)

    return records


def _controller(temps: np.ndarray, setpoint: float) -> np.ndarray:
    """Threshold controller: the heater is on strictly below the set point."""
    return temps < setpoint
