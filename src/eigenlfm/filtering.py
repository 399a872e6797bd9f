"""Gaussian filtering on plain arrays: Kalman `predict` and `update` of one
mean (C,) and its covariance (`update` alone restores its symmetry and
returns the innovation log-density), the one Kalman pass `kalman_pass` that
every application filter runs, and the Rao-Blackwellised particle filter for
a binary control input, whose shared covariance takes the same two steps and
whose `particle_draws` block the methods predicted on one dataset share.

This module knows nothing of how a model is discretized.  Both passes take
one protocol: `step(k, mean)` returns the (G, Q or None, input term or
None) of step k = 1 .. n_steps, read before the next call (so a step may
rewrite them), and a jump callable maps the moments across the steps in a
`changepoints` set; `kalman_pass` hands `step` its mean, the RBPF None.
Both record the predictive (mean, var) of state 0 at each step end; the
caller knows the times.  The recursion is the standard one (Särkkä,
*Bayesian Filtering and Smoothing*, 2013), in numpy alone.
"""

from __future__ import annotations

import math
from typing import Callable, Container, Mapping

import numpy as np

from .errors import ContractViolationError, InvalidParameterError, NumericError

__all__ = [
    "predict",
    "update",
    "kalman_pass",
    "particle_draws",
    "rbpf_predict_day",
]


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def predict(
    mean: np.ndarray,
    cov: np.ndarray,
    transition: np.ndarray,
    process_noise: np.ndarray | None,
    input_term: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear-Gaussian time update: mean -> G mean + b, cov -> G cov G^T + Q,
    not symmetrized; None is no Q or no b.  The mean is (C,), G and Q (C, C)."""
    g = np.asarray(transition, dtype=float)
    q = None if process_noise is None else np.asarray(process_noise, dtype=float)
    square = mean.shape[-1:] * 2
    if g.shape != square or (q is not None and q.shape != square):
        raise InvalidParameterError(f"transition of shape {g.shape} and noise of shape "
                                    f"{getattr(q, 'shape', None)} must both be {square}")
    mean = np.dot(mean, g.T)
    if input_term is not None:
        mean = mean + input_term
    cov = np.dot(np.dot(g, cov), g.T)
    if q is not None:
        cov += q
    return mean, cov


def update(
    mean: np.ndarray,
    cov: np.ndarray,
    obs_matrix: np.ndarray,
    obs_noise: np.ndarray,
    observation: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Measurement update as one symmetric rank-d downdate of the covariance.

    The mean is (C,), H (d, C), R (d, d) and y (d,), with d = 1 or 2;
    anything else (a 0-d y too) raises InvalidParameterError.  Returns the
    posterior mean and covariance and the log-density of y, a float.
    S = L L^T is factored and L inverted in closed form on Python floats,
    from S's lower triangle: at d <= 2 a LAPACK call costs more than the
    arithmetic.  A pivot <= 0 raises NumericError ("singular"), and so does a
    non-finite log det S (a NaN passes the pivot test).  With the whitened
    rows W = L^-1 H P the mean moves by (L^-1 (y - H m))^T W, and the
    covariance is the downdate P - W^T W of the prior P symmetrized first;
    numpy forms W^T W as a symmetric rank-d product, so the posterior is
    exactly symmetric.  The Joseph form guards against round-off in the gain
    K, but K is never formed: mean and covariance take the same factor W.
    """
    h, z = np.asarray(obs_matrix, dtype=float), np.asarray(obs_noise, dtype=float)
    y = np.asarray(observation, dtype=float)
    d = h.shape[:1]
    if h.shape != d + mean.shape or y.shape != d:
        raise InvalidParameterError(
            f"observation of shape {y.shape} and observation matrix of shape {h.shape} for "
            f"a mean of shape {mean.shape}: the observation must have shape {d}"
        )
    if z.shape != d * 2:
        raise InvalidParameterError(f"observation noise of shape {z.shape} must be {d * 2}")
    if d not in ((1,), (2,)):
        raise InvalidParameterError(f"update observes d = 1 or 2 entries, not d = {d[0]}")

    # np.dot, not @: it dispatches faster on small arrays
    hp = np.dot(h, cov)
    s = np.dot(hp, h.T) + z
    rows = s.tolist()
    s00 = rows[0][0]
    if s00 <= 0.0:
        raise NumericError("innovation covariance is singular")
    i00 = 1.0 / math.sqrt(s00)
    if d == (2,):
        l10 = rows[1][0] * i00
        pivot = rows[1][1] - l10 * l10
        if pivot <= 0.0:
            raise NumericError("innovation covariance is singular")
        i11 = 1.0 / math.sqrt(pivot)
        log_det = math.log(s00) + math.log(pivot)
        chol_inv = np.array([[i00, 0.0], [-(i11 * l10) * i00, i11]])
    else:
        log_det = math.log(s00)
        chol_inv = np.array([[i00]])
    if not math.isfinite(log_det):
        raise NumericError(f"innovation covariance S is not finite: log det S = {log_det}")

    w = np.dot(chol_inv, hp)
    white = np.dot(chol_inv, y - np.dot(h, mean))
    mean = mean + np.dot(white, w)
    cov = _symmetrize(cov) - np.dot(w.T, w)

    quad = np.dot(white, white)
    log_density = -0.5 * (h.shape[0] * math.log(2.0 * math.pi) + log_det + quad)
    return mean, cov, float(log_density)


def kalman_pass(
    mean: np.ndarray, cov: np.ndarray, n_steps: int, step: Callable, changepoints: Container,
    observations: Mapping, obs_matrix: np.ndarray, obs_noise: np.ndarray, *, jump: Callable,
) -> tuple[float, np.ndarray, np.ndarray, list[tuple]]:
    """One Kalman filter pass of `n_steps` steps from the moments (mean, cov).

    Step k = 1 .. n_steps ends on grid point k: `step(k, mean)`, called in
    order with the mean before the step, returns its (G, Q or None, input
    term or None), read before the next call.  The pass predicts, jumps by
    `jump(mean, cov)` if k is in `changepoints`, records the predictive
    (mean[0], cov[0, 0]) of state 0 and updates on `observations[k]`, if
    any, with H = `obs_matrix` and R = `obs_noise`.  An observation keyed
    outside 1 .. n_steps raises ContractViolationError.  Returns (the
    observations' log-likelihood, mean, cov, records), one record per step.
    """
    outside = sorted(k for k in observations if not 1 <= k <= n_steps)
    if outside:
        raise ContractViolationError(
            f"observation at step {outside[0]} lies outside the pass of {n_steps} steps"
        )
    loglik, records = 0.0, []
    for k in range(1, n_steps + 1):
        mean, cov = predict(mean, cov, *step(k, mean))
        if k in changepoints:
            mean, cov = jump(mean, cov)
        records.append((mean[0], cov[0, 0]))
        y = observations.get(k)
        if y is not None:
            mean, cov, log_density = update(mean, cov, obs_matrix, obs_noise, y)
            loglik += log_density
    return loglik, mean, cov, records


def particle_draws(seed: int, n_particles: int, n_draws: int) -> np.ndarray:
    """(n_particles, n_draws) standard normals, read-only: row i is the start
    of the counter-based Philox stream keyed by (seed, i), the stream of
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
    draws.flags.writeable = False
    return draws


def rbpf_predict_day(
    mean: np.ndarray, cov: np.ndarray, n_steps: int, step: Callable, changepoints: Container,
    setpoints: np.ndarray, n_particles: int, draws: np.ndarray, *, jump: Callable,
) -> list[tuple[float, float]]:
    """Day-ahead prediction with particles over the binary heater input.

    From the moments (mean, cov), step k = 1 .. n_steps takes the protocol
    of `kalman_pass`, but `step(k, None)`, called in order, is handed no
    mean: every particle takes its (G, Q or None, b or None), b the input of
    a heater that is on, read before the next call; `jump(means, cov)` maps
    the (P, C) particle means and shared covariance across a `changepoints`
    step.  The temperature is state 0.  `setpoints` holds the n_steps + 1
    set points at the pass start and each step end; none may be NaN, and
    another count raises InvalidParameterError.

    Per step and particle: the heater is on while the particle's last sampled
    temperature is strictly below the set point, the Kalman prediction runs
    with that input held constant over the step, the temperature marginal is
    sampled, and the Gaussian is conditioned on that sample.  All particles
    share G, Q, the covariance and the gain K; with H = e_0 and no noise,
    particle i's innovation is sd z_i (sd^2 the temperature variance, z_i
    its draw), so conditioning adds g z^T with g = K sd.  A step reads only
    the temperatures, so the means move once per block of B = max(1, C // 2)
    steps: the (C + 2B, P) bank holds the means at the block start (before
    their last conditioning) and a draw row z and a heater row per step; the
    means are R @ bank[:n], R's n columns I (n = C) at the block start and
    [G R | G g | b] after a step.  A step forms the temperatures R[0] @ bank[:n],
    at most 2 (C + 2B) P flops; a block ends, after B steps or at a jump, in
    bank[:C] = R @ bank, 2 C (C + 2B) P flops.  The covariance, G g and g
    take `predict` and `update`, O(C^3) per step.

    `draws` (`particle_draws`) is an (n_particles, n_steps) block, only read,
    so the methods predicted on one dataset share one block; row i holds
    particle i's normals.  The k-th conditioning step consumes column k; a
    step that does not (a vanishing temperature variance) consumes none, zeroing g and z.

    Returns one record per step: the (mean, var) of the equal-weight mixture
    of the temperature marginals after the prediction; var adds the mean
    squared deviation of the particle temperatures from that mean.
    """
    if n_particles < 1:
        raise InvalidParameterError("need at least one particle")
    setpoints = np.asarray(setpoints, dtype=float)
    if setpoints.shape != (n_steps + 1,):
        raise InvalidParameterError(f"{setpoints.size} set points for a pass of {n_steps} "
                                    f"steps; it needs {n_steps + 1}")
    if np.isnan(setpoints).any():
        raise InvalidParameterError("setpoint must not be NaN")
    if draws.shape != (n_particles, n_steps):
        raise InvalidParameterError(f"particle draws of shape {draws.shape}; the pass needs "
                                    f"{(n_particles, n_steps)}")
    columns = iter(draws.T)
    c = mean.size
    bank = np.zeros((c + 2 * max(1, c // 2), n_particles))  # a block of max(1, C // 2) steps
    bank[:c] = mean[:, None]
    bank[c + 1] = mean[0] < setpoints[0]  # the heater from the known initial temperature
    no_gain, temperature, no_noise = np.zeros(c), np.eye(1, c), np.zeros((1, 1))
    gain, response, n = no_gain, np.eye(c, len(bank)), c  # the means are R[:, :n] @ bank[:n]

    records = []
    for k, sp in enumerate(setpoints[1:], start=1):
        transition, noise, input_on = step(k, None)
        response[:, n], cov = predict(gain, cov, transition, noise)
        response[:, :n] = np.dot(transition, response[:, :n])
        response[:, n + 1] = 0.0 if input_on is None else input_on
        n += 2
        if n == len(bank) or k in changepoints:  # flush the block into the means
            for j in range(0, n_particles, 256):  # by panels, with no (C, P) temporary
                bank[:c, j:j + 256] = np.dot(response[:, :n], bank[:n, j:j + 256])
            response[:, :c], n = np.eye(c), c
            if k in changepoints:
                means, cov = jump(bank[:c].T, cov)
                bank[:c] = means.T

        var_t = float(cov[0, 0])
        m_t = np.dot(response[0, :n], bank[:n])
        mix_mean = float(np.add.reduce(m_t) / n_particles)
        dev = m_t - mix_mean
        records.append((mix_mean, var_t + float(np.add.reduce(dev * dev) / n_particles)))

        if var_t > 1e-14:
            sd, bank[n] = math.sqrt(var_t), next(columns)
            gain, cov, _ = update(no_gain, cov, temperature, no_noise, [sd])
        else:
            sd, gain, bank[n] = 0.0, no_gain, 0.0
        bank[n + 1] = m_t + sd * bank[n] < sp

    return records
