"""Second-order resonator basis models.

A resonator obeys d^2 psi/dt^2 = A psi + B dpsi/dt (+ white noise).  A
constant-coefficient bank of resonators plus a bias (`resonator_bank`) is
fitted to data by maximum likelihood.  The fit runs on the engine: the bank
is assembled by `lfm`, stepped by `lfm.pass_steps` on one `lfm.step_cycle`
and filtered by `filtering.predict`/`update`.  Thermal's "resonator" roster
entry builds its residual force from the same bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import learn, lfm, lti
from ..errors import InvalidParameterError
from ..filtering import GaussianState, predict, update

__all__ = [
    "ResonatorModel",
    "resonator_block",
    "resonator_bank",
    "resonator_fit",
]


@dataclass
class ResonatorModel:
    """Constant-coefficient resonator bank: one (frequency, decay) pair per
    resonator plus a constant bias state."""

    frequencies: np.ndarray   # (J,)
    decays: np.ndarray        # (J,) decay coefficients B_j <= 0
    diffusion: float          # white-noise spectral density per resonator
    noise_variance: float     # observation noise of the fitted series
    init_variance: float      # prior variance budget for the states

    @property
    def n_resonators(self) -> int:
        return self.frequencies.size


def resonator_block(frequency: float, decay: float, diffusion: float) -> lti.LtiSde:
    """LTI block of one resonator: state (psi, dpsi/dt)."""
    if decay > 0.0:
        raise InvalidParameterError("decay coefficient must be <= 0")
    return lti.LtiSde(
        drift=np.array([[0.0, 1.0], [-((2.0 * np.pi * frequency) ** 2), decay]]),
        noise=np.array([[0.0], [1.0]]),
        diffusion=diffusion,
        extract=np.array([1.0, 0.0]),
    )


def resonator_bank(freqs, decays, diffusion: float, coupling) -> list[lfm.NonPeriodicForce]:
    """Resonator bank as `lfm` forces: one `resonator_block` per (frequency,
    decay) pair, then the constant bias block, each feeding the target
    through `coupling`."""
    forces = [
        lfm.NonPeriodicForce(resonator_block(f, b, diffusion), coupling)
        for f, b in zip(freqs, decays)
    ]
    forces.append(lfm.NonPeriodicForce(lti.constant_weight_block(), coupling))
    return forces


def _resonator_loglik(
    times: np.ndarray,
    values: np.ndarray,
    freqs: np.ndarray,
    decays: np.ndarray,
    diffusion: float,
    noise_variance: float,
    init_variance: float,
) -> float:
    """Kalman log-likelihood of evenly spaced `values` observed as the sum of
    the resonator bank (no target states), under a diagonal prior that shares
    `init_variance` equally between the resonators and the bias."""
    model = lfm.assemble(
        lfm.TargetModel(np.zeros((0, 0))),
        nonperiodic=resonator_bank(freqs, decays, diffusion, np.zeros(0)),
    )
    h = sum(lfm.nonperiodic_force_row(model, i) for i in range(len(model.nonperiodic)))[None, :]
    share = init_variance / (freqs.size + 1)
    prior = np.full(model.dim, share)
    prior[1:-1:2] *= (2.0 * np.pi * freqs) ** 2
    noise = [[noise_variance]]

    res = update(GaussianState(np.zeros(model.dim), np.diag(prior), times[0]), h, noise, [values[0]])
    loglik = res.log_density
    dt = (times[-1] - times[0]) / (times.size - 1)
    steps = lfm.pass_steps(lfm.step_cycle(model, times[0], dt), times[0], times.size - 1)
    for step, y in zip(steps, values[1:]):
        res = update(predict(res.state, step.transition, step.noise, t_new=step.t), h, noise, [y])
        loglik += res.log_density
    return loglik


def resonator_fit(
    times,
    values,
    n_resonators: int,
    period: float,
    budget: int = 400,
    seed: int = 0,
    restarts: int = 1,
) -> tuple[ResonatorModel, learn.FitResult]:
    """Fit frequencies and decay coefficients of a resonator bank by maximum
    likelihood, starting from distinct contiguous multiples of 1/period.
    The series must be observed at two or more evenly spaced times."""
    if n_resonators < 1:
        raise InvalidParameterError("need at least one resonator")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise InvalidParameterError("values must have one entry per time")
    gaps = np.diff(times)
    if gaps.size == 0 or not (gaps[0] > 0.0 and np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0)):
        raise InvalidParameterError("times must be two or more evenly spaced, increasing points")
    scale = float(np.var(values)) or 1.0

    params = []
    f_hi = 2.0 * n_resonators / period
    for j in range(n_resonators):
        init = (j + 1.0) / period
        params.append(learn.Param(f"freq_{j}", 1e-3 / period, f_hi, init))
        params.append(learn.Param(f"decay_{j}", 1e-8 / period, 20.0 / period, 1e-6 / period))
    params.append(learn.Param("diffusion", 1e-12 * scale, 10.0 * scale, 1e-6 * scale))
    params.append(learn.Param("noise_variance", 1e-8 * scale, scale, 1e-2 * scale))
    space = learn.ParamSpace(tuple(params))

    def objective(p: dict[str, float]) -> float:
        freqs = np.array([p[f"freq_{j}"] for j in range(n_resonators)])
        decays = -np.array([p[f"decay_{j}"] for j in range(n_resonators)])
        return _resonator_loglik(
            times, values, freqs, decays, p["diffusion"], p["noise_variance"], scale
        )

    result = learn.fit(objective, space, budget=budget, restarts=restarts, seed=seed)
    best = result.params
    model = ResonatorModel(
        frequencies=np.array([best[f"freq_{j}"] for j in range(n_resonators)]),
        decays=-np.array([best[f"decay_{j}"] for j in range(n_resonators)]),
        diffusion=best["diffusion"],
        noise_variance=best["noise_variance"],
        init_variance=scale,
    )
    return model, result
