"""Queue-length tracking with quasi-periodic arrival-rate forces.

The mean queue length of an M/M/1 queue follows the pointwise stationary
fluid flow approximation (PSFFA)

    dL/dt = -Omega(t) L / (1 + L) + zeta(t),

with service rate Omega and mean arrival rate zeta.  The arrival rate is a
latent force with a periodic or quasi-periodic GP prior; tracking linearizes
the drift around the current filtered mean once per step.

Ground truth is always simulated from the full nonlinear equation; the
linearization is used only inside the filter.  Time is in minutes and the
cycle period is one day (1440 minutes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .. import eigenbasis as eb
from .. import kernels, learn, lfm, lti
from ..errors import ContractViolationError, InvalidParameterError
from ..filtering import GaussianState, update
from .synth import draw_ou, draw_periodic_force

__all__ = [
    "DAY_MINUTES",
    "QueueGenConfig",
    "QueueDataset",
    "queue_linearize",
    "queue_simulate",
    "generate_queue_data",
    "queue_fit",
    "queue_track",
    "QUEUE_METHODS",
]

DAY_MINUTES = 1440.0
QUEUE_METHODS = ("hart", "with", "quasi-cqm", "quasi-sqm", "quasi-wqm")


def queue_linearize(omega: float, lbar: float) -> float:
    """Local drift coefficient -Omega / (1 + Lbar) of the PSFFA."""
    if lbar < 0.0:
        raise ContractViolationError("conditional mean queue length must be >= 0")
    return -omega / (1.0 + lbar)


def queue_simulate(times, arrival, omega, l0: float, substep: float = 0.25) -> np.ndarray:
    """Integrate the nonlinear PSFFA with classical RK4 at fixed substeps.

    `arrival` and `omega` are callables of time; the queue length is clamped
    at zero after every substep (the mean-queue equation can otherwise go
    negative under negative arrival rates).  The substep must resolve the
    fastest service time constant (1/omega) for RK4 stability.
    """
    times = np.asarray(times, dtype=float)
    if substep <= 0.0:
        raise InvalidParameterError("substep must be > 0")

    def rhs(t, l):
        # the service term is only meaningful for non-negative queues; the
        # clamp also keeps RK4 stages away from the pole at l = -1
        lc = max(l, 0.0)
        return -omega(t) * lc / (1.0 + lc) + arrival(t)

    out = np.empty(times.size)
    state = float(l0)
    out[0] = state
    for k in range(times.size - 1):
        t, t_end = times[k], times[k + 1]
        n_sub = max(1, int(round((t_end - t) / substep)))
        h = (t_end - t) / n_sub
        for _ in range(n_sub):
            k1 = rhs(t, state)
            k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = rhs(t + h, state + h * k3)
            state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            state = max(state, 0.0)
            t += h
        out[k + 1] = state
    return out


@dataclass(frozen=True)
class QueueGenConfig:
    """Synthetic arrival-rate generator settings."""

    kind: str = "quasi-sqm"        # force prior used to draw arrivals
    days: int = 4                  # train days plus one test day
    mean_peak: float = 7.0         # peak of the diurnal mean arrival profile
    mean_hour: float = 10.0        # hour of day at which the mean peaks
    mean_width_h: float = 2.2      # Gaussian width (hours) of the profile
    sigma_p: float = 1.2           # periodic Matern output scale
    ell_p: float = 0.4             # periodic Matern phase scale
    ell_q: float = 2.0             # inter-cycle scale (cqm/sqm, in cycles)
    xi: float = 4.0                # variance increment per cycle (wqm)
    ell_t: float = 180.0           # time scale for the plain Matern kind
    omega_train: float = 10.0
    omega_test: tuple[tuple[float, float], ...] = ()  # (start_min_in_day, rate)
    step: float = 2.0
    obs_noise: float = 0.5         # measurement noise std deviation
    train_meas_every: float = 40.0
    test_meas_every: float = 180.0
    n_basis_points: int = 100
    gamma: float = 0.01


@dataclass
class QueueDataset:
    times: np.ndarray            # filter grid, step-spaced over all days
    truth_queue: np.ndarray      # simulated mean queue length on `times`
    rate_times: np.ndarray       # 5-minute grid for the arrival-rate record
    rate_values: np.ndarray
    meas_times: np.ndarray
    meas_values: np.ndarray
    test_start: float            # beginning of the held-out day
    omega: object                # callable t -> service rate
    config: QueueGenConfig


def _omega_profile(config: QueueGenConfig):
    test_start = (config.days - 1) * DAY_MINUTES
    pieces = sorted(config.omega_test)

    def omega(t):
        if t < test_start or not pieces:
            return config.omega_train
        within = t - test_start
        rate = config.omega_train
        for start, r in pieces:
            if within >= start:
                rate = r
        return rate

    return omega


def _draw_rate(config: QueueGenConfig, grid: np.ndarray, rng) -> np.ndarray:
    """Zero-mean arrival-rate draw on `grid` from the configured prior."""
    if config.kind == "hart":
        return config.sigma_p * draw_ou(grid, 1.0, config.ell_t, rng)
    kernel = kernels.PeriodicMatern(0.5, config.sigma_p, config.ell_p, DAY_MINUTES)
    basis = eb.build(kernel, config.n_basis_points, DAY_MINUTES, config.gamma)
    return draw_periodic_force(
        grid, basis, config.kind, rng, ell_q=config.ell_q, xi=config.xi
    )


def generate_queue_data(config: QueueGenConfig, seed: int) -> QueueDataset:
    """Simulate arrivals, the true queue, and the measurement record."""
    if config.days < 2:
        raise InvalidParameterError("need at least one training day plus the test day")
    rng = np.random.default_rng(seed)
    horizon = config.days * DAY_MINUTES
    times = np.arange(0.0, horizon + 1e-9, config.step)
    rate_grid = np.arange(0.0, horizon + 1e-9, 5.0)

    fine = np.arange(0.0, horizon + 1e-9, 1.0)
    hod = (fine % DAY_MINUTES) / 60.0
    mean_profile = config.mean_peak * np.exp(
        -0.5 * ((hod - config.mean_hour) / config.mean_width_h) ** 2
    )
    rate_fine = mean_profile + _draw_rate(config, fine, rng)
    omega = _omega_profile(config)

    def arrival(t):
        i = min(int(t), rate_fine.size - 2)
        frac = t - i
        return (1.0 - frac) * rate_fine[i] + frac * rate_fine[i + 1]

    truth = queue_simulate(times, arrival, omega, l0=0.0)

    test_start = (config.days - 1) * DAY_MINUTES
    train_times = np.arange(config.train_meas_every, test_start + 1e-9,
                            config.train_meas_every)
    test_times = np.arange(test_start + config.test_meas_every, horizon + 1e-9,
                           config.test_meas_every)
    meas_times = np.concatenate([train_times, test_times])
    queue_at = np.interp(meas_times, times, truth)
    meas_values = queue_at + config.obs_noise * rng.standard_normal(meas_times.size)

    return QueueDataset(
        times=times,
        truth_queue=truth,
        rate_times=rate_grid,
        rate_values=np.interp(rate_grid, fine, rate_fine),
        meas_times=meas_times,
        meas_values=meas_values,
        test_start=test_start,
        omega=omega,
        config=config,
    )


# ---------------------------------------------------------------------------
# filtering
#
# The per-step propagation below specializes the generic transitions for a
# scalar relinearized target: `constant_weight_transition` for constant
# weights (exact) and the frozen-coupling exponential for OU weights and the
# non-periodic force.  Both are checked against the generic model code in the
# test suite.
# ---------------------------------------------------------------------------


def _int_exp(a: float, dt: float) -> float:
    """(exp(a dt) - 1) / a, robust at a -> 0."""
    x = a * dt
    if abs(x) < 1e-8:
        return dt * (1.0 + 0.5 * x + x * x / 6.0)
    return math.expm1(x) / a


def _ou_target_step(f: float, c: float, q: float, dt: float):
    """Exact one-step (G, Q) of dL/dt = f L + u, du/dt = -c u + noise(q).

    Returns (e_f, g_cross, e_u, q11, q12, q22) with G = [[e_f, g_cross],
    [0, e_u]].
    """
    e_f = math.exp(f * dt)
    e_u = math.exp(-c * dt)
    d = f + c
    if abs(d) * dt > 1e-7:
        g_cross = e_u * _int_exp(d, dt)
        i_2f = _int_exp(2.0 * f, dt)
        i_fc = _int_exp(f - c, dt)
        i_2c = _int_exp(-2.0 * c, dt)
        q11 = q / d**2 * (i_2f - 2.0 * i_fc + i_2c)
        q12 = q / d * (i_fc - i_2c)
    else:
        # f ~ -c: the cross response degenerates to u exp(f u); here |f| dt
        # is small, so fixed-order quadrature of the smooth integrand is exact
        # to round-off
        g_cross = dt * e_f
        u = dt * _GAUSS_X
        gu = u * np.exp(f * u)
        q11 = q * dt * float(_GAUSS_W @ gu**2)
        q12 = q * dt * float(_GAUSS_W @ (gu * np.exp(-c * u)))
    q22 = q * _int_exp(-2.0 * c, dt)
    return e_f, g_cross, e_u, q11, q12, q22


_GAUSS_X, _GAUSS_W = lfm.gauss_nodes(8)


@dataclass
class _QueueFilter:
    """Scalar-target filter over (queue length, arrival-rate states)."""

    kind: str
    basis: eb.EigenBasis | None
    jump: lti.JumpModel | None
    mu_scaled: np.ndarray | None   # weight prior variances (quasi kinds)
    weight_rate: float             # OU rate of the weights (cqm), else 0
    weight_diffusion: np.ndarray | None  # per-weight OU diffusion (cqm)
    force_sigma: float             # hart force scale
    force_ell: float               # hart force time scale
    obs_noise_var: float
    step: float

    mean: np.ndarray = field(init=False)
    cov: np.ndarray = field(init=False)

    def reset(self):
        if self.kind == "hart":
            dim = 2
            prior = np.array([25.0, self.force_sigma**2])
        else:
            dim = 1 + self.mu_scaled.size
            prior = np.concatenate([[25.0], self.mu_scaled])
        self.mean = np.zeros(dim)
        self.cov = np.diag(prior)

    def predict(self, t0: float, f: float, phi_nodes: np.ndarray | None,
                phi_t0: np.ndarray | None):
        dt = self.step
        m, p = self.mean, self.cov
        if self.kind == "hart":
            e_f, g, e_u, q11, q12, q22 = _ou_target_step(
                f, 1.0 / self.force_ell, 2.0 * self.force_sigma**2 / self.force_ell, dt
            )
            gm = np.array([[e_f, g], [0.0, e_u]])
            q = np.array([[q11, q12], [q12, q22]])
            self.mean = gm @ m
            self.cov = gm @ p @ gm.T + q
            return
        if self.weight_rate > 0.0:
            # frozen-coupling step for OU weights
            c = self.weight_rate
            e_f, g_unit, e_u, q11_u, q12_u, q22_u = _ou_target_step(f, c, 1.0, dt)
            coupling = phi_t0 * g_unit
            qd = self.weight_diffusion
            q11 = float(np.sum(qd * phi_t0**2)) * q11_u
            q1w = qd * phi_t0 * q12_u
            qww = qd * q22_u
            a, b, w = p[0, 0], p[0, 1:], p[1:, 1:]
            wc = w @ coupling
            new_a = e_f**2 * a + 2.0 * e_f * (coupling @ b) + coupling @ wc
            new_b = e_u * (e_f * b + wc)
            new_w = e_u**2 * w + np.diag(qww)
            self.mean = np.concatenate(
                [[e_f * m[0] + coupling @ m[1:]], e_u * m[1:]]
            )
            self.cov = np.block(
                [[np.array([[new_a + q11]]), (new_b + q1w)[None, :]],
                 [(new_b + q1w)[:, None], new_w]]
            )
            return
        # constant weights: exact quadrature coupling
        e_f = math.exp(f * dt)
        props = np.exp(f * dt * (1.0 - _GAUSS_X))
        coupling = (dt * _GAUSS_W * props) @ phi_nodes
        a, b, w = p[0, 0], p[0, 1:], p[1:, 1:]
        wc = w @ coupling
        new_a = e_f**2 * a + 2.0 * e_f * (coupling @ b) + coupling @ wc
        new_b = e_f * b + wc
        self.mean = np.concatenate([[e_f * m[0] + coupling @ m[1:]], m[1:]])
        self.cov = np.block(
            [[np.array([[new_a]]), new_b[None, :]], [new_b[:, None], w]]
        )

    def changepoint(self):
        if self.jump is None:
            return
        g, qv = self.jump.gain, self.jump.noise_var
        self.mean[1:] *= g
        self.cov[1:, :] *= g
        self.cov[:, 1:] *= g
        idx = np.arange(1, self.mean.size)
        self.cov[idx, idx] += self.mu_scaled * qv

    def measure(self, y: float) -> float:
        h = np.zeros((1, self.mean.size))
        h[0, 0] = 1.0
        res = update(
            GaussianState(self.mean, self.cov, 0.0), h, [[self.obs_noise_var]], [y]
        )
        self.mean, self.cov = res.state.mean, res.state.cov
        return res.log_density


def _make_filter(kind: str, params: dict, config: QueueGenConfig) -> _QueueFilter:
    if kind not in QUEUE_METHODS:
        raise InvalidParameterError(f"unknown queue method {kind!r}")
    obs_var = params["sigma_obs"] ** 2
    if kind == "hart":
        return _QueueFilter(
            kind, None, None, None, 0.0, None,
            params["sigma_f"], params["ell_f"], obs_var, config.step,
        )
    kernel = kernels.PeriodicMatern(0.5, params["sigma_p"], params["ell_p"], DAY_MINUTES)
    basis = eb.build(kernel, config.n_basis_points, DAY_MINUTES, config.gamma)
    mu = basis.scaled_eigenvalues()
    jump = None
    weight_rate = 0.0
    weight_diffusion = None
    if kind == "quasi-sqm":
        jump = lti.sqm_jump(1.0, params["ell_q"])
    elif kind == "quasi-wqm":
        jump = lti.wqm_jump(params["xi"])
    elif kind == "quasi-cqm":
        weight_rate = 1.0 / (params["ell_q"] * DAY_MINUTES)
        weight_diffusion = mu * 2.0 * weight_rate
    return _QueueFilter(
        kind, basis, jump, mu, weight_rate, weight_diffusion,
        0.0, 1.0, obs_var, config.step,
    )


def _run_queue_filter(filt: _QueueFilter, dataset: QueueDataset, emit_from: float | None):
    """One full filtering pass; returns (loglik, emitted records)."""
    config = dataset.config
    times = dataset.times
    meas = dict(zip(dataset.meas_times, dataset.meas_values))
    quasi = filt.kind != "hart"

    phi_nodes = phi_steps = None
    if quasi:
        n_steps = times.size - 1
        node_times = (times[:-1, None] + config.step * _GAUSS_X[None, :]).ravel()
        phi_nodes = eb.eigenfunction_matrix(filt.basis, node_times).reshape(
            n_steps, _GAUSS_X.size, -1
        )
        phi_steps = eb.eigenfunction_matrix(filt.basis, times[:-1])

    filt.reset()
    loglik = 0.0
    records = []
    for k in range(times.size - 1):
        t0, t1 = times[k], times[k + 1]
        f = queue_linearize(dataset.omega(t0), max(filt.mean[0], 0.0))
        filt.predict(
            t0, f,
            phi_nodes[k] if quasi else None,
            phi_steps[k] if quasi else None,
        )
        if quasi and (t1 % DAY_MINUTES) < 1e-9 and t1 < times[-1] - 1e-9:
            filt.changepoint()
        if emit_from is not None and t1 > emit_from + 1e-9:
            records.append((t1, filt.mean[0], filt.cov[0, 0]))
        y = meas.get(t1)
        if y is not None:
            loglik += filt.measure(y)
    return loglik, records


def _param_space(kind: str, dataset: QueueDataset) -> learn.ParamSpace:
    scale = float(np.clip(np.std(dataset.meas_values), 1.0, 20.0))
    params = [learn.Param("sigma_obs", 0.05, 5.0, 0.7)]
    if kind == "hart":
        params += [
            learn.Param("sigma_f", 0.05, 50.0, scale),
            learn.Param("ell_f", 2.0, 2880.0, 120.0),
        ]
    else:
        params += [
            learn.Param("sigma_p", 0.1, 30.0, scale),
            # lower bound keeps the significant-basis count at or below 30
            learn.Param("ell_p", 0.35, 1.5, 0.5),
        ]
        if kind in ("quasi-sqm", "quasi-cqm"):
            params.append(learn.Param("ell_q", 0.3, 20.0, 2.0))
        elif kind == "quasi-wqm":
            params.append(learn.Param("xi", 1e-3, 50.0, 1.0))
    return learn.ParamSpace(tuple(params))


def queue_fit(
    dataset: QueueDataset,
    kind: str,
    budget: int = 60,
    seed: int = 0,
    restarts: int = 1,
) -> learn.FitResult:
    """Maximum-likelihood hyperparameters from the training-day measurements."""
    train = replace(
        dataset,
        times=dataset.times[dataset.times <= dataset.test_start + 1e-9],
        meas_times=dataset.meas_times[dataset.meas_times <= dataset.test_start],
        meas_values=dataset.meas_values[dataset.meas_times <= dataset.test_start],
    )

    def objective(p: dict) -> float:
        filt = _make_filter(kind, p, dataset.config)
        loglik, _ = _run_queue_filter(filt, train, emit_from=None)
        return loglik

    return learn.fit(objective, _param_space(kind, dataset), budget=budget,
                     restarts=restarts, seed=seed)


def queue_track(dataset: QueueDataset, kind: str, params: dict) -> dict:
    """Track the full record and score the held-out day.

    RMSE and expected log-likelihood compare the predictive marginal of the
    queue length (after each prediction step, before any update at that
    time) against the simulated truth over the test day.
    """
    _param_space(kind, dataset).check(params, kind)
    filt = _make_filter(kind, params, dataset.config)
    loglik, records = _run_queue_filter(filt, dataset, emit_from=dataset.test_start)
    pred_t = np.array([r[0] for r in records])
    pred_mean = np.array([r[1] for r in records])
    pred_var = np.maximum(np.array([r[2] for r in records]), 1e-12)
    truth = np.interp(pred_t, dataset.times, dataset.truth_queue)
    rmse = float(np.sqrt(np.mean((pred_mean - truth) ** 2)))
    ell = float(
        np.mean(
            -0.5 * np.log(2.0 * np.pi * pred_var)
            - 0.5 * (truth - pred_mean) ** 2 / pred_var
        )
    )
    n_basis = 0 if filt.kind == "hart" else filt.mu_scaled.size
    if n_basis > 30:
        raise ContractViolationError("periodic roster exceeded 30 basis functions")
    return {
        "rmse": rmse,
        "ell": ell,
        "n_basis": n_basis,
        "loglik": loglik,
        "pred_times": pred_t,
        "pred_mean": pred_mean,
        "pred_var": pred_var,
    }
