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
from dataclasses import dataclass, replace

import numpy as np

from .. import eigenbasis as eb
from .. import learn, lfm, lti
from ..errors import ContractViolationError, InvalidParameterError
from ..filtering import GaussianState, update
from .synth import DAY_MINUTES, daily_basis, draw_ou, draw_periodic_force, periodic_roster, score

__all__ = [
    "QueueGenConfig",
    "QueueDataset",
    "queue_linearize",
    "queue_simulate",
    "generate_queue_data",
    "queue_fit",
    "queue_track",
    "QUEUE_METHODS",
]

QUEUE_METHODS = ("hart", "with", "quasi-cqm", "quasi-sqm", "quasi-wqm")


def queue_linearize(omega: float, lbar: float) -> float:
    """Local drift coefficient -Omega / (1 + Lbar) of the PSFFA."""
    if lbar < 0.0:
        raise ContractViolationError("conditional mean queue length must be >= 0")
    return -omega / (1.0 + lbar)


def queue_simulate(times, arrival, omega, l0: float, substep: float = 0.25) -> np.ndarray:
    """Integrate the nonlinear PSFFA with classical RK4 at fixed substeps.

    `arrival` and `omega` are functions of time that take an array of times
    (a constant function may return a scalar).  Each is called once, on the
    RK4 stage times of the whole record: the start, midpoint and end of
    every substep, where the substep starts accumulate as `t += h` from each
    grid time.  The integration then runs over Python floats.  The queue
    length is clamped at zero after every substep (the mean-queue equation
    can otherwise go negative under negative arrival rates).  The substep
    must resolve the fastest service time constant (1/omega) for RK4
    stability.
    """
    times = np.asarray(times, dtype=float)
    if substep <= 0.0:
        raise InvalidParameterError("substep must be > 0")

    starts, widths, last = [], [], []
    for t, t_end in zip(times[:-1].tolist(), times[1:].tolist()):
        n_sub = max(1, int(round((t_end - t) / substep)))
        h = (t_end - t) / n_sub
        for _ in range(n_sub):
            starts.append(t)
            widths.append(h)
            t += h
        last.append(len(starts) - 1)
    starts, widths = np.array(starts), np.array(widths)
    stages = (starts, starts + 0.5 * widths, starts + widths)
    zeta = [np.broadcast_to(arrival(s), s.shape).tolist() for s in stages]
    rate = [np.broadcast_to(omega(s), s.shape).tolist() for s in stages]

    state = float(l0)
    path = []
    for h, z0, zm, z1, w0, wm, w1 in zip(widths.tolist(), *zeta, *rate):
        # the service term is only meaningful for non-negative queues; the
        # clamp (max(l, 0), spelled out) also keeps RK4 stages away from the
        # pole at l = -1
        lc = 0.0 if state < 0.0 else state
        k1 = -w0 * lc / (1.0 + lc) + z0
        lc = state + 0.5 * h * k1
        lc = 0.0 if lc < 0.0 else lc
        k2 = -wm * lc / (1.0 + lc) + zm
        lc = state + 0.5 * h * k2
        lc = 0.0 if lc < 0.0 else lc
        k3 = -wm * lc / (1.0 + lc) + zm
        lc = state + h * k3
        lc = 0.0 if lc < 0.0 else lc
        k4 = -w1 * lc / (1.0 + lc) + z1
        state = state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if state < 0.0:
            state = 0.0
        path.append(state)
    out = np.empty(times.size)
    out[0] = l0
    out[1:] = np.array(path)[last]
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
    omega: object                # t -> service rate, for scalar or array t
    config: QueueGenConfig


def _omega_profile(config: QueueGenConfig):
    """Service rate as a function of time: `omega_train` until the test day,
    then the `omega_test` pieces (each from its start minute in the day).
    The function takes a scalar or an array of times; a scalar gives a
    scalar."""
    test_start = (config.days - 1) * DAY_MINUTES
    pieces = sorted(config.omega_test)

    def omega(t):
        t = np.asarray(t, dtype=float)
        rate = np.full(t.shape, float(config.omega_train))
        within = t - test_start
        for start, r in pieces:
            rate[(t >= test_start) & (within >= start)] = r
        return rate if rate.ndim else float(rate)

    return omega


def _draw_rate(config: QueueGenConfig, grid: np.ndarray, rng) -> np.ndarray:
    """Zero-mean arrival-rate draw on `grid` from the configured prior."""
    if config.kind == "hart":
        return config.sigma_p * draw_ou(grid, 1.0, config.ell_t, rng)
    return draw_periodic_force(
        grid, daily_basis(config.sigma_p, config.ell_p, config), config.kind, rng,
        ell_q=config.ell_q, xi=config.xi,
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
        # linear interpolation of the 1-minute record, written out rather
        # than np.interp so that the arithmetic is fixed
        i = np.minimum(t.astype(int), rate_fine.size - 2)
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


def _queue_model(kind: str, params: dict, config: QueueGenConfig) -> lfm.AugmentedModel:
    """State (queue length, arrival-rate states): an OU force for "hart",
    eigenfunction weights of a periodic arrival rate otherwise.  The target
    drift is relinearized at every step, so the model holds only the forces,
    the prior, the day-boundary jumps and the measurement."""
    coupling = np.array([1.0])
    nonperiodic, periodic, changepoints = [], [], ()
    if kind == "hart":
        blk = lti.matern12_block(params["sigma_f"], params["ell_f"])
        nonperiodic = [lfm.NonPeriodicForce(blk, coupling)]
    else:
        force, changepoints = periodic_roster(
            kind, params["sigma_p"], params["ell_p"], params, config, coupling
        )
        periodic = [force]
    model = lfm.assemble(
        lfm.TargetModel(np.zeros((1, 1))),
        nonperiodic=nonperiodic,
        periodic=periodic,
        changepoints=changepoints,
    )
    lfm.set_measurement(model, np.eye(1, model.dim), [[params["sigma_obs"] ** 2]])
    return model


def _predict(model, mean, cov, f: float, dt: float, phi):
    """Closed-form step of the model relinearized to dL/dt = f L + force.

    The OU force (hart) and OU weights (cqm, coupling frozen at the step-start
    eigenfunction row `phi`) use `_ou_target_step` with the rate c and the
    diffusion read from the model; constant weights use the exact quadrature
    coupling with `phi` the (n_nodes, J) rows at the Gauss nodes of the step.
    """
    if model.nonperiodic:
        c = -model.nonperiodic[0].block.drift[0, 0]
        e_f, g, e_u, q11, q12, q22 = _ou_target_step(f, c, model.diffusion[1, 1], dt)
        gm = np.array([[e_f, g], [0.0, e_u]])
        q = np.array([[q11, q12], [q12, q22]])
        return gm @ mean, gm @ cov @ gm.T + q
    a, b, w = cov[0, 0], cov[0, 1:], cov[1:, 1:]
    c = -model.weight_rates[0]
    if c > 0.0:
        e_f, g_unit, e_u, q11_u, q12_u, q22_u = _ou_target_step(f, c, 1.0, dt)
        coupling = phi * g_unit
        qd = np.diag(model.diffusion)[1:]
        q11 = float(np.sum(qd * phi**2)) * q11_u
        q1w = qd * phi * q12_u
        wc = w @ coupling
        new_a = e_f**2 * a + 2.0 * e_f * (coupling @ b) + coupling @ wc + q11
        new_b = e_u * (e_f * b + wc) + q1w
        new_w = e_u**2 * w + np.diag(qd * q22_u)
        new_mean = np.concatenate([[e_f * mean[0] + coupling @ mean[1:]], e_u * mean[1:]])
    else:
        e_f = math.exp(f * dt)
        props = np.exp(f * dt * (1.0 - _GAUSS_X))
        coupling = (dt * _GAUSS_W * props) @ phi
        wc = w @ coupling
        new_a = e_f**2 * a + 2.0 * e_f * (coupling @ b) + coupling @ wc
        new_b = e_f * b + wc
        new_w = w
        new_mean = np.concatenate([[e_f * mean[0] + coupling @ mean[1:]], mean[1:]])
    new_cov = np.empty_like(cov)
    new_cov[0, 0] = new_a
    new_cov[0, 1:] = new_b
    new_cov[1:, 0] = new_b
    new_cov[1:, 1:] = new_w
    return new_mean, new_cov


def _run_queue_filter(model, dataset: QueueDataset, emit_from: float | None):
    """One full filtering pass; returns (loglik, emitted records).  Jumps and
    measurements are looked up by integer step index, so a measurement time
    off the step grid raises `ContractViolationError` instead of being
    dropped.  The service rate is evaluated on the step grid once."""
    dt = dataset.config.step
    times = dataset.times
    n_steps = times.size - 1
    jumps = set(lfm.changepoint_steps(model, times[0], dt, n_steps).tolist())
    meas_steps = lfm.grid_steps(dataset.meas_times, times[0], dt, n_steps, "measurement")
    meas = dict(zip(meas_steps.tolist(), dataset.meas_values))

    # only the eigenfunction rows `_predict` reads, for one cycle of steps:
    # step k reads those of step k mod n_cycle
    n_cycle = lfm.cycle_steps(model, dt)
    phi = None
    if model.periodic:
        basis = model.periodic[0].basis
        starts = times[: min(n_cycle, n_steps)]
        if lfm.has_constant_weights(model):
            node_times = (starts[:, None] + dt * _GAUSS_X[None, :]).ravel()
            phi = eb.eigenfunction_matrix(basis, node_times).reshape(starts.size, _GAUSS_X.size, -1)
        else:
            phi = eb.eigenfunction_matrix(basis, starts)

    omega = dataset.omega(times[:n_steps]).tolist()
    state = lfm.initial_state(model, [0.0], [[25.0]])
    mean, cov = state.mean, state.cov
    loglik = 0.0
    records = []
    for k in range(n_steps):
        f = queue_linearize(omega[k], max(mean[0], 0.0))
        mean, cov = _predict(model, mean, cov, f, dt, None if phi is None else phi[k % n_cycle])
        t1 = times[k + 1]
        if k + 1 in jumps:
            means, cov = lfm.apply_changepoint_moments(model, mean[None, :], cov)
            mean = means[0]
        if emit_from is not None and t1 > emit_from + 1e-9:
            records.append((t1, mean[0], cov[0, 0]))
        y = meas.get(k + 1)
        if y is not None:
            res = update(GaussianState(mean, cov, t1), model.measurement_matrix,
                         model.measurement_noise, [y])
            mean, cov = res.state.mean, res.state.cov
            loglik += res.log_density
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
        loglik, _ = _run_queue_filter(_queue_model(kind, p, dataset.config), train, None)
        return loglik

    return learn.fit(objective, _param_space(kind, dataset), budget=budget,
                     restarts=restarts, seed=seed)


def queue_track(dataset: QueueDataset, kind: str, params: dict) -> dict:
    """Track the full record and score the held-out day (`synth.score`).

    The scores compare the predictive marginal of the queue length (after
    each prediction step, before any update at that time) against the
    simulated truth over the test day.
    """
    _param_space(kind, dataset).check(params, kind)
    model = _queue_model(kind, params, dataset.config)
    _, records = _run_queue_filter(model, dataset, emit_from=dataset.test_start)
    times, mean, var = zip(*records)
    out = score(times, mean, var, dataset.times, dataset.truth_queue)
    out["n_basis"] = model.dim - model.layout.dim_za
    return out
