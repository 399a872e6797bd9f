"""Queue-length tracking with quasi-periodic arrival-rate forces.

The mean queue length of an M/M/1 queue follows the pointwise stationary
fluid flow approximation (PSFFA)

    dL/dt = -Omega(t) L / (1 + L) + zeta(t),

with service rate Omega and mean arrival rate zeta.  The arrival rate is a
latent force with a periodic or quasi-periodic GP prior.  Tracking is an
extended Kalman filter: `filtering.kalman_pass` asks for each step with
the filtered mean, and the step relinearizes the drift there and takes its
(G, Q) from `lfm.relinearized_steps`.

Ground truth is always simulated from the full nonlinear equation; the
linearization is used only inside the filter.  Time is in minutes and the
cycle period is one day (1440 minutes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import learn, lfm, lti
from ..errors import ContractViolationError, InvalidParameterError
from ..filtering import kalman_pass
# unused here: bench/test_bench.py::test_tracer_patches_every_binding lists this
# binding; ROADMAP item 2 drops it from that list, and then this import
from ..filtering import update  # noqa: F401
from .synth import (
    DAY_MINUTES, daily_basis, draw_ou, draw_periodic_force, held_out_start, pass_length,
    periodic_roster, roster_force, score,
)

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
    stability: h omega <= 2.78 on the linearized drift.  Every grid time
    must be finite.
    """
    times = np.asarray(times, dtype=float)
    if substep <= 0.0:
        raise InvalidParameterError("substep must be > 0")
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise InvalidParameterError(f"grid time {bad[0]} is {times[bad[0]]:g}; it must be finite")

    span = np.diff(times)
    n_sub = np.maximum(1, np.rint(span / substep)).astype(int)
    h = span / n_sub
    grid = np.empty((span.size, n_sub.max(initial=1)))
    grid[:, 0] = times[:-1]
    for j in range(1, grid.shape[1]):  # t + h + ... + h summed as `t += h`, not t + j h
        grid[:, j] = grid[:, j - 1] + h
    starts = grid[np.arange(grid.shape[1]) < n_sub[:, None]]
    widths = np.repeat(h, n_sub)
    last = np.cumsum(n_sub) - 1
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
    """A queue record and its config; `test_start` and `omega` derive from it."""

    times: np.ndarray            # filter grid, step-spaced over all days
    truth_queue: np.ndarray      # simulated mean queue length on `times`
    rate_times: np.ndarray       # 5-minute grid for the arrival-rate record
    rate_values: np.ndarray
    meas_times: np.ndarray
    meas_values: np.ndarray
    config: QueueGenConfig

    test_start = property(lambda self: held_out_start(self.config))
    omega = property(lambda self: _omega_profile(self.config))  # t -> service rate

    def __post_init__(self):  # a config of bad service rates raises here
        _omega_profile(self.config)


def _omega_profile(config: QueueGenConfig):
    """Service rate as a function of time: `omega_train` until the test day,
    then the `omega_test` pieces (each from its start minute in the day).
    The function takes a scalar or an array of times; a scalar gives a
    scalar.  A rate <= 0, or a piece that does not start in the day, raises."""
    rates = [config.omega_train, *(rate for _, rate in config.omega_test)]
    if min(rates) <= 0.0:
        raise InvalidParameterError(f"service rates must be > 0, got {rates}")
    starts = [start for start, _ in config.omega_test]
    if not all(0.0 <= start < DAY_MINUTES for start in starts):
        raise InvalidParameterError(f"omega_test start minutes must lie in the test day "
                                    f"[0, {DAY_MINUTES:g}), got {starts}")
    test_start = held_out_start(config)
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
    basis = daily_basis(config.sigma_p, config.ell_p, config)
    return draw_periodic_force(grid, roster_force(config.kind, basis, vars(config), [1.0]), rng)


def generate_queue_data(config: QueueGenConfig, seed: int) -> QueueDataset:
    """Simulate arrivals, the true queue, and the measurement record.

    The queue is integrated at substeps of min(0.25, 2.5 / omega_max)
    minutes, omega_max the fastest service rate of the record, which keeps
    RK4 stable (`queue_simulate`); at omega_max = 10 that is 0.25."""
    if config.days < 2:
        raise InvalidParameterError("need at least one training day plus the test day")
    omega = _omega_profile(config)
    omega_max = max([config.omega_train, *(rate for _, rate in config.omega_test)])
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

    def arrival(t):
        # linear interpolation of the 1-minute record, written out rather
        # than np.interp so that the arithmetic is fixed
        i = np.minimum(t.astype(int), rate_fine.size - 2)
        frac = t - i
        return (1.0 - frac) * rate_fine[i] + frac * rate_fine[i + 1]

    truth = queue_simulate(times, arrival, omega, l0=0.0, substep=min(0.25, 2.5 / omega_max))

    test_start = held_out_start(config)
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
        config=config,
    )


def _queue_model(kind: str, params: dict, config: QueueGenConfig) -> lfm.AugmentedModel:
    """State (queue length, arrival-rate states): an OU force for "hart",
    eigenfunction weights of a periodic arrival rate otherwise.  The target
    drift is relinearized at every step, so the model holds only the forces,
    the prior and the day-boundary jumps."""
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
    return lfm.assemble(
        np.zeros((1, 1)), nonperiodic=nonperiodic, periodic=periodic, changepoints=changepoints
    )


def _run_queue_filter(model, dataset: QueueDataset, sigma_obs: float, n_steps: int):
    """`filtering.kalman_pass` over the first `n_steps` steps of the dataset
    (the whole record), observing the queue length (state 0) with noise std
    `sigma_obs`; returns its (loglik, mean, cov, records), a record at each
    of `dataset.times[1:n_steps + 1]`.  Step k relinearizes the drift at the
    filtered mean and reads its `lfm.pass_schedule` slot of
    `lfm.relinearized_steps` over one cycle.  Measurements are looked up by
    integer step index on the whole grid, and those after step `n_steps`
    left out: one off the grid, repeated or outside the record raises
    `ContractViolationError`.  The service rate is evaluated once."""
    dt = dataset.config.step
    times = dataset.times
    slots, changepoints = lfm.pass_schedule(model, dt, times[0], n_steps)
    meas_steps = lfm.grid_steps(dataset.meas_times, times[0], dt, times.size - 1, "measurement")
    _, first = np.unique(meas_steps, return_index=True)
    if first.size < meas_steps.size:  # a step end takes one update
        repeated = np.delete(dataset.meas_times, first)[0]
        raise ContractViolationError(f"measurements repeat minute {repeated:g}")

    relinearized = lfm.relinearized_steps(model, dt)
    omega = dataset.omega(times[:n_steps]).tolist()

    def step(k: int, mean: np.ndarray) -> tuple:
        f = queue_linearize(omega[k - 1], max(mean.item(0), 0.0))
        return *relinearized(slots[k - 1], f), None

    mean, cov = lfm.initial_state(model, [0.0], [[25.0]])
    return kalman_pass(
        mean, cov, n_steps, step, changepoints,
        {k: y for k, y in zip(meas_steps.tolist(), dataset.meas_values[:, None])
         if not n_steps < k < times.size},  # not the record's steps after the pass
        np.eye(1, model.dim), np.array([[sigma_obs**2]]),
        jump=functools.partial(lfm.apply_changepoint_moments, model),
    )


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
    """Maximum-likelihood hyperparameters from the training-day measurements:
    the loglik of a pass over the steps up to the held-out start."""
    n_train = pass_length(dataset.times[0], dataset.test_start, dataset.config.step, "held-out start")
    return learn.fit(
        lambda p: _run_queue_filter(_queue_model(kind, p, dataset.config), dataset,
                                    p["sigma_obs"], n_train)[0],
        _param_space(kind, dataset), budget=budget, restarts=restarts, seed=seed,
    )


def queue_track(dataset: QueueDataset, kind: str, params: dict) -> dict:
    """Track the full record and score the held-out day (`synth.score`).

    The scores compare the predictive marginal of the queue length (after
    each prediction step, before any update at that time) against the
    simulated truth over the test day.
    """
    _param_space(kind, dataset).check(params, kind)
    model = _queue_model(kind, params, dataset.config)
    times = dataset.times
    _, _, _, records = _run_queue_filter(model, dataset, params["sigma_obs"], times.size - 1)
    n_train = pass_length(times[0], dataset.test_start, dataset.config.step, "held-out start")
    mean, var = np.array(records[n_train:]).T
    out = score(times[n_train + 1:], mean, var, times, dataset.truth_queue)
    out["n_basis"] = model.dim - model.layout.dim_za
    return out
