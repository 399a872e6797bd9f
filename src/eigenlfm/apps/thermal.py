"""Home-thermal temperature tracking and day-ahead prediction.

Single-output model:

    dT_int/dt = alpha (T_ext - T_int) + beta E(t) + R(t),

with the external temperature T_ext given a Matern-3/2 prior (two states),
the residual heat R given a periodic or quasi-periodic prior, and the binary
heater command E driven by a thermostat.  The envelope variant inserts an
unobserved envelope temperature between inside and outside:

    dT_int/dt = alpha (T_env - T_int) + beta E(t) + R(t)
    dT_env/dt = gamma_env (T_int - T_env) + psi_env (T_ext - T_env).

Tracking runs a plain Kalman filter with the known heater record; day-ahead
prediction runs the Rao-Blackwellised particle filter over the unknown
future heater switching.  Time is in minutes, steps follow the 10-minute
control cycle, and the residual cycle period is one day.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .. import filtering, learn, lfm, lti
from ..baselines.resonator import resonator_bank
from ..errors import ContractViolationError, InvalidParameterError
from ..filtering import GaussianState, rbpf_predict_day, update
from .synth import (
    DAY_MINUTES, daily_basis, draw_matern32, draw_ou, draw_periodic_force, periodic_roster,
    score,
)

__all__ = [
    "THERMAL_METHODS",
    "ThermalGenConfig",
    "ThermalDataset",
    "generate_thermal_data",
    "thermal_build",
    "thermal_fit",
    "thermal_track_day",
    "thermal_predict_day",
]

THERMAL_METHODS = (
    "with", "without", "quasi-sqm", "quasi-cqm", "quasi-wqm", "hart", "resonator",
)
_N_RESONATORS = 6  # resonators of the "resonator" roster entry


@dataclass(frozen=True)
class ThermalGenConfig:
    """Synthetic home-thermal generator settings (temperatures are offsets
    from the seasonal mean, so the external prior is zero-mean)."""

    days: int = 5                   # training days plus one test day
    alpha: float = 0.01             # leakage rate, 1/min
    beta: float = 0.12              # heater output, degC/min
    sigma_ext: float = 2.0
    ell_ext: float = 1200.0         # minutes
    residual_kind: str = "quasi-sqm"
    sigma_r: float = 2.0            # residual force scale, degC/min x 100
    ell_r: float = 0.3              # residual phase scale
    ell_q: float = 3.0              # inter-cycle scale, cycles
    xi: float = 1.0
    setpoint_day: float = 6.0
    setpoint_night: float = -10.0   # night setback: heater off
    day_start_h: float = 6.0
    day_end_h: float = 22.0
    step: float = 10.0              # heater control cycle, minutes
    obs_noise: float = 0.05
    n_basis_points: int = 100
    gamma: float = 0.01
    residual_scale: float = 0.015   # converts sigma_r into degC/min


@dataclass
class ThermalDataset:
    minutes: np.ndarray      # 1-minute grid
    t_int: np.ndarray        # true internal temperature
    t_ext: np.ndarray        # true external temperature
    setpoint: np.ndarray
    heater: np.ndarray       # 0/1 command, held per control cycle
    meas_int: np.ndarray     # noisy record used by the filters
    meas_ext: np.ndarray
    residual: np.ndarray     # true residual force
    test_start: float
    config: ThermalGenConfig

    def setpoint_at(self, t: float) -> float:
        i = min(int(t), self.setpoint.size - 1)
        return float(self.setpoint[i])


def _setpoint_profile(config: ThermalGenConfig, minutes: np.ndarray) -> np.ndarray:
    hod = (minutes % DAY_MINUTES) / 60.0
    day = (hod >= config.day_start_h) & (hod < config.day_end_h)
    return np.where(day, config.setpoint_day, config.setpoint_night)


def generate_thermal_data(config: ThermalGenConfig, seed: int) -> ThermalDataset:
    """Simulate the external temperature, residual force, thermostat-driven
    heater, and internal temperature at one-minute resolution."""
    if config.days < 2:
        raise InvalidParameterError("need at least one training day plus the test day")
    if not (config.step >= 1.0 and float(config.step).is_integer()):
        raise InvalidParameterError(
            f"step {config.step:g} is not a positive whole number of minutes: the heater "
            "holds its decision on whole minutes of the record"
        )
    rng = np.random.default_rng(seed)
    horizon = config.days * DAY_MINUTES
    minutes = np.arange(0.0, horizon + 1e-9, 1.0)
    n = minutes.size

    t_ext = draw_matern32(n, 1.0, config.sigma_ext, config.ell_ext, rng)
    if config.residual_kind == "hart":
        residual = config.residual_scale * draw_ou(
            minutes, config.sigma_r, config.ell_q * DAY_MINUTES, rng
        )
    elif config.residual_kind == "without":
        residual = np.zeros(n)
    else:
        residual = config.residual_scale * draw_periodic_force(
            minutes, daily_basis(config.sigma_r, config.ell_r, config), config.residual_kind,
            rng, ell_q=config.ell_q, xi=config.xi,
        )

    # RK4 over Python floats, one minute per step, with the external
    # temperature and residual interpolated at the three stage offsets of
    # every minute up front.  The heater holds its thermostat decision for
    # the step, a whole number of minutes of the record
    hold = int(config.step)
    setpoint = _setpoint_profile(config, minutes)
    sp = setpoint.tolist()
    ext0, ext_mid, ext1 = ((1.0 - w) * t_ext[:-1] + w * t_ext[1:] for w in (0.0, 0.5, 1.0))
    res0, res_mid, res1 = ((1.0 - w) * residual[:-1] + w * residual[1:] for w in (0.0, 0.5, 1.0))
    alpha, beta = config.alpha, config.beta
    x = float(t_ext[0])
    t_int, heater = [x], []
    for k, (a0, am, a1, r0, rm, r1) in enumerate(zip(
        ext0.tolist(), ext_mid.tolist(), ext1.tolist(),
        res0.tolist(), res_mid.tolist(), res1.tolist(),
    )):
        if k % hold == 0:
            e = 1.0 if x < sp[k] else 0.0
        heater.append(e)
        be = beta * e
        k1 = alpha * (a0 - x) + be + r0
        k2 = alpha * (am - (x + 0.5 * k1)) + be + rm
        k3 = alpha * (am - (x + 0.5 * k2)) + be + rm
        k4 = alpha * (a1 - (x + k3)) + be + r1
        x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t_int.append(x)
    heater.append(e)
    t_int, heater = np.array(t_int), np.array(heater)

    return ThermalDataset(
        minutes=minutes,
        t_int=t_int,
        t_ext=t_ext,
        setpoint=setpoint,
        heater=heater,
        meas_int=t_int + config.obs_noise * rng.standard_normal(n),
        meas_ext=t_ext + config.obs_noise * rng.standard_normal(n),
        residual=residual,
        test_start=(config.days - 1) * DAY_MINUTES,
        config=config,
    )


def thermal_build(
    kind: str,
    params: dict,
    config: ThermalGenConfig,
    *,
    envelope: bool = False,
) -> lfm.AugmentedModel:
    """Assemble the thermal state-space model for one roster entry.

    State: (T_int[, T_env], T_ext block, residual states, weights); the
    heater enters as the binary known input beta * E on the T_int row.
    """
    alpha, beta = params["alpha"], params["beta"]
    if envelope:
        gam, psi = params["gamma_env"], params["psi_env"]
        drift = np.array([[-alpha, alpha], [gam, -(gam + psi)]])
        ext_coupling = np.array([0.0, psi])
        res_coupling = np.array([1.0, 0.0])
    else:
        drift = np.array([[-alpha]])
        ext_coupling = np.array([alpha])
        res_coupling = np.array([1.0])

    ext_block = lti.matern32_block(params["sigma_ext"], params["ell_ext"])
    nonperiodic = [lfm.NonPeriodicForce(ext_block, ext_coupling)]
    periodic, changepoints = [], ()
    if kind == "hart":
        blk = lti.matern12_block(params["sigma_r"] * config.residual_scale, params["ell_r_min"])
        nonperiodic.append(lfm.NonPeriodicForce(blk, res_coupling))
    elif kind == "resonator":
        freqs = [params[f"freq_{j}"] for j in range(_N_RESONATORS)]
        nonperiodic += resonator_bank(
            freqs, np.full(_N_RESONATORS, -params["decay"]), params["diffusion"], res_coupling
        )
    elif kind != "without":
        force, changepoints = periodic_roster(
            kind, params["sigma_r"] * config.residual_scale, params["ell_r"], params, config,
            res_coupling,
        )
        periodic = [force]

    model = lfm.assemble(
        lfm.TargetModel(drift),
        nonperiodic=nonperiodic,
        periodic=periodic,
        changepoints=changepoints,
    )
    binary = np.zeros(model.layout.dim_za)
    binary[0] = beta
    model.binary_input = binary

    n_meas = 2  # internal and external temperature
    h = np.zeros((n_meas, model.dim))
    h[0, 0] = 1.0
    h[1] = lfm.nonperiodic_force_row(model, 0)
    lfm.set_measurement(model, h, params["sigma_obs"] ** 2 * np.eye(n_meas))
    return model


def _initial_state(model, dataset: ThermalDataset, envelope: bool) -> GaussianState:
    e = model.layout.n_target
    mean = np.zeros(e)
    mean[0] = dataset.meas_int[0]
    var = np.full(e, dataset.config.obs_noise**2 + 1e-4)
    if envelope:
        mean[1] = 0.5 * (dataset.meas_int[0] + dataset.meas_ext[0])
        var[1] = np.var(dataset.meas_int - dataset.meas_ext) + 1.0
    state = lfm.initial_state(model, mean, np.diag(var))
    # condition the external block on the first external measurement
    lo, _ = model.layout.nonperiodic_spans[0]
    state.mean[lo] = dataset.meas_ext[0]
    state.cov[lo, lo] = dataset.config.obs_noise**2 + 1e-4
    return state


def _run_thermal_filter(
    cycle: lfm.StepCycle,
    dataset: ThermalDataset,
    state: GaussianState,
    t_start: float,
    t_end: float,
    measure_every: float | None,
    emit: bool = False,
):
    """Kalman pass with the known heater record over [t_start, t_end], on the
    steps of `cycle`, measuring both temperatures every `measure_every`
    minutes (a whole number of steps).  Step starts and measurement times
    are mapped to indices of the one-minute record once, up front; a time
    off that grid or past the record raises ContractViolationError."""
    model, dt = cycle.model, cycle.dt
    n_steps = int(round((t_end - t_start) / dt))
    every = None
    if measure_every is not None:
        every = int(round(measure_every / dt))
        if every < 1 or not math.isclose(every * dt, measure_every, rel_tol=1e-9):
            raise InvalidParameterError(
                f"measurement interval {measure_every:g} min is not a whole number "
                f"of {dt:g}-minute steps"
            )

    # minute of each step boundary t_start + k dt, k = 0 .. n_steps
    minute = _record_minutes(dataset, t_start + dt * np.arange(n_steps + 1))
    heater = dataset.heater[minute[:-1]].tolist()
    observed = np.column_stack((dataset.meas_int, dataset.meas_ext))

    h, z = model.measurement_matrix, model.measurement_noise
    loglik = 0.0
    records = []
    for k, step in enumerate(lfm.pass_steps(cycle, t_start, n_steps), start=1):
        state = filtering.predict(
            state, step.transition, step.noise,
            step.input_on if heater[k - 1] else None, t_new=step.t,
        )
        if step.changepoint:
            state.mean, state.cov = lfm.apply_changepoint_moments(model, state.mean, state.cov)
        if emit:
            records.append((step.t, state.mean[0], state.cov[0, 0]))
        if every is not None and k % every == 0:
            res = update(state, h, z, observed[minute[k]])
            state = res.state
            loglik += res.log_density
    return loglik, state, records


def _record_minutes(dataset: ThermalDataset, times: np.ndarray) -> np.ndarray:
    """Indices of `times` in the one-minute record (`lfm.grid_steps`); a time
    off the minute grid or past the end of the record raises."""
    minutes = dataset.minutes
    idx = lfm.grid_steps(times, minutes[0], 1.0, minutes.size - 1, "thermal pass time")
    past = (idx < 0) | (idx >= minutes.size)
    if np.any(past):
        raise ContractViolationError(
            f"thermal pass time {times[past][0]:g} lies outside the record "
            f"[{minutes[0]:g}, {minutes[-1]:g}]"
        )
    return idx


def _param_space(kind: str, envelope: bool) -> learn.ParamSpace:
    params = [
        learn.Param("alpha", 1e-4, 0.1, 0.01),
        learn.Param("beta", 1e-3, 1.0, 0.1),
        learn.Param("sigma_ext", 0.2, 30.0, 3.0),
        learn.Param("ell_ext", 60.0, 2e4, 600.0),
        learn.Param("sigma_obs", 0.005, 2.0, 0.1),
    ]
    if envelope:
        params += [
            learn.Param("gamma_env", 1e-4, 0.5, 0.02),
            learn.Param("psi_env", 1e-4, 0.5, 0.02),
        ]
    if kind == "hart":
        params += [
            learn.Param("sigma_r", 0.05, 20.0, 1.0),
            learn.Param("ell_r_min", 5.0, 2880.0, 120.0),
        ]
    elif kind == "resonator":
        params += [
            learn.Param("decay", 1e-8, 0.1, 1e-4),
            learn.Param("diffusion", 1e-12, 1e-2, 1e-7),
        ]
        f_hi = 2.0 * _N_RESONATORS / DAY_MINUTES
        params += [
            learn.Param(f"freq_{j}", 1e-5, f_hi, (j + 1.0) / DAY_MINUTES)
            for j in range(_N_RESONATORS)
        ]
    elif kind != "without":
        params += [
            learn.Param("sigma_r", 0.05, 20.0, 1.0),
            learn.Param("ell_r", 0.35, 1.5, 0.5),
        ]
        if kind in ("quasi-sqm", "quasi-cqm"):
            params.append(learn.Param("ell_q", 0.3, 20.0, 2.0))
        elif kind == "quasi-wqm":
            params.append(learn.Param("xi", 1e-3, 20.0, 0.5))
    return learn.ParamSpace(tuple(params))


def thermal_fit(
    dataset: ThermalDataset,
    kind: str,
    budget: int = 120,
    seed: int = 0,
    restarts: int = 1,
    envelope: bool = False,
) -> learn.FitResult:
    """Maximum-likelihood parameters from the training days (measurements of
    both temperatures at every control step)."""

    def objective(p: dict) -> float:
        model = thermal_build(kind, p, dataset.config, envelope=envelope)
        state = _initial_state(model, dataset, envelope)
        loglik, _, _ = _run_thermal_filter(
            lfm.step_cycle(model, 0.0, dataset.config.step), dataset, state,
            0.0, dataset.test_start, dataset.config.step,
        )
        return loglik

    return learn.fit(
        objective, _param_space(kind, envelope),
        budget=budget, restarts=restarts, seed=seed,
    )


def _score(dataset: ThermalDataset, model: lfm.AugmentedModel, records) -> dict:
    """`synth.score` of (time, mean, var) records against the true internal
    temperature, with the model's basis size."""
    times, mean, var = zip(*records)
    out = score(times, mean, var, dataset.minutes, dataset.t_int)
    out["n_basis"] = model.layout.dim - model.layout.dim_za
    return out


def _trained_state(dataset, kind, params, envelope):
    """The model's step cycle, which the held-out pass reuses, and the state
    after the training pass."""
    _param_space(kind, envelope).check(params, kind)
    model = thermal_build(kind, params, dataset.config, envelope=envelope)
    cycle = lfm.step_cycle(model, 0.0, dataset.config.step)
    state = _initial_state(model, dataset, envelope)
    _, state, _ = _run_thermal_filter(
        cycle, dataset, state, 0.0, dataset.test_start, dataset.config.step
    )
    return cycle, state


def thermal_track_day(
    dataset: ThermalDataset,
    kind: str,
    params: dict,
    measure_every: float = 100.0,
    envelope: bool = False,
) -> dict:
    """Filter the held-out day with the known heater record and sparse
    measurements; scores the predictive marginals at every control step."""
    cycle, state = _trained_state(dataset, kind, params, envelope)
    _, _, records = _run_thermal_filter(
        cycle, dataset, state, dataset.test_start,
        dataset.test_start + DAY_MINUTES, measure_every, emit=True,
    )
    return _score(dataset, cycle.model, records)


def thermal_predict_day(
    dataset: ThermalDataset,
    kind: str,
    params: dict,
    n_particles: int = 64,
    seed: int = 0,
    envelope: bool = False,
) -> dict:
    """Day-ahead prediction: no measurements, heater switching simulated by
    the Rao-Blackwellised particle filter against the set-point schedule."""
    cycle, state = _trained_state(dataset, kind, params, envelope)
    model = cycle.model
    n_steps = int(round(DAY_MINUTES / cycle.dt))
    records = rbpf_predict_day(
        lfm.pass_steps(cycle, state.t, n_steps), n_steps, state,
        dataset.setpoint_at, n_particles, seed,
        jump=functools.partial(lfm.apply_changepoint_moments, model),
    )
    return _score(dataset, model, [(r["t"], r["mean"], r["var"]) for r in records])
