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

import math
from dataclasses import dataclass

import numpy as np

from .. import eigenbasis as eb
from .. import filtering, kernels, learn, lfm, lti
from ..baselines.resonator import resonator_block
from ..errors import ContractViolationError, InvalidParameterError
from ..filtering import GaussianState, rbpf_predict_day, update
from .synth import draw_matern32, draw_ou, draw_periodic_force

__all__ = [
    "DAY_MINUTES",
    "THERMAL_METHODS",
    "ThermalGenConfig",
    "ThermalDataset",
    "generate_thermal_data",
    "thermal_build",
    "thermal_fit",
    "thermal_track_day",
    "thermal_predict_day",
]

DAY_MINUTES = 1440.0
THERMAL_METHODS = (
    "with", "without", "quasi-sqm", "quasi-cqm", "quasi-wqm", "hart", "resonator",
)
_N_RESONATORS = 6  # resonator roster size unless params set n_resonators


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

    def heater_at(self, t: float) -> float:
        i = min(int(t), self.heater.size - 1)
        return float(self.heater[i])


def _setpoint_profile(config: ThermalGenConfig, minutes: np.ndarray) -> np.ndarray:
    hod = (minutes % DAY_MINUTES) / 60.0
    day = (hod >= config.day_start_h) & (hod < config.day_end_h)
    return np.where(day, config.setpoint_day, config.setpoint_night)


def generate_thermal_data(config: ThermalGenConfig, seed: int) -> ThermalDataset:
    """Simulate the external temperature, residual force, thermostat-driven
    heater, and internal temperature at one-minute resolution."""
    if config.days < 2:
        raise InvalidParameterError("need at least one training day plus the test day")
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
        kernel = kernels.PeriodicMatern(0.5, config.sigma_r, config.ell_r, DAY_MINUTES)
        basis = eb.build(kernel, config.n_basis_points, DAY_MINUTES, config.gamma)
        residual = config.residual_scale * draw_periodic_force(
            minutes, basis, config.residual_kind, rng, ell_q=config.ell_q, xi=config.xi
        )

    setpoint = _setpoint_profile(config, minutes)
    t_int = np.empty(n)
    heater = np.zeros(n)
    t_int[0] = t_ext[0]
    e = 1.0 if t_int[0] < setpoint[0] else 0.0
    for k in range(n - 1):
        if minutes[k] % config.step < 1e-9:
            e = 1.0 if t_int[k] < setpoint[k] else 0.0
        heater[k] = e

        def rhs(x, w):
            ext = (1.0 - w) * t_ext[k] + w * t_ext[k + 1]
            res = (1.0 - w) * residual[k] + w * residual[k + 1]
            return config.alpha * (ext - x) + config.beta * e + res

        x = t_int[k]
        k1 = rhs(x, 0.0)
        k2 = rhs(x + 0.5 * k1, 0.5)
        k3 = rhs(x + 0.5 * k2, 0.5)
        k4 = rhs(x + k3, 1.0)
        t_int[k + 1] = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    heater[-1] = e

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


def _residual_forces(kind: str, params: dict, config: ThermalGenConfig, coupling):
    """Force list and basis for the residual model of the given roster entry."""
    if kind == "without":
        return [], [], None
    if kind == "hart":
        blk = lti.matern12_block(params["sigma_r"] * config.residual_scale,
                                 params["ell_r_min"])
        return [lfm.NonPeriodicForce(blk, coupling)], [], None
    if kind == "resonator":
        n_res = int(params.get("n_resonators", _N_RESONATORS))
        forces = []
        for j in range(n_res):
            blk = resonator_block(
                params[f"freq_{j}"], -params["decay"], params["diffusion"]
            )
            forces.append(lfm.NonPeriodicForce(blk, coupling))
        forces.append(lfm.NonPeriodicForce(lti.constant_weight_block(), coupling))
        return forces, [], None
    kernel = kernels.PeriodicMatern(
        0.5, params["sigma_r"] * config.residual_scale, params["ell_r"], DAY_MINUTES
    )
    basis = eb.build(kernel, config.n_basis_points, DAY_MINUTES, config.gamma)
    if basis.n_selected > 30:
        raise ContractViolationError("periodic roster exceeded 30 basis functions")
    if kind == "with":
        force = lfm.periodic_force(basis, coupling)
    elif kind == "quasi-sqm":
        force = lfm.sqm_force(basis, coupling, 1.0, params["ell_q"])
    elif kind == "quasi-cqm":
        force = lfm.cqm_force(basis, coupling, 1.0, params["ell_q"] * DAY_MINUTES)
    elif kind == "quasi-wqm":
        force = lfm.wqm_force(basis, coupling, 1.0, params["xi"])
    else:
        raise InvalidParameterError(f"unknown thermal method {kind!r}")
    return [], [force], basis


def thermal_build(
    kind: str,
    params: dict,
    config: ThermalGenConfig,
    *,
    envelope: bool = False,
    horizon_days: int | None = None,
    ext_rho: float | None = None,
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

    ext_block = lti.matern32_block(params["sigma_ext"], params["ell_ext"], rho=ext_rho)
    nonperiodic = [lfm.NonPeriodicForce(ext_block, ext_coupling)]
    np_extra, periodic, _ = _residual_forces(kind, params, config, res_coupling)
    nonperiodic += np_extra

    days = horizon_days if horizon_days is not None else config.days
    changepoints = ()
    if kind in ("quasi-sqm", "quasi-wqm"):
        changepoints = DAY_MINUTES * np.arange(1, days)

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
    state = lfm.initial_state(model, mean, np.diag(var), t0=0.0)
    # condition the external block on the first external measurement
    lo, _ = model.layout.nonperiodic_spans[0]
    state.mean[lo] = dataset.meas_ext[0]
    state.cov[lo, lo] = dataset.config.obs_noise**2 + 1e-4
    return state


def _run_thermal_filter(
    model,
    dataset: ThermalDataset,
    state: GaussianState,
    t_start: float,
    t_end: float,
    measure_every: float | None,
    emit: bool = False,
):
    """Kalman pass with the known heater record over [t_start, t_end]."""
    config = dataset.config
    dt = config.step
    n_steps = int(round((t_end - t_start) / dt))
    constant = lfm.has_constant_weights(model)
    plan = lfm.make_constant_step_plan(model, dt) if constant else None
    node_phi = None
    if constant and model.periodic:
        basis = model.periodic[0].basis
        times = t_start + dt * np.arange(n_steps)
        nodes = (times[:, None] + plan.node_offsets[None, :]).ravel()
        node_phi = eb.eigenfunction_matrix(basis, nodes).reshape(
            n_steps, plan.node_offsets.size, -1
        )
    b_on = plan.input_response @ model.binary_input if constant else None

    h, z = model.measurement_matrix, model.measurement_noise
    loglik = 0.0
    records = []
    t = t_start
    for k in range(n_steps):
        t_next = t + dt
        e_k = dataset.heater_at(t)
        if constant:
            tr = lfm.constant_weight_transition(
                model, t, t_next, plan=plan,
                node_phi=[node_phi[k]] if node_phi is not None else None,
            )
            b = e_k * b_on
            b_full = np.zeros(model.dim)
            b_full[: b.size] = b
        else:
            tr = lfm.discretize(model, t, t_next, input_value=e_k * model.binary_input)
            b_full = tr.input_term
        state = filtering.predict(state, tr.transition, tr.noise, b_full, t_new=t_next)
        t = t_next
        for tau in model.changepoints:
            if abs(tau - t) < 1e-9:
                state = lfm.apply_changepoint(model, state, tau)
        if emit:
            records.append((t, state.mean[0], state.cov[0, 0]))
        if measure_every is not None and (t - t_start) % measure_every < 1e-9:
            i = int(round(t))
            if i < dataset.minutes.size:
                res = update(state, h, z, [dataset.meas_int[i], dataset.meas_ext[i]])
                state = res.state
                loglik += res.log_density
    return loglik, state, records


def _param_space(
    kind: str, config: ThermalGenConfig, envelope: bool, n_res: int = _N_RESONATORS
) -> learn.ParamSpace:
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
        for j in range(n_res):
            params.append(
                learn.Param(
                    f"freq_{j}", 1e-5, 2.0 * n_res / DAY_MINUTES, (j + 1.0) / DAY_MINUTES
                )
            )
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
            model, dataset, state, 0.0, dataset.test_start, dataset.config.step
        )
        return loglik

    return learn.fit(
        objective, _param_space(kind, dataset.config, envelope),
        budget=budget, restarts=restarts, seed=seed,
    )


def _metrics(dataset: ThermalDataset, records) -> dict:
    t = np.array([r[0] for r in records])
    mean = np.array([r[1] for r in records])
    var = np.maximum(np.array([r[2] for r in records]), 1e-12)
    truth = np.interp(t, dataset.minutes, dataset.t_int)
    rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
    ell = float(np.mean(
        -0.5 * np.log(2.0 * np.pi * var) - 0.5 * (truth - mean) ** 2 / var
    ))
    return {"rmse": rmse, "ell": ell, "times": t, "mean": mean, "var": var}


def _trained_state(dataset, kind, params, envelope):
    n_res = int(params.get("n_resonators", _N_RESONATORS))
    _param_space(kind, dataset.config, envelope, n_res).check(params, kind)
    model = thermal_build(kind, params, dataset.config, envelope=envelope)
    state = _initial_state(model, dataset, envelope)
    _, state, _ = _run_thermal_filter(
        model, dataset, state, 0.0, dataset.test_start, dataset.config.step
    )
    return model, state


def thermal_track_day(
    dataset: ThermalDataset,
    kind: str,
    params: dict,
    measure_every: float = 100.0,
    envelope: bool = False,
) -> dict:
    """Filter the held-out day with the known heater record and sparse
    measurements; scores the predictive marginals at every control step."""
    model, state = _trained_state(dataset, kind, params, envelope)
    _, _, records = _run_thermal_filter(
        model, dataset, state, dataset.test_start,
        dataset.test_start + DAY_MINUTES, measure_every, emit=True,
    )
    out = _metrics(dataset, records)
    out["n_basis"] = model.layout.dim - model.layout.dim_za
    return out


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
    model, state = _trained_state(dataset, kind, params, envelope)
    records = rbpf_predict_day(
        model, state, dataset.setpoint_at, n_particles,
        dataset.config.step, DAY_MINUTES, seed,
    )
    out = _metrics(dataset, [(r["t"], r["mean"], r["var"]) for r in records])
    out["n_basis"] = model.layout.dim - model.layout.dim_za
    return out
