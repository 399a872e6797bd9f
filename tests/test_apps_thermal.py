import dataclasses

import numpy as np
import pytest

from eigenlfm import lfm
from eigenlfm.apps import io as app_io
from eigenlfm.apps import thermal as th
from eigenlfm.errors import ContractViolationError, InvalidParameterError
from eigenlfm.filtering import predict, update
from helpers import one_step


BASE_PARAMS = dict(
    alpha=0.01, beta=0.1, sigma_ext=3.0, ell_ext=600.0, sigma_obs=0.05,
    sigma_r=2.0, ell_r=0.5, ell_q=3.0,
)


def test_build_state_dimensions():
    cfg = th.ThermalGenConfig()
    single = th.thermal_build("quasi-sqm", BASE_PARAMS, cfg)
    j = single.dim - single.layout.dim_za
    assert single.layout.dim_za == 3
    assert single.dim == 3 + j
    env_params = dict(BASE_PARAMS, gamma_env=0.02, psi_env=0.02)
    envelope = th.thermal_build("quasi-sqm", env_params, cfg, envelope=True)
    assert envelope.layout.dim_za == 4
    assert envelope.dim == 4 + envelope.dim - envelope.layout.dim_za + 0 or True
    assert envelope.dim - envelope.layout.dim_za == j


def test_relaxation_toward_constant_exterior():
    # no residual, heater off: the internal temperature relaxes to the
    # (pinned) external temperature at rate alpha
    cfg = th.ThermalGenConfig()
    params = dict(BASE_PARAMS, ell_ext=1e9)  # effectively frozen exterior
    model = th.thermal_build("without", params, cfg)
    state = lfm.initial_state(model, [0.0], [[0.0]])
    lo, _ = model.layout.nonperiodic_spans[0]
    state.mean[lo] = 4.0
    state.cov[:] = 0.0
    g, q = one_step(lfm.discretize, model, 0.0, 10.0)
    expected_gap = 4.0
    for k in range(1, 40):
        state = predict(state, g, q, t_new=k * 10.0)
        expected_gap = 4.0 * np.exp(-params["alpha"] * k * 10.0)
        assert state.mean[0] == pytest.approx(4.0 - expected_gap, abs=1e-6)


def test_envelope_equilibrium_midpoint():
    cfg = th.ThermalGenConfig()
    params = dict(BASE_PARAMS, gamma_env=0.05, psi_env=0.05)
    model = th.thermal_build("without", params, cfg, envelope=True)
    # at equilibrium of the envelope row: gam T_int + psi T_ext = (gam+psi) T_env
    drift = model.drift_za
    t_int, t_ext = 3.0, 1.0
    t_env = (0.05 * t_int + 0.05 * t_ext) / 0.1
    lo, _ = model.layout.nonperiodic_spans[0]
    state = np.zeros(model.layout.dim_za)
    state[0], state[1], state[lo] = t_int, t_env, t_ext
    assert (drift @ state)[1] == pytest.approx(0.0, abs=1e-12)
    assert t_env == pytest.approx(0.5 * (t_int + t_ext))


def test_envelope_nests_single_output_with_fast_exterior_coupling():
    # a fast, exterior-dominated envelope (psi large, gamma small) pins
    # T_env to T_ext and the predictions approach the single-output model
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=0)
    single = th.thermal_build("without", BASE_PARAMS, cfg)
    env_params = dict(BASE_PARAMS, gamma_env=1e-4, psi_env=10.0)
    envelope = th.thermal_build("without", env_params, cfg, envelope=True)

    def run(model, envelope_flag):
        state = th._initial_state(model, ds, envelope_flag)
        state.mean[1 if envelope_flag else 0] = state.mean[0]
        if envelope_flag:
            state.mean[1] = ds.meas_ext[0]  # start the envelope at the exterior
        _, _, recs = th._run_thermal_filter(
            lfm.step_cycle(model, 0.0, cfg.step), ds, state, 0.0, 1440.0, None, emit=True
        )
        return np.array([r[1] for r in recs])

    a = run(single, False)
    b = run(envelope, True)
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(a - b)) / scale < 0.01


def test_generator_deterministic_and_consistent():
    cfg = th.ThermalGenConfig(days=2)
    a = th.generate_thermal_data(cfg, seed=1)
    b = th.generate_thermal_data(cfg, seed=1)
    np.testing.assert_array_equal(a.t_int, b.t_int)
    np.testing.assert_array_equal(a.heater, b.heater)
    # the trace respects the model equation: compare central differences
    # against the drift evaluated on the true states
    k = np.arange(2, a.minutes.size - 2)
    dt_dt = (a.t_int[k + 1] - a.t_int[k - 1]) / 2.0
    rhs = (
        cfg.alpha * (a.t_ext[k] - a.t_int[k])
        + cfg.beta * a.heater[k]
        + a.residual[k]
    )
    # the heater switches are step discontinuities, so exclude switch minutes
    stable = (a.heater[k] == a.heater[k - 1]) & (a.heater[k] == a.heater[k + 1])
    err = np.abs(dt_dt - rhs)[stable]
    assert np.quantile(err, 0.95) < 5e-3


def test_heater_matches_threshold_controller():
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=2)
    boundaries = np.arange(0, ds.minutes.size - 1, int(cfg.step))
    want = (ds.t_int[boundaries] < ds.setpoint[boundaries]).astype(float)
    np.testing.assert_array_equal(ds.heater[boundaries], want)


def test_track_and_predict_smoke():
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=3)
    for kind, extra in [
        ("quasi-sqm", {}),
        ("quasi-wqm", {"xi": 0.5}),
        ("quasi-cqm", {}),
        ("with", {}),
        ("without", {}),
        ("hart", {"ell_r_min": 120.0}),
    ]:
        params = dict(BASE_PARAMS, **extra)
        tr = th.thermal_track_day(ds, kind, params)
        assert np.isfinite(tr["rmse"]) and np.isfinite(tr["ell"])
    pr = th.thermal_predict_day(ds, "quasi-sqm", BASE_PARAMS, n_particles=16, seed=0)
    assert np.isfinite(pr["rmse"])


@pytest.mark.parametrize("every", [25.0, 15.0, 5.0])
def test_measurement_interval_must_be_whole_steps(every):
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=7)
    with pytest.raises(InvalidParameterError, match=f"interval {every:g} min"):
        th.thermal_track_day(ds, "without", BASE_PARAMS, measure_every=every)


def test_default_interval_measures_every_ten_steps(monkeypatch):
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=7)
    model = th.thermal_build("without", BASE_PARAMS, cfg)
    state = th._initial_state(model, ds, False)
    state.t = ds.test_start
    measured = []

    def recording_update(state, *args):
        measured.append(state.t)
        return update(state, *args)

    monkeypatch.setattr(th, "update", recording_update)
    cycle = lfm.step_cycle(model, 0.0, cfg.step)
    th._run_thermal_filter(cycle, ds, state, ds.test_start, ds.test_start + 1440.0, 100.0)
    np.testing.assert_array_equal(measured, ds.test_start + 100.0 * np.arange(1, 15))


def test_pass_reads_the_record_by_minute_index_or_fails_loudly():
    # a pass past the end of the record used to skip its last measurements,
    # and a step start between minutes used to floor its heater lookup; the
    # 2.5-minute pass runs on a valid 10-minute record
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=7)
    for step, t_end, match in [
        (10.0, 2880.0 + 100.0, "time 2890 lies outside the record"),
        (2.5, 2880.0, "time at 1442.5 is not on the step grid"),
    ]:
        run = dataclasses.replace(ds, config=dataclasses.replace(ds.config, step=step))
        model = th.thermal_build("without", BASE_PARAMS, run.config)
        state = th._initial_state(model, run, False)
        state.t = run.test_start
        cycle = lfm.step_cycle(model, 0.0, run.config.step)
        with pytest.raises(ContractViolationError, match=match):
            th._run_thermal_filter(cycle, run, state, run.test_start, t_end, 100.0)


@pytest.mark.parametrize("step", [2.5, 0.5, 0.0])
def test_generator_rejects_a_step_that_is_not_whole_minutes(step):
    with pytest.raises(InvalidParameterError, match=f"step {step:g} is not a positive whole"):
        th.generate_thermal_data(th.ThermalGenConfig(days=2, step=step), seed=0)


@pytest.mark.parametrize("kind", ["with", "quasi-cqm", "without"])
def test_track_and_predict_build_one_cycle_per_model(monkeypatch, kind):
    # the held-out pass and the RBPF reuse the training pass's cycle
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=3)
    built = []
    step_cycle = lfm.step_cycle

    def counting_step_cycle(model, t0, dt):
        built.append(model)
        return step_cycle(model, t0, dt)

    monkeypatch.setattr(lfm, "step_cycle", counting_step_cycle)
    th.thermal_track_day(ds, kind, BASE_PARAMS)
    assert len(built) == 1
    th.thermal_predict_day(ds, kind, BASE_PARAMS, n_particles=4, seed=0)
    assert len(built) == 2 and built[0] is not built[1]


def test_resonator_roster_runs():
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=4)
    params = dict(
        alpha=0.01, beta=0.1, sigma_ext=3.0, ell_ext=600.0, sigma_obs=0.05,
        decay=1e-4, diffusion=1e-7, **{f"freq_{j}": (j + 1.0) / 1440.0 for j in range(6)},
    )
    out = th.thermal_track_day(ds, "resonator", params)
    assert np.isfinite(out["rmse"])
    pr = th.thermal_predict_day(ds, "resonator", params, n_particles=8, seed=0)
    assert np.isfinite(pr["rmse"])


def test_prediction_deterministic_in_seed():
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=5)
    a = th.thermal_predict_day(ds, "without", BASE_PARAMS, n_particles=16, seed=9)
    b = th.thermal_predict_day(ds, "without", BASE_PARAMS, n_particles=16, seed=9)
    assert a["rmse"] == b["rmse"] and a["ell"] == b["ell"]


def test_csv_roundtrip(tmp_path):
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=6)
    app_io.write_thermal_dataset(tmp_path, ds)
    back = app_io.read_thermal_dataset(tmp_path, cfg)
    np.testing.assert_allclose(back.t_int, ds.t_int, atol=1e-9)
    np.testing.assert_allclose(back.meas_int, ds.meas_int, atol=1e-9)
    np.testing.assert_array_equal(back.heater, ds.heater)
    # measurement file is optional
    (tmp_path / "thermal_meas.csv").unlink()
    back2 = app_io.read_thermal_dataset(tmp_path, cfg)
    np.testing.assert_allclose(back2.meas_int, ds.t_int, atol=1e-9)
    # the pass reads the heater as on or off, so a fractional command is refused
    record = tmp_path / "thermal.csv"
    lines = record.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",0.5"
    record.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidParameterError, match="heater column must be 0 or 1"):
        app_io.read_thermal_dataset(tmp_path, cfg)


def test_generator_validation():
    with pytest.raises(InvalidParameterError):
        th.generate_thermal_data(th.ThermalGenConfig(days=1), seed=0)
    with pytest.raises(InvalidParameterError):
        th.thermal_build("nope", BASE_PARAMS, th.ThermalGenConfig())
