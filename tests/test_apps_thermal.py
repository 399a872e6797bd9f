import dataclasses
import gc
import weakref

import numpy as np
import pytest

from eigenlfm import filtering, lfm
from eigenlfm.apps import io as app_io
from eigenlfm.apps import thermal as th
from eigenlfm.errors import ContractViolationError, InvalidParameterError
from eigenlfm.filtering import predict
from helpers import one_step


_BASE = dict(alpha=0.01, beta=0.1, sigma_ext=3.0, ell_ext=600.0, sigma_obs=0.05)
_PERIODIC = dict(_BASE, sigma_r=2.0, ell_r=0.5)
PARAMS = {  # each method's parameters, no more: the passes refuse a name they lack
    "without": _BASE,
    "with": _PERIODIC,
    "quasi-sqm": dict(_PERIODIC, ell_q=3.0),
    "quasi-cqm": dict(_PERIODIC, ell_q=3.0),
    "quasi-wqm": dict(_PERIODIC, xi=0.5),
    "hart": dict(_BASE, sigma_r=2.0, ell_r_min=120.0),
}


def test_build_state_dimensions():
    cfg = th.ThermalGenConfig()
    single = th.thermal_build("quasi-sqm", PARAMS["quasi-sqm"], cfg)
    j = single.dim - single.layout.dim_za
    assert single.layout.dim_za == 3
    assert single.dim == 3 + j
    env_params = dict(PARAMS["quasi-sqm"], gamma_env=0.02, psi_env=0.02)
    envelope = th.thermal_build("quasi-sqm", env_params, cfg, envelope=True)
    assert envelope.layout.dim_za == 4
    assert envelope.dim == 4 + j


def test_relaxation_toward_constant_exterior():
    # no residual, heater off: the internal temperature relaxes to the
    # (pinned) external temperature at rate alpha
    cfg = th.ThermalGenConfig()
    params = dict(PARAMS["without"], ell_ext=1e9)  # effectively frozen exterior
    model = th.thermal_build("without", params, cfg)
    mean, cov = lfm.initial_state(model, [0.0], [[0.0]])
    lo, _ = model.layout.nonperiodic_spans[0]
    mean[lo] = 4.0
    cov[:] = 0.0
    g, q = one_step(lfm.discretize, model, 0.0, 10.0)
    expected_gap = 4.0
    for k in range(1, 40):
        mean, cov = predict(mean, cov, g, q)
        expected_gap = 4.0 * np.exp(-params["alpha"] * k * 10.0)
        assert mean[0] == pytest.approx(4.0 - expected_gap, abs=1e-6)


def test_envelope_equilibrium_midpoint():
    cfg = th.ThermalGenConfig()
    params = dict(PARAMS["without"], gamma_env=0.05, psi_env=0.05)
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
    single = th.thermal_build("without", PARAMS["without"], cfg)
    env_params = dict(PARAMS["without"], gamma_env=1e-4, psi_env=10.0)
    envelope = th.thermal_build("without", env_params, cfg, envelope=True)

    def run(model, envelope_flag):
        mean, cov = th._initial_state(model, ds, envelope_flag)
        mean[1 if envelope_flag else 0] = mean[0]
        if envelope_flag:
            mean[1] = ds.meas_ext[0]  # start the envelope at the exterior
        # a measurement interval longer than the pass: prediction only
        _, _, _, recs = th._run_thermal_filter(
            lfm.step_cycle(model, cfg.step), ds, PARAMS["without"]["sigma_obs"], mean, cov,
            0.0, 1440.0, 2880.0,
        )
        return np.array([r[0] for r in recs])

    a = run(single, False)
    b = run(envelope, True)
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(a - b)) / scale < 0.01


def test_envelope_prediction_ignores_the_held_out_measurements():
    # the envelope prior used to take its variance from the whole record, so
    # the held-out day's measurements moved the day-ahead prediction
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=3)
    moved = dataclasses.replace(
        ds, meas_int=np.where(ds.minutes > ds.test_start, ds.meas_int + 3.0, ds.meas_int)
    )
    params = dict(PARAMS["quasi-sqm"], gamma_env=0.02, psi_env=0.02)
    a, b = (
        th.thermal_predict_day(d, "quasi-sqm", params, n_particles=8, seed=0, envelope=True)
        for d in (ds, moved)
    )
    np.testing.assert_array_equal(a["mean"], b["mean"])
    np.testing.assert_array_equal(a["var"], b["var"])


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
    for kind, params in PARAMS.items():
        tr = th.thermal_track_day(ds, kind, params)
        assert np.isfinite(tr["rmse"]) and np.isfinite(tr["ell"])
    pr = th.thermal_predict_day(ds, "quasi-sqm", PARAMS["quasi-sqm"], n_particles=16, seed=0)
    assert np.isfinite(pr["rmse"])


def test_track_and_predict_times_are_the_step_ends_of_the_held_out_day():
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=7)
    times = ds.test_start + 10.0 * np.arange(1, 145)
    track = th.thermal_track_day(ds, "quasi-sqm", PARAMS["quasi-sqm"])
    predict_day = th.thermal_predict_day(ds, "quasi-sqm", PARAMS["quasi-sqm"], n_particles=4)
    for out in (track, predict_day):
        np.testing.assert_array_equal(out["times"], times)
        assert out["mean"].size == out["var"].size == 144


@pytest.mark.parametrize("every", [25.0, 15.0, 5.0])
def test_measurement_interval_must_be_whole_steps(every):
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=7)
    with pytest.raises(InvalidParameterError, match=f"interval {every:g} min"):
        th.thermal_track_day(ds, "without", PARAMS["without"], measure_every=every)


def test_default_interval_measures_every_ten_steps(monkeypatch):
    cfg = th.ThermalGenConfig(days=2)
    ds = th.generate_thermal_data(cfg, seed=7)
    model = th.thermal_build("without", PARAMS["without"], cfg)
    # the pass is handed the measurement steps, and updates at each of them
    measured, updates = [], []
    kalman_pass, update = th.kalman_pass, filtering.update

    def recording_pass(mean, cov, n_steps, step, changepoints, observations, *args, **kwargs):
        measured.extend(ds.test_start + cfg.step * np.array(sorted(observations)))
        return kalman_pass(mean, cov, n_steps, step, changepoints, observations, *args, **kwargs)

    monkeypatch.setattr(th, "kalman_pass", recording_pass)
    monkeypatch.setattr(filtering, "update", lambda *args: updates.append(args) or update(*args))
    cycle = lfm.step_cycle(model, cfg.step)
    th._run_thermal_filter(
        cycle, ds, PARAMS["without"]["sigma_obs"], *th._initial_state(model, ds, False),
        ds.test_start, ds.test_start + 1440.0, 100.0,
    )
    np.testing.assert_array_equal(measured, ds.test_start + 100.0 * np.arange(1, 15))
    assert len(updates) == 14


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
        model = th.thermal_build("without", PARAMS["without"], run.config)
        mean, cov = th._initial_state(model, run, False)
        cycle = lfm.step_cycle(model, run.config.step)
        with pytest.raises(ContractViolationError, match=match):
            th._run_thermal_filter(
                cycle, run, PARAMS["without"]["sigma_obs"], mean, cov, run.test_start, t_end, 100.0
            )


@pytest.mark.parametrize("run", [
    lambda ds: th.thermal_fit(ds, "without", budget=8),
    lambda ds: th.thermal_predict_day(ds, "hart", PARAMS["hart"], n_particles=4, seed=0),
], ids=["fit", "predict"])
def test_training_pass_must_end_on_the_step_grid(run):
    # a 7-minute step used to run 206 training steps, to minute 1442 of the
    # held-out day; the day-ahead pass then failed past the record's end
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2, step=7.0), seed=0)
    with pytest.raises(ContractViolationError,
                       match=r"thermal pass end at 1440 is not on the step grid 0 \+ k \* 7"):
        run(ds)


@pytest.mark.parametrize("run", [th.thermal_track_day, th.thermal_predict_day])
def test_held_out_pass_must_end_on_the_step_grid(run):
    # 960-minute steps divide the two training days but not the held-out one
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=3, step=960.0), seed=0)
    with pytest.raises(ContractViolationError,
                       match=r"thermal pass end at 4320 is not on the step grid 2880 \+ k \* 960"):
        run(ds, "hart", PARAMS["hart"])


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

    def counting_step_cycle(model, dt):
        built.append(model)
        return step_cycle(model, dt)

    monkeypatch.setattr(lfm, "step_cycle", counting_step_cycle)
    th.thermal_track_day(ds, kind, PARAMS[kind])
    assert len(built) == 1
    th.thermal_predict_day(ds, kind, PARAMS[kind], n_particles=4, seed=0)
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
    a = th.thermal_predict_day(ds, "without", PARAMS["without"], n_particles=16, seed=9)
    b = th.thermal_predict_day(ds, "without", PARAMS["without"], n_particles=16, seed=9)
    assert a["rmse"] == b["rmse"] and a["ell"] == b["ell"]


def _counting_draws(monkeypatch) -> list[tuple]:
    """The keys of every `particle_draws` call the thermal module makes."""
    calls, draw = [], th.particle_draws
    monkeypatch.setattr(th, "particle_draws", lambda *key: calls.append(key) or draw(*key))
    return calls


def test_methods_predicted_on_one_dataset_share_one_block_of_draws(monkeypatch):
    cfg = th.ThermalGenConfig(days=2)
    calls = _counting_draws(monkeypatch)
    ds = th.generate_thermal_data(cfg, seed=3)
    methods = ("quasi-sqm", "without", "hart")
    shared = [th.thermal_predict_day(ds, m, PARAMS[m], n_particles=32, seed=4) for m in methods]
    assert calls == [(4, 32, 144)]  # one block of 32 particles x 144 ten-minute steps
    # each method, predicted alone on a fresh dataset, gives the same records
    for method, out in zip(methods, shared):
        alone = th.thermal_predict_day(
            th.generate_thermal_data(cfg, seed=3), method, PARAMS[method], n_particles=32, seed=4
        )
        assert out.keys() == alone.keys()
        for key, value in out.items():
            np.testing.assert_array_equal(value, alone[key], err_msg=f"{method}: {key}")
    assert len(calls) == 1 + len(methods)


def test_the_block_of_draws_is_read_only_and_dies_with_its_dataset():
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=3)
    th.thermal_predict_day(ds, "without", PARAMS["without"], n_particles=8, seed=0)
    key, block = ds.draws
    assert key == (0, 8, 144) and block.shape == (8, 144)
    assert not block.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 0.0
    # the block is kept out of the dataset's repr and equality
    assert "draws" not in repr(ds)
    assert ds == dataclasses.replace(ds) and dataclasses.replace(ds).draws == ((), None)
    ref = weakref.ref(block)
    del block, ds
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("change", [{"n_particles": 16}, {"seed": 1}])
def test_another_key_replaces_the_block_of_draws(monkeypatch, change):
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=3)
    calls = _counting_draws(monkeypatch)
    th.thermal_predict_day(ds, "without", PARAMS["without"], n_particles=8, seed=0)
    old = weakref.ref(ds.draws[1])
    options = {"n_particles": 8, "seed": 0, **change}
    th.thermal_predict_day(ds, "without", PARAMS["without"], **options)
    gc.collect()
    assert old() is None  # replaced, not kept beside the new block
    assert ds.draws[0] == (options["seed"], options["n_particles"], 144)
    assert ds.draws[1].shape == (options["n_particles"], 144)
    assert calls == [(0, 8, 144), ds.draws[0]]


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


@pytest.mark.parametrize("name", ["thermal.csv", "thermal_meas.csv"])
def test_reader_checks_the_minute_grid(tmp_path, name):
    # the pass reads the files by minute index: a record thinned to every
    # other minute would train on the wrong rows
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=6)
    app_io.write_thermal_dataset(tmp_path, ds)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + lines[1::2]) + "\n")
    with pytest.raises(InvalidParameterError, match=f"{name}: time step 2 found at 0, 1 expected"):
        app_io.read_thermal_dataset(tmp_path, ds.config)


def test_reader_requires_two_whole_days(tmp_path):
    # a one-day record has no training day: its "held-out day" would lie
    # past the record
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=6)
    app_io.write_thermal_dataset(tmp_path, ds)
    for name in ("thermal.csv", "thermal_meas.csv"):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1442]) + "\n")
    with pytest.raises(InvalidParameterError,
                       match=r"thermal.csv: the record ends at minute 1440 \(1 days\)"):
        app_io.read_thermal_dataset(tmp_path, ds.config)


def test_reader_requires_the_record_to_start_at_minute_0(tmp_path):
    # a record without its first day would load, and the first pass, which
    # starts at minute 0, would fail without naming a file
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=3), seed=6)
    app_io.write_thermal_dataset(tmp_path, ds)
    for name in ("thermal.csv", "thermal_meas.csv"):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[1441:]) + "\n")
    with pytest.raises(InvalidParameterError,
                       match="thermal.csv: the record starts at minute 1440; it must start "
                             "at minute 0"):
        app_io.read_thermal_dataset(tmp_path, ds.config)


@pytest.mark.parametrize("rows", [lambda lines: lines[:2001], lambda lines: lines[:1] + lines[2:]],
                         ids=["cut", "late-start"])
def test_reader_requires_the_measurements_to_fit_the_record(tmp_path, rows):
    # the pass reads the measurement of minute k from row k: a shorter file
    # would run out of rows, a later first minute would shift every row
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=6)
    app_io.write_thermal_dataset(tmp_path, ds)
    path = tmp_path / "thermal_meas.csv"
    path.write_text("\n".join(rows(path.read_text().splitlines())) + "\n")
    with pytest.raises(InvalidParameterError, match="thermal_meas.csv: holds minutes"):
        app_io.read_thermal_dataset(tmp_path, ds.config)


def test_without_residual_is_zero():
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2, residual_kind="without"), seed=2)
    assert np.all(ds.residual == 0.0)


def test_envelope_fit_stays_in_bounds():
    ds = th.generate_thermal_data(th.ThermalGenConfig(days=2), seed=3)
    result = th.thermal_fit(ds, "without", budget=12, envelope=True)
    assert np.isfinite(result.value)
    for name in ("gamma_env", "psi_env"):
        assert 1e-4 <= result.params[name] <= 0.5


@pytest.mark.parametrize("start, end", [(23.0, 6.0), (6.0, 6.0), (-1.0, 22.0), (6.0, 25.0)])
def test_generator_requires_the_day_hours_in_order_in_the_day(start, end):
    # day_start_h >= day_end_h would hold the night set point all day
    config = th.ThermalGenConfig(days=2, day_start_h=start, day_end_h=end)
    with pytest.raises(InvalidParameterError,
                       match=f"day_start_h {start:g} and day_end_h {end:g} must satisfy "
                             "0 <= day_start_h < day_end_h <= 24"):
        th.generate_thermal_data(config, seed=0)


def test_generator_validation():
    with pytest.raises(InvalidParameterError):
        th.generate_thermal_data(th.ThermalGenConfig(days=1), seed=0)
    with pytest.raises(InvalidParameterError):
        th.thermal_build("nope", PARAMS["with"], th.ThermalGenConfig())
