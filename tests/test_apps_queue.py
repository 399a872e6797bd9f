import dataclasses
import math

import numpy as np
import pytest

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import filtering, learn, lfm, lti
from eigenlfm.apps import io as app_io
from eigenlfm.apps import queueing as qa
from eigenlfm.apps import synth
from eigenlfm.apps.synth import draw_periodic_force
from eigenlfm.errors import ContractViolationError, InvalidParameterError, NumericError
from helpers import one_step


def test_linearize_values():
    assert qa.queue_linearize(10.0, 0.0) == -10.0
    assert qa.queue_linearize(10.0, 9.0) == -1.0
    assert qa.queue_linearize(0.0, 3.0) == 0.0
    with pytest.raises(ContractViolationError):
        qa.queue_linearize(10.0, -0.5)


def test_simulate_empty_queue_absorbing():
    times = np.arange(0.0, 100.0, 2.0)
    out = qa.queue_simulate(times, lambda t: 0.0, lambda t: 10.0, 0.0)
    np.testing.assert_array_equal(out, np.zeros_like(times))


def test_simulate_fixed_point():
    l_star = 4.0
    omega = 10.0
    zeta = omega * l_star / (1.0 + l_star)
    times = np.arange(0.0, 60.0, 2.0)
    out = qa.queue_simulate(times, lambda t: zeta, lambda t: omega, 0.5)
    assert out[-1] == pytest.approx(l_star, rel=1e-6)


def test_simulate_step_halving_convergence():
    arrival = lambda t: 3.0 + 2.0 * np.sin(2.0 * np.pi * t / 1440.0)
    omega = lambda t: 10.0
    times = np.arange(0.0, 1440.0 + 1e-9, 2.0)
    a = qa.queue_simulate(times, arrival, omega, 1.0, substep=0.1)
    b = qa.queue_simulate(times, arrival, omega, 1.0, substep=0.05)
    assert np.max(np.abs(a - b)) < 1e-6


def _loop_schedule(times, substep):
    """The substep starts, widths and last substep of each grid interval,
    built one substep at a time: the reference for `queue_simulate`'s
    array schedule."""
    starts, widths, last = [], [], []
    for t, t_end in zip(times[:-1].tolist(), times[1:].tolist()):
        n_sub = max(1, int(round((t_end - t) / substep)))
        h = (t_end - t) / n_sub
        for _ in range(n_sub):
            starts.append(t)
            widths.append(h)
            t += h
        last.append(len(starts) - 1)
    return np.array(starts), np.array(widths), last


def _loop_simulate(times, arrival, omega, l0, substep):
    """RK4 over the loop schedule, step for step as `queue_simulate`."""
    starts, widths, last = _loop_schedule(times, substep)
    stages = (starts, starts + 0.5 * widths, starts + widths)
    zeta = [np.broadcast_to(arrival(s), s.shape).tolist() for s in stages]
    rate = [np.broadcast_to(omega(s), s.shape).tolist() for s in stages]
    state, path = float(l0), []
    for h, z0, zm, z1, w0, wm, w1 in zip(widths.tolist(), *zeta, *rate):
        lc = max(state, 0.0)
        k1 = -w0 * lc / (1.0 + lc) + z0
        lc = max(state + 0.5 * h * k1, 0.0)
        k2 = -wm * lc / (1.0 + lc) + zm
        lc = max(state + 0.5 * h * k2, 0.0)
        k3 = -wm * lc / (1.0 + lc) + zm
        lc = max(state + h * k3, 0.0)
        k4 = -w1 * lc / (1.0 + lc) + z1
        state = max(state + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
        path.append(state)
    return np.concatenate([[l0], np.array(path)[last]])


@pytest.mark.parametrize("times", [[0.0, 0.5, 2.5, 2.6, 7.0], [3.0]], ids=["uneven", "one-point"])
def test_simulate_matches_the_substep_loop(times):
    # the intervals take 2, 8, 1 (0.1 rounds to 0, raised to 1) and 18
    # substeps of 0.25; every substep start is the loop's `t += h` sum, so
    # the path is bitwise the loop's
    times = np.array(times)
    stage_times = []

    def arrival(t):
        stage_times.append(t)
        return 3.0 + 2.0 * np.sin(t)

    omega = lambda t: 4.0 + np.cos(t)
    out = qa.queue_simulate(times, arrival, omega, 1.5, substep=0.25)
    starts, widths, _ = _loop_schedule(times, 0.25)
    for got, want in zip(stage_times, (starts, starts + 0.5 * widths, starts + widths)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(out, _loop_simulate(times, arrival, omega, 1.5, 0.25))
    assert out.shape == times.shape


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_simulate_rejects_a_grid_time_that_is_not_finite(bad):
    # a NaN time ended in "cannot convert float NaN to integer"
    with pytest.raises(InvalidParameterError, match=f"grid time 2 is {bad:g}; it must be finite"):
        qa.queue_simulate(np.array([0.0, 1.0, bad, 3.0]), lambda t: 1.0, lambda t: 2.0, 0.0)


def test_generator_resolves_a_fast_service_rate(monkeypatch):
    # at a fixed 0.25-minute substep, RK4 on a service rate of 40 collapsed
    # the queue to 0; the generator's truth matches a fine-substep reference
    # of the same arrivals and service rate
    calls, simulate = [], qa.queue_simulate

    def recording(times, arrival, omega, l0, **kwargs):
        calls.append((times, arrival, omega, l0))
        return simulate(times, arrival, omega, l0, **kwargs)

    monkeypatch.setattr(qa, "queue_simulate", recording)
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, omega_train=40.0), seed=1)
    reference = simulate(*calls[0], substep=0.01)
    assert reference.max() > 0.1
    np.testing.assert_allclose(ds.truth_queue, reference, rtol=0.0, atol=1e-5)


def test_generator_deterministic():
    cfg = qa.QueueGenConfig(days=2)
    a = qa.generate_queue_data(cfg, seed=5)
    b = qa.generate_queue_data(cfg, seed=5)
    np.testing.assert_array_equal(a.truth_queue, b.truth_queue)
    np.testing.assert_array_equal(a.meas_values, b.meas_values)


def test_generated_sqm_intercycle_correlation():
    # correlation of the drawn rate at a fixed phase across consecutive
    # cycles approaches exp(-1/ell_q)
    ell_q = 2.0
    kernel = K.PeriodicMatern(0.5, 1.0, 0.4, 10.0)
    basis = eb.build(kernel, 64, 10.0, 0.01)
    grid = np.arange(0.0, 201 * 10.0, 0.5)
    rng = np.random.default_rng(0)
    force = draw_periodic_force(grid, lfm.sqm_force(basis, [1.0], ell_q), rng)
    per_cycle = force[: 200 * 20].reshape(200, 20)
    corr = np.corrcoef(per_cycle[:-1].ravel(), per_cycle[1:].ravel())[0, 1]
    assert abs(corr - np.exp(-1.0 / ell_q)) < 0.1


def test_generated_with_draw_repeats_daily():
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.4, qa.DAY_MINUTES), 64, qa.DAY_MINUTES, 0.01)
    grid = np.arange(0.0, 3 * qa.DAY_MINUTES + 1e-9, 5.0)
    force = draw_periodic_force(grid, lfm.periodic_force(basis, [1.0]), np.random.default_rng(1))
    day = int(qa.DAY_MINUTES / 5.0)
    np.testing.assert_allclose(force[day:], force[:-day], rtol=0.0, atol=1e-12)


def test_generated_wqm_increment_variance():
    # the weights take a random walk with variance xi mu_j per day, so the
    # day-to-day increment at phase t has variance xi sum_j mu_j phi_j(t)^2
    xi = 0.5
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.4, 10.0), 64, 10.0, 0.01)
    grid = np.arange(0.0, 101 * 10.0, 0.5)
    increments = []
    for seed in range(40):
        force = draw_periodic_force(
            grid, lfm.wqm_force(basis, [1.0], xi), np.random.default_rng(seed)
        )
        per_cycle = force[: 101 * 20].reshape(101, 20)
        increments.append(np.diff(per_cycle, axis=0))
    phi = eb.eigenfunction_matrix(basis, grid[:20])
    expected = xi * (phi**2 @ basis.scaled_eigenvalues())
    np.testing.assert_allclose(np.var(np.concatenate(increments), axis=0), expected, rtol=0.15)


def test_generated_draw_rejects_an_unknown_kind():
    # the generator builds the force of its kind as the roster does, which
    # refuses a kind it does not know
    with pytest.raises(InvalidParameterError, match="unknown periodic roster entry 'quasi-xqm'"):
        qa.generate_queue_data(qa.QueueGenConfig(days=2, kind="quasi-xqm"), seed=0)


_PERIODIC = dict(sigma_obs=0.6, sigma_p=3.0, ell_p=0.4, ell_q=2.0)


def _generic_twin(kind, basis, f):
    """The queue model's force in a generic model whose target drift is f."""
    if kind == "quasi-sqm":
        force, changepoints = lfm.sqm_force(basis, [1.0], 2.0), [qa.DAY_MINUTES]
    else:
        force, changepoints = lfm.cqm_force(basis, [1.0], 2.0 * qa.DAY_MINUTES), []
    return lfm.assemble(np.array([[f]]), periodic=[force],
                        changepoints=changepoints)


@pytest.mark.parametrize(
    "kind,params,f,t0,dt,tol",
    [
        pytest.param("quasi-sqm", _PERIODIC, -10.0 / 3.3, 100.0, 2.0, 1e-12, id="constant"),
        pytest.param("quasi-cqm", _PERIODIC, -10.0 / 3.3, 100.0, 2.0, 1e-10, id="cqm"),
    ] + [
        # hart: an OU force with rate 1/ell and diffusion q = 2 sigma_f^2 / ell
        pytest.param("hart", dict(sigma_obs=0.6, sigma_f=(q * ell / 2.0) ** 0.5, ell_f=ell),
                     f, 0.0, dt, 1e-9, id=f"hart-f{f:g}-ell{ell:.10g}-q{q:g}")
        for f, ell, q, dt in [
            (-2.0, 100.0, 0.4, 2.0),
            (-0.5, 2.0, 1.3, 2.0),
            (-0.5, 2.0 + 1e-9, 1.0, 2.0),   # nearly degenerate f = -1/ell
            (-0.05, 800.0, 2.0, 2.0),
        ]
    ],
)
def test_relinearized_step_matches_generic(kind, params, f, t0, dt, tol):
    # the queue's (G, Q) at drift f against the generic builder's step of a
    # model with target drift f and the same force
    cfg = qa.QueueGenConfig(days=2, n_basis_points=64)
    model = qa._queue_model(kind, params, cfg)
    if kind == "hart":
        generic = lfm.assemble(np.array([[f]]), nonperiodic=model.nonperiodic)
    else:
        generic = _generic_twin(kind, model.periodic[0].basis, f)
    build = lfm.constant_weight_transition if lfm.has_constant_weights(generic) else lfm.discretize
    ref_g, ref_q = one_step(build, generic, t0, t0 + dt)
    g, q = lfm.relinearized_steps(model, dt)(int(t0 / dt), f)  # the step's cycle slot
    if q is None:  # constant weights: a step without process noise
        assert lfm.has_constant_weights(model)
        q = np.zeros_like(ref_q)
    np.testing.assert_allclose(g, ref_g, rtol=0.0, atol=tol)
    np.testing.assert_allclose(q, ref_q, rtol=0.0, atol=tol)

    # the queue model registers the same day-boundary jumps
    np.testing.assert_array_equal(model.changepoints, generic.changepoints)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((model.dim, model.dim))
    means, cov = rng.standard_normal((1, model.dim)), a @ a.T
    for got, ref in zip(lfm.apply_changepoint_moments(model, means, cov),
                        lfm.apply_changepoint_moments(generic, means, cov)):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind, params", [
    ("hart", dict(sigma_obs=0.6, sigma_f=1.2, ell_f=120.0)),
    ("with", dict(sigma_obs=0.6, sigma_p=3.0, ell_p=0.4)),
    ("quasi-cqm", _PERIODIC),
])
def test_relinearized_step_after_another_matches_a_fresh_builder(kind, params):
    # a builder rewrites one G and Q in place: after a call at another slot
    # (hart's cycle has one) and drift, a call returns what a fresh
    # builder's first call returns
    model = qa._queue_model(kind, params, qa.QueueGenConfig(days=2, n_basis_points=64))
    slot = 0 if kind == "hart" else 51
    step = lfm.relinearized_steps(model, 2.0)
    step(max(slot - 1, 0), -2.0)
    for got, fresh in zip(step(slot, -0.5), lfm.relinearized_steps(model, 2.0)(slot, -0.5)):
        np.testing.assert_array_equal(got, fresh)


@pytest.mark.parametrize("kind, params, tol", [
    ("quasi-sqm", _PERIODIC, 1e-12),
    ("quasi-cqm", _PERIODIC, 1e-10),
    ("hart", dict(sigma_obs=0.6, sigma_f=1.2, ell_f=120.0), 1e-9),
])
def test_every_relinearized_slot_matches_the_step_cycle(kind, params, tol):
    # over a whole cycle of 24 hourly slots, slot k of the queue's steps at
    # drift f is slot k of the generic twin's step cycle; adjacent slots
    # differ by far more than the tolerance, so a slot off by one fails
    f, dt = -0.05, 60.0  # |f| dt = 3: the frozen-m Van Loan is accurate here
    model = qa._queue_model(kind, params, qa.QueueGenConfig(days=2, n_basis_points=64))
    if kind == "hart":
        generic = lfm.assemble(np.array([[f]]), nonperiodic=model.nonperiodic)
    else:
        generic = _generic_twin(kind, model.periodic[0].basis, f)
    cycle = lfm.step_cycle(generic, dt)
    step = lfm.relinearized_steps(model, dt)
    n_cycle = cycle.transitions.shape[0]
    assert n_cycle == (1 if kind == "hart" else 24)
    for slot in range(n_cycle):
        g, q = step(slot, f)
        np.testing.assert_allclose(g, cycle.transitions[slot], rtol=0.0, atol=tol)
        q = np.zeros_like(g) if q is None else q  # constant weights: no noise
        np.testing.assert_allclose(q, cycle.noises[slot], rtol=0.0, atol=tol)
    if n_cycle > 1:
        shifts = np.abs(np.diff(cycle.transitions, axis=0)).max(axis=(1, 2))
        assert shifts.min() > 1e3 * tol


def _ou(coupling):
    return lfm.NonPeriodicForce(lti.matern12_block(1.2, 120.0), np.array(coupling))


def _periodic(coupling):
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.5, 1440.0), 32, 1440.0, 0.01)
    return lfm.periodic_force(basis, coupling)


@pytest.mark.parametrize("drift, nonperiodic, periodic, cause", [
    pytest.param(np.zeros((2, 2)), [_ou([1.0, 0.0])], [], "2 target states", id="two-targets"),
    pytest.param(np.zeros((1, 1)), [], [], "0 forces", id="no-force"),
    pytest.param(np.zeros((1, 1)), [_ou([1.0])], [_periodic([1.0])], "2 forces",
                 id="two-forces"),
    pytest.param(np.zeros((1, 1)), [_ou([1.0]), _ou([1.0])], [], "2 forces", id="two-ou"),
    pytest.param(np.zeros((1, 1)),
                 [lfm.NonPeriodicForce(lti.matern32_block(1.2, 120.0), np.array([1.0]))], [],
                 "a 2-state force block", id="matern32"),
    pytest.param(np.zeros((1, 1)), [_ou([2.0])], [], r"coupling \[2.0\]", id="ou-coupled-2"),
    pytest.param(np.zeros((1, 1)), [], [_periodic([2.0])], r"coupling \[2.0\]",
                 id="periodic-coupled-2"),
])
def test_relinearized_steps_refuse_a_model_they_would_step_wrong(drift, nonperiodic, periodic,
                                                                  cause):
    # the builder reads one force's first state, with unit coupling, into
    # one target: any other model raises before a step, naming the cause
    model = lfm.assemble(drift, nonperiodic=nonperiodic, periodic=periodic)
    with pytest.raises(ContractViolationError, match=f"not {cause}$"):
        lfm.relinearized_steps(model, 2.0)


def test_queue_pass_from_a_nan_mean_raises(monkeypatch):
    # the clamp of the linearization point must keep a NaN mean NaN, so that
    # the first update refuses it rather than the pass returning a NaN loglik
    initial_state = lfm.initial_state

    def nan_start(*args):
        mean, cov = initial_state(*args)
        return np.full_like(mean, np.nan), cov

    monkeypatch.setattr(lfm, "initial_state", nan_start)
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=4.0), seed=0)
    for kind, params in [("hart", dict(sigma_obs=0.5, sigma_f=1.2, ell_f=120.0)),
                         ("with", dict(sigma_obs=0.5, sigma_p=1.2, ell_p=0.5))]:
        with pytest.raises(NumericError, match="log det S = nan"):
            qa.queue_track(ds, kind, params)


def test_track_rejects_changepoints_off_the_step_grid():
    # a 7-minute step misses both day boundaries; the jumps must not be skipped
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=3, step=7.0), seed=0)
    params = dict(sigma_obs=0.5, sigma_p=1.2, ell_p=0.5, ell_q=2.0)
    with pytest.raises(ContractViolationError, match="changepoint at 1440"):
        qa.queue_track(ds, "quasi-sqm", params)


def test_track_uses_every_measurement_or_fails_loudly(monkeypatch):
    # at an 8-minute step the default 180-minute held-out interval puts every
    # other measurement between steps; such a time must not be dropped
    params = dict(sigma_obs=0.5, sigma_f=1.2, ell_f=120.0)
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=8.0), seed=0)
    with pytest.raises(ContractViolationError, match="measurement at 1620"):
        qa.queue_track(ds, "hart", params)

    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=8.0, test_meas_every=176.0), seed=0)
    updates, update = [], filtering.update
    monkeypatch.setattr(filtering, "update", lambda *args: updates.append(args) or update(*args))
    qa.queue_track(ds, "hart", params)
    assert len(updates) == ds.meas_times.size == 36 + 8


@pytest.mark.parametrize("minute, step", [(0.0, 0), (2882.0, 1441), (2884.0, 1442)])
def test_track_rejects_a_measurement_outside_the_pass(minute, step):
    # the pass of 1440 two-minute steps updates at step ends 1..1440: a
    # measurement at the record start or past its end was dropped unseen
    params = dict(sigma_obs=0.5, sigma_f=1.2, ell_f=120.0)
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2), seed=0)
    ds = dataclasses.replace(
        ds, meas_times=np.append(ds.meas_times, minute), meas_values=np.append(ds.meas_values, 3.0)
    )
    with pytest.raises(ContractViolationError, match=f"step {step} lies outside the pass of 1440"):
        qa.queue_track(ds, "hart", params)


def test_track_rejects_a_repeated_measurement_time():
    # a second measurement on one step end used to replace the first: the
    # pass updated once where the record holds two rows
    params = dict(sigma_obs=0.5, sigma_f=1.2, ell_f=120.0)
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=4.0), seed=0)
    assert 120.0 in ds.meas_times
    ds = dataclasses.replace(
        ds, meas_times=np.append(ds.meas_times, 120.0), meas_values=np.append(ds.meas_values, 50.0)
    )
    with pytest.raises(ContractViolationError, match="measurements repeat minute 120"):
        qa.queue_track(ds, "hart", params)


def test_track_times_are_the_step_ends_of_the_held_out_day():
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=4.0), seed=0)
    out = qa.queue_track(ds, "hart", dict(sigma_obs=0.5, sigma_f=1.2, ell_f=120.0))
    np.testing.assert_array_equal(out["times"], ds.times[ds.times > ds.test_start])
    assert out["times"].size == out["mean"].size == 360


def test_track_dense_measurements_hits_noise_floor():
    cfg = qa.QueueGenConfig(
        days=2, obs_noise=0.05, train_meas_every=2.0, test_meas_every=2.0
    )
    ds = qa.generate_queue_data(cfg, seed=0)
    params = dict(sigma_obs=0.05, sigma_p=2.0, ell_p=0.4, ell_q=3.0)
    out = qa.queue_track(ds, "quasi-sqm", params)
    assert out["rmse"] < 3.0 * cfg.obs_noise


ROSTER = {
    "quasi-sqm": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, ell_q=3.0),
    "quasi-wqm": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, xi=1.0),
    "quasi-cqm": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, ell_q=3.0),
    "with": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4),
    "hart": dict(sigma_obs=0.5, sigma_f=2.0, ell_f=120.0),
}


def test_track_reports_finite_metrics_all_methods():
    cfg = qa.QueueGenConfig(days=2)
    ds = qa.generate_queue_data(cfg, seed=1)
    for kind, params in ROSTER.items():
        out = qa.queue_track(ds, kind, params)
        assert np.isfinite(out["rmse"]) and np.isfinite(out["ell"])
        assert out["n_basis"] <= 30


@pytest.mark.parametrize("kind", sorted(ROSTER))
def test_queue_path_takes_no_exponential(monkeypatch, kind):
    # the generator and the relinearized steps use closed forms only, so no
    # change to pade.expm can move a queue output or a queue digest
    def refuse(a):
        raise AssertionError("the queue path took a matrix exponential")

    monkeypatch.setattr(lfm, "expm", refuse)
    monkeypatch.setattr(synth, "expm", refuse)
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, kind=kind), seed=1)
    assert np.isfinite(qa.queue_track(ds, kind, ROSTER[kind])["rmse"])


def test_variable_service_rate_runs():
    cfg = qa.QueueGenConfig(days=2, omega_test=((0.0, 15.0), (720.0, 5.0)))
    ds = qa.generate_queue_data(cfg, seed=2)
    assert ds.omega(ds.test_start + 10.0) == 15.0
    assert ds.omega(ds.test_start + 800.0) == 5.0
    assert ds.omega(10.0) == 10.0
    out = qa.queue_track(ds, "quasi-sqm",
                         dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, ell_q=3.0))
    assert np.isfinite(out["rmse"])


@pytest.mark.parametrize("kind", ["hart", "quasi-sqm"])
def test_fit_objective_is_the_training_pass_of_a_truncated_copy(monkeypatch, kind):
    # the fit used to run a copy of the record cut at the held-out start by
    # float masks; it now runs the first steps of the one record.  The copy's
    # full pass is the reference: 3 days, so quasi-sqm jumps inside it
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=3, step=4.0, kind=kind), seed=5)
    train = dataclasses.replace(
        ds,
        times=ds.times[ds.times <= ds.test_start + 1e-9],
        meas_times=ds.meas_times[ds.meas_times <= ds.test_start],
        meas_values=ds.meas_values[ds.meas_times <= ds.test_start],
    )
    objectives = []
    monkeypatch.setattr(learn, "fit", lambda objective, space, **_: objectives.append(objective))
    qa.queue_fit(ds, kind)
    for sigma_obs in (0.5, 1.5):
        params = dict(ROSTER[kind], sigma_obs=sigma_obs)
        model = qa._queue_model(kind, params, ds.config)
        reference, _, _, records = qa._run_queue_filter(model, train, sigma_obs,
                                                        train.times.size - 1)
        assert len(records) == 720
        assert objectives[0](params) == reference


@pytest.mark.parametrize("run", [
    lambda ds: qa.queue_fit(ds, "hart", budget=8),
    lambda ds: qa.queue_track(ds, "hart", ROSTER["hart"]),
], ids=["fit", "track"])
def test_a_held_out_start_off_the_step_grid_raises(run):
    # 7-minute steps miss minute 1440: the fit ran to minute 1435 and the
    # track scored 206 steps from minute 1442, with no error
    cfg = qa.QueueGenConfig(days=2, step=7.0, train_meas_every=28.0, test_meas_every=2100.0)
    ds = qa.generate_queue_data(cfg, seed=0)
    with pytest.raises(ContractViolationError,
                       match=r"held-out start at 1440 is not on the step grid 0 \+ k \* 7"):
        run(ds)


def test_fit_improves_loglik_and_is_deterministic():
    cfg = qa.QueueGenConfig(days=2)
    ds = qa.generate_queue_data(cfg, seed=3)
    a = qa.queue_fit(ds, "hart", budget=30, seed=0)
    b = qa.queue_fit(ds, "hart", budget=30, seed=0)
    assert a.params == b.params
    assert a.value >= a.trace[0]


def test_generator_validation():
    with pytest.raises(InvalidParameterError):
        qa.generate_queue_data(qa.QueueGenConfig(days=1), seed=0)
    with pytest.raises(InvalidParameterError):
        qa.queue_simulate([0.0, 1.0], lambda t: 0.0, lambda t: 1.0, 0.0, substep=0.0)
    with pytest.raises(InvalidParameterError, match="service rates must be > 0"):
        qa.generate_queue_data(qa.QueueGenConfig(days=2, omega_test=((0.0, 0.0),)), seed=0)


def test_reader_refuses_a_service_rate_at_or_below_zero(tmp_path):
    # the reader rebuilds the service rate from the config: a negative rate
    # would make the linearized queue grow without bound in the filter
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=4.0), seed=0)
    app_io.write_queue_dataset(tmp_path, ds)
    config = qa.QueueGenConfig(days=2, step=4.0, omega_test=((0.0, -5.0),))
    with pytest.raises(InvalidParameterError,
                       match=r"service rates must be > 0, got \[10.0, -5.0\]"):
        app_io.read_queue_dataset(tmp_path, config)


@pytest.mark.parametrize("start", [-1.0, 1440.0, 2000.0])
def test_omega_test_starts_must_lie_in_the_day(tmp_path, start):
    # a piece that starts outside the test day would be dropped without a
    # word, by the generator and by the reader of a record
    config = qa.QueueGenConfig(days=2, omega_test=((0.0, 15.0), (start, 40.0)))
    message = rf"omega_test start minutes must lie in the test day \[0, 1440\), got \[0.0, {start}\]"
    with pytest.raises(InvalidParameterError, match=message):
        qa.generate_queue_data(config, seed=0)
    app_io.write_queue_dataset(tmp_path, qa.generate_queue_data(qa.QueueGenConfig(days=2), seed=0))
    with pytest.raises(InvalidParameterError, match=message):
        app_io.read_queue_dataset(tmp_path, config)


def test_csv_roundtrip(tmp_path):
    cfg = qa.QueueGenConfig(days=2, omega_test=((0.0, 15.0), (720.0, 5.0)))
    ds = qa.generate_queue_data(cfg, seed=4)
    app_io.write_queue_dataset(tmp_path, ds)
    back = app_io.read_queue_dataset(tmp_path, cfg)
    np.testing.assert_allclose(back.truth_queue, ds.truth_queue, rtol=1e-9)
    np.testing.assert_allclose(back.meas_values, ds.meas_values, rtol=1e-9)
    assert back.test_start == ds.test_start
    # the dataset stores neither: both derive from the config it was read with
    assert {"test_start", "omega"}.isdisjoint(f.name for f in dataclasses.fields(back))
    rates = back.omega(ds.times)
    np.testing.assert_array_equal(rates, ds.omega(ds.times))
    assert set(rates.tolist()) == {10.0, 15.0, 5.0}


def test_csv_header_check(tmp_path):
    (tmp_path / "arrivals.csv").write_text("time,rate\n0,1\n")
    with pytest.raises(InvalidParameterError):
        app_io.read_queue_dataset(tmp_path, qa.QueueGenConfig(days=2))


def test_reader_refuses_an_empty_file(tmp_path):
    # a file without a header line ended in a bare StopIteration
    (tmp_path / "arrivals.csv").write_text("")
    with pytest.raises(InvalidParameterError,
                       match=r"arrivals.csv: expected columns \['time_min', 'arrival_rate'\], "
                             r"found \[\]"):
        app_io.read_queue_dataset(tmp_path, qa.QueueGenConfig(days=2))


def test_reader_checks_the_time_grid(tmp_path):
    # the filter steps along the file's times: a 2-minute record read at a
    # 4-minute step would label 4-minute steps with 2-minute times
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2, step=2.0), seed=0)
    app_io.write_queue_dataset(tmp_path, ds)
    with pytest.raises(InvalidParameterError,
                       match="queue_truth.csv: time step 2 found at 0, 4 expected"):
        app_io.read_queue_dataset(tmp_path, qa.QueueGenConfig(days=2, step=4.0))


def test_reader_requires_whole_days(tmp_path):
    # the last day is held out: a 2.6-day record would score 0.6 of a day
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=3), seed=0)
    app_io.write_queue_dataset(tmp_path, ds)
    path = tmp_path / "queue_truth.csv"
    lines = path.read_text().splitlines()
    keep = [line for line in lines[1:] if float(line.split(",")[0]) <= 2.6 * 1440]
    path.write_text("\n".join(lines[:1] + keep) + "\n")
    with pytest.raises(InvalidParameterError,
                       match=r"queue_truth.csv: the record ends at minute 3744 \(2.6 days\)"):
        app_io.read_queue_dataset(tmp_path, ds.config)


def test_reader_requires_the_record_to_start_at_minute_0(tmp_path):
    # a record without its first day would be read as the days it ends in,
    # so its held-out day would be scored under the wrong day number
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=3), seed=0)
    app_io.write_queue_dataset(tmp_path, ds)
    for name in ("arrivals.csv", "queue_truth.csv", "queue_meas.csv"):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        keep = [line for line in lines[1:] if float(line.split(",")[0]) >= 1440]
        path.write_text("\n".join(lines[:1] + keep) + "\n")
    with pytest.raises(InvalidParameterError,
                       match="queue_truth.csv: the record starts at minute 1440; it must start "
                             "at minute 0"):
        app_io.read_queue_dataset(tmp_path, ds.config)


@pytest.mark.parametrize("minute", [20000.0, 0.0])
def test_reader_requires_the_measurements_inside_the_record(tmp_path, minute):
    # the pass reads a measurement at the end of a step: one at or before the
    # first time or past the last would be dropped without a word
    ds = qa.generate_queue_data(qa.QueueGenConfig(days=2), seed=0)
    app_io.write_queue_dataset(tmp_path, ds)
    path = tmp_path / "queue_meas.csv"
    path.write_text(path.read_text() + f"{minute:g},3\n")
    with pytest.raises(InvalidParameterError,
                       match=f"queue_meas.csv: measurement at minute {minute:g} lies outside"):
        app_io.read_queue_dataset(tmp_path, ds.config)
