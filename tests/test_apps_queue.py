import numpy as np
import pytest

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import lfm, lti
from eigenlfm.apps import io as app_io
from eigenlfm.apps import queueing as qa
from eigenlfm.errors import ContractViolationError, InvalidParameterError
from eigenlfm.filtering import GaussianState, predict, update
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


def test_generator_deterministic():
    cfg = qa.QueueGenConfig(days=2)
    a = qa.generate_queue_data(cfg, seed=5)
    b = qa.generate_queue_data(cfg, seed=5)
    np.testing.assert_array_equal(a.truth_queue, b.truth_queue)
    np.testing.assert_array_equal(a.meas_values, b.meas_values)


def test_generated_sqm_intercycle_correlation():
    # correlation of the drawn rate at a fixed phase across consecutive
    # cycles approaches exp(-1/ell_q)
    from eigenlfm.apps.synth import draw_periodic_force

    ell_q = 2.0
    kernel = K.PeriodicMatern(0.5, 1.0, 0.4, 10.0)
    basis = eb.build(kernel, 64, 10.0, 0.01)
    grid = np.arange(0.0, 201 * 10.0, 0.5)
    rng = np.random.default_rng(0)
    force = draw_periodic_force(grid, basis, "quasi-sqm", rng, ell_q=ell_q)
    per_cycle = force[: 200 * 20].reshape(200, 20)
    corr = np.corrcoef(per_cycle[:-1].ravel(), per_cycle[1:].ravel())[0, 1]
    assert abs(corr - np.exp(-1.0 / ell_q)) < 0.1


def _random_moments(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return rng.standard_normal(dim), a @ a.T + np.eye(dim)


def test_specialized_constant_weight_step_matches_generic():
    # the queue's closed-form predict for constant weights against the generic
    # constant-weight transition of a model with the linearized drift f
    cfg = qa.QueueGenConfig(days=2, n_basis_points=64)
    params = dict(sigma_obs=0.6, sigma_p=3.0, ell_p=0.4, ell_q=2.0)
    model = qa._queue_model("quasi-sqm", params, cfg)
    basis = model.periodic[0].basis
    m0, p0 = _random_moments(model.dim, 0)

    force = lfm.sqm_force(basis, [1.0], 1.0, 2.0)
    f = -10.0 / 3.3
    generic = lfm.assemble(
        lfm.TargetModel(np.array([[f]])), periodic=[force], changepoints=[1440.0]
    )
    g, q = one_step(lfm.constant_weight_transition, generic, 100.0, 102.0)
    ref = predict(GaussianState(m0.copy(), p0.copy(), 100.0), g, q)
    phi_nodes = eb.eigenfunction_matrix(basis, 100.0 + 2.0 * qa._GAUSS_X)
    mean, cov = qa._predict(model, m0.copy(), p0.copy(), f, 2.0, phi_nodes)
    np.testing.assert_allclose(mean, ref.mean, atol=1e-12)
    np.testing.assert_allclose(cov, ref.cov, atol=1e-12)

    # the queue model registers the same day-boundary jump
    np.testing.assert_array_equal(model.changepoints, generic.changepoints)
    ref_means, ref_cov = lfm.apply_changepoint_moments(generic, ref.mean[None, :], ref.cov)
    means, cov = lfm.apply_changepoint_moments(model, mean[None, :], cov)
    np.testing.assert_allclose(means[0], ref_means[0], atol=1e-12)
    np.testing.assert_allclose(cov, ref_cov, atol=1e-12)


def test_specialized_cqm_step_matches_generic():
    # the queue's closed-form predict for OU weights against the generic
    # frozen-m Van Loan discretization
    cfg = qa.QueueGenConfig(days=2, n_basis_points=64)
    params = dict(sigma_obs=0.6, sigma_p=3.0, ell_p=0.4, ell_q=2.0)
    model = qa._queue_model("quasi-cqm", params, cfg)
    basis = model.periodic[0].basis
    m0, p0 = _random_moments(model.dim, 1)

    force = lfm.cqm_force(basis, [1.0], 1.0, 2.0 * qa.DAY_MINUTES)
    f = -10.0 / 3.3
    generic = lfm.assemble(lfm.TargetModel(np.array([[f]])), periodic=[force])
    g, q = one_step(lfm.discretize, generic, 100.0, 102.0)
    ref = predict(GaussianState(m0.copy(), p0.copy(), 100.0), g, q)
    phi_t0 = eb.eigenfunction_matrix(basis, 100.0)[0]
    mean, cov = qa._predict(model, m0.copy(), p0.copy(), f, 2.0, phi_t0)
    np.testing.assert_allclose(mean, ref.mean, atol=1e-10)
    np.testing.assert_allclose(cov, ref.cov, atol=1e-10)


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
    updates = []
    monkeypatch.setattr(qa, "update", lambda *args: updates.append(args) or update(*args))
    qa.queue_track(ds, "hart", params)
    assert len(updates) == ds.meas_times.size == 36 + 8


@pytest.mark.parametrize(
    "f,ell,q,dt",
    [
        (-2.0, 100.0, 0.4, 2.0),
        (-0.5, 2.0, 1.3, 2.0),
        (-0.5, 2.0 + 1e-9, 1.0, 2.0),   # nearly degenerate f = -1/ell
        (-0.05, 800.0, 2.0, 2.0),
    ],
)
def test_ou_target_step_matches_van_loan(f, ell, q, dt):
    c = 1.0 / ell
    e_f, g, e_u, q11, q12, q22 = qa._ou_target_step(f, c, q, dt)
    blk = lti.LtiSde(np.array([[-c]]), np.array([[1.0]]), q, np.array([1.0]))
    model = lfm.assemble(
        lfm.TargetModel(np.array([[f]])),
        nonperiodic=[lfm.NonPeriodicForce(blk, np.array([1.0]))],
    )
    tr_g, tr_q = one_step(lfm.discretize, model, 0.0, dt)
    np.testing.assert_allclose(
        np.array([[e_f, g], [0.0, e_u]]), tr_g, atol=1e-9
    )
    np.testing.assert_allclose(
        np.array([[q11, q12], [q12, q22]]), tr_q, atol=1e-9
    )


def test_track_dense_measurements_hits_noise_floor():
    cfg = qa.QueueGenConfig(
        days=2, obs_noise=0.05, train_meas_every=2.0, test_meas_every=2.0
    )
    ds = qa.generate_queue_data(cfg, seed=0)
    params = dict(sigma_obs=0.05, sigma_p=2.0, ell_p=0.4, ell_q=3.0)
    out = qa.queue_track(ds, "quasi-sqm", params)
    assert out["rmse"] < 3.0 * cfg.obs_noise


def test_track_reports_finite_metrics_all_methods():
    cfg = qa.QueueGenConfig(days=2)
    ds = qa.generate_queue_data(cfg, seed=1)
    roster = {
        "quasi-sqm": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, ell_q=3.0),
        "quasi-wqm": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, xi=1.0),
        "quasi-cqm": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, ell_q=3.0),
        "with": dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4),
        "hart": dict(sigma_obs=0.5, sigma_f=2.0, ell_f=120.0),
    }
    for kind, params in roster.items():
        out = qa.queue_track(ds, kind, params)
        assert np.isfinite(out["rmse"]) and np.isfinite(out["ell"])
        assert out["n_basis"] <= 30


def test_variable_service_rate_runs():
    cfg = qa.QueueGenConfig(days=2, omega_test=((0.0, 15.0), (720.0, 5.0)))
    ds = qa.generate_queue_data(cfg, seed=2)
    assert ds.omega(ds.test_start + 10.0) == 15.0
    assert ds.omega(ds.test_start + 800.0) == 5.0
    assert ds.omega(10.0) == 10.0
    out = qa.queue_track(ds, "quasi-sqm",
                         dict(sigma_obs=0.5, sigma_p=2.0, ell_p=0.4, ell_q=3.0))
    assert np.isfinite(out["rmse"])


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


def test_csv_roundtrip(tmp_path):
    cfg = qa.QueueGenConfig(days=2)
    ds = qa.generate_queue_data(cfg, seed=4)
    app_io.write_queue_dataset(tmp_path, ds)
    back = app_io.read_queue_dataset(tmp_path, cfg)
    np.testing.assert_allclose(back.truth_queue, ds.truth_queue, rtol=1e-9)
    np.testing.assert_allclose(back.meas_values, ds.meas_values, rtol=1e-9)
    assert back.test_start == ds.test_start


def test_csv_header_check(tmp_path):
    (tmp_path / "arrivals.csv").write_text("time,rate\n0,1\n")
    with pytest.raises(InvalidParameterError):
        app_io.read_queue_dataset(tmp_path, qa.QueueGenConfig(days=2))
