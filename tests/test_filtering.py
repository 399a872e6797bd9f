import functools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from eigenlfm import eigenbasis as eb
from eigenlfm import filtering
from eigenlfm import kernels as K
from eigenlfm import lfm, lti
from eigenlfm.apps import queueing, thermal
from eigenlfm.errors import ContractViolationError, InvalidParameterError, NumericError
from eigenlfm.filtering import (
    kalman_pass,
    particle_draws,
    predict,
    rbpf_predict_day,
    update,
)
import oracles
from helpers import one_step

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import QUEUE_PARAMS, THERMAL_PARAMS  # noqa: E402


def test_predict_identity():
    mean, cov = np.array([1.0, -2.0]), np.eye(2)
    out_mean, out_cov = predict(mean, cov, np.eye(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(out_mean, mean)
    np.testing.assert_array_equal(out_cov, cov)


def test_predict_scalar_variance():
    _, cov = predict(np.array([0.0]), np.array([[1.0]]), np.array([[0.5]]), np.array([[0.75]]))
    assert cov[0, 0] == pytest.approx(1.0)


def test_predict_input_term():
    mean, _ = predict(np.zeros(3), np.eye(3), np.eye(3), np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(mean, [1.0, 0.0, 0.0])


def test_predict_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        predict(np.zeros(3), np.eye(3), np.eye(2), np.zeros((2, 2)))


def test_predict_rejects_a_transition_or_noise_that_is_not_square():
    # a (2,) Q would broadcast into every row of G P G^T
    with pytest.raises(InvalidParameterError, match=r"noise of shape \(2,\) must both be \(2, 2\)"):
        predict(np.zeros(2), np.eye(2), np.eye(2), np.array([1.0, 2.0]))
    # a (3, 2) G would turn a 2-state mean into a 3-state one
    with pytest.raises(InvalidParameterError, match=r"transition of shape \(3, 2\)"):
        predict(np.zeros(2), np.eye(2), np.ones((3, 2)), np.eye(3))
    with pytest.raises(InvalidParameterError, match=r"transition of shape \(3, 2\)"):
        predict(np.zeros((4, 2)), np.eye(2), np.ones((3, 2)), np.eye(3))
    # without noise the transition is still checked
    with pytest.raises(InvalidParameterError, match=r"transition of shape \(3, 2\)"):
        predict(np.zeros(2), np.eye(2), np.ones((3, 2)), None)


def test_predict_without_noise_is_predict_with_zero_noise():
    rng = np.random.default_rng(2)
    a, g, b = rng.standard_normal((3, 5, 5))
    mean, cov = rng.standard_normal(5), a @ a.T
    for input_term in (None, b[0]):
        got = predict(mean, cov, g, None, input_term)
        ref = predict(mean, cov, g, np.zeros((5, 5)), input_term)
        for x, y in zip(got, ref):
            np.testing.assert_array_equal(x, y)


def test_update_scalar():
    mean, cov, log_density = update(np.array([0.0]), np.array([[1.0]]), [[1.0]], [[1.0]], [2.0])
    assert mean[0] == pytest.approx(1.0)
    assert cov[0, 0] == pytest.approx(0.5)
    # innovation 2 with variance S = 2
    assert log_density == pytest.approx(-0.5 * (math.log(2.0 * math.pi * 2.0) + 2.0**2 / 2.0))


def test_update_uninformative():
    mean, cov, _ = update(np.array([0.7]), np.array([[1.3]]), [[1.0]], [[1e12]], [100.0])
    assert mean[0] == pytest.approx(0.7, abs=1e-6)
    assert cov[0, 0] == pytest.approx(1.3, abs=1e-6)


def test_update_zero_innovation_contracts():
    mean, cov, _ = update(np.array([0.7]), np.array([[1.3]]), [[1.0]], [[0.5]], [0.7])
    assert mean[0] == pytest.approx(0.7)
    assert cov[0, 0] < 1.3


def test_update_trace_never_grows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        mean, cov = rng.standard_normal(4), a @ a.T + 0.1 * np.eye(4)
        h = rng.standard_normal((2, 4))
        _, post, _ = update(mean, cov, h, np.diag([0.3, 0.9]), rng.standard_normal(2))
        assert np.trace(post) <= np.trace(cov) + 1e-10


def test_update_joseph_form_ill_conditioned():
    h = np.array([[1e4, 1.0]])
    _, cov, _ = update(np.zeros(2), np.diag([1.0, 1e-8]), h, [[1e-4]], [3.0])
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() >= -1e-10 * np.trace(cov)


def test_update_downdate_ill_conditioned_in_the_thermal_layout():
    # both temperatures observed (H = [e_0; e_lo]) with the thermal fit's
    # smallest noise, sigma = 0.005, on a predicted prior whose variances
    # reach 1e2 and whose other states follow the observed two: the downdate
    # P - W^T W cancels all but about 1e-3 of the prior's trace
    rng = np.random.default_rng(1)
    c, lo = 28, 1
    sd = np.sqrt(np.logspace(-6, 2, c))
    sd[[0, lo]] = 10.0
    a = rng.standard_normal((c, c))
    a[:, 2:] *= 1e-3
    norms = np.linalg.norm(a, axis=1)
    corr = a @ a.T / np.outer(norms, norms)
    g = np.eye(c) + 1e-3 * rng.standard_normal((c, c))
    mean, prior = predict(np.zeros(c), corr * np.outer(sd, sd), g, np.zeros((c, c)))
    h = np.zeros((2, c))
    h[0, 0] = h[1, lo] = 1.0
    _, cov, _ = update(mean, prior, h, 0.005**2 * np.eye(2), [0.3, -0.2])
    assert np.trace(cov) < 1e-3 * np.trace(prior)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * np.trace(cov)


@pytest.mark.parametrize("d", [1, 2])
def test_update_posterior_is_exactly_symmetric(d):
    # `predict` leaves its covariance asymmetric at round-off; `update`
    # downdates the symmetrized prior by W^T W, which numpy forms as a
    # symmetric rank-d product, so the posterior is exactly symmetric
    rng = np.random.default_rng(30 + d)
    c = 28
    for _ in range(10):
        a, g = rng.standard_normal((c, c)), rng.standard_normal((c, c)) / math.sqrt(c)
        mean, prior = predict(rng.standard_normal(c), a @ a.T / c, g, 0.01 * np.eye(c))
        assert not np.array_equal(prior, prior.T)
        _, cov, _ = update(mean, prior, rng.standard_normal((d, c)), 0.1 * np.eye(d),
                           rng.standard_normal(d))
        assert np.array_equal(cov, cov.T)


def _reference_update(mean, cov, h, z, y):
    """Joseph update with scipy's Cholesky wrappers: (mean, cov, log_density)."""
    innovation = y - h @ mean
    s = h @ cov @ h.T + z
    s = 0.5 * (s + s.T)
    chol = scipy.linalg.cho_factor(s, lower=True)
    gain = scipy.linalg.cho_solve(chol, h @ cov).T
    post_mean = mean + gain @ innovation
    closed = np.eye(mean.size) - gain @ h
    post = closed @ cov @ closed.T + gain @ z @ gain.T
    white = scipy.linalg.solve_triangular(chol[0], innovation, lower=True)
    log_det = 2.0 * np.sum(np.log(np.diag(chol[0])))
    log_density = -0.5 * (y.size * math.log(2.0 * math.pi) + log_det + white @ white)
    return post_mean, 0.5 * (post + post.T), log_density


@pytest.mark.parametrize("d", [1, 2])
def test_update_matches_scipy_reference(d):
    rng = np.random.default_rng(d)
    c = 28
    for _ in range(10):
        a = rng.standard_normal((c, c))
        mean, cov = rng.standard_normal(c), a @ a.T / c + 0.01 * np.eye(c)
        h = rng.standard_normal((d, c))
        b = rng.standard_normal((d, d))
        z = b @ b.T + 0.1 * np.eye(d)
        y = rng.standard_normal(d)
        got_mean, got_cov, got_log_density = update(mean, cov, h, z, y)
        ref_mean, ref_cov, ref_log_density = _reference_update(mean, cov, h, z, y)
        np.testing.assert_allclose(got_mean, ref_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_cov, ref_cov, rtol=1e-12, atol=1e-12)
        assert got_log_density == pytest.approx(ref_log_density, rel=1e-12, abs=1e-12)


def test_update_refuses_more_than_two_observed_entries():
    # the closed-form factor covers d = 1 (queue, particle filter) and d = 2
    # (thermal); a d = 3 update with well-formed shapes is refused, naming d
    with pytest.raises(InvalidParameterError, match="not d = 3"):
        update(np.zeros(4), np.eye(4), np.eye(3, 4), np.eye(3), np.ones(3))


def test_update_rejects_an_observation_of_the_wrong_shape():
    # one entry for d = 2 would broadcast against the two predicted entries
    with pytest.raises(InvalidParameterError, match=r"shape \(1,\).*must have shape \(2,\)"):
        update(np.zeros(3), np.eye(3), np.eye(2, 3), np.eye(2), [1.0])
    # one mean per update: a bank of means (P, C) is refused
    with pytest.raises(InvalidParameterError, match=r"for a mean of shape \(4, 3\)"):
        update(np.zeros((4, 3)), np.eye(3), np.eye(2, 3), np.eye(2), [1.0, 2.0])


def test_update_rejects_observation_noise_that_is_not_d_by_d():
    # a (2,) R would broadcast into both rows of H P H^T and give a wrong S
    with pytest.raises(InvalidParameterError, match=r"noise of shape \(2,\) must be \(2, 2\)"):
        update(np.zeros(3), np.eye(3), np.eye(2, 3), [0.1, 0.2], [1.0, 2.0])
    with pytest.raises(InvalidParameterError, match=r"noise of shape \(\)"):
        update(np.zeros(1), np.eye(1), [[1.0]], 0.5, [1.0])


def test_update_rejects_a_scalar_observation():
    # one observed entry is a (1,) observation, not a 0-d one
    with pytest.raises(InvalidParameterError, match=r"shape \(\).*must have shape \(1,\)"):
        update(np.zeros(2), np.eye(2), [[1.0, 0.0]], [[0.5]], 2.0)
    with pytest.raises(InvalidParameterError, match=r"observation matrix of shape \(2,\)"):
        update(np.zeros(2), np.eye(2), [1.0, 0.0], [[0.5]], [2.0])


def test_update_singular_innovation_raises():
    with pytest.raises(NumericError, match="singular"):
        update(np.zeros(2), np.diag([1.0, 0.0]), [[0.0, 1.0]], [[0.0]], [1.0])


@pytest.mark.parametrize(
    "cov, h, noise, match",
    [
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [[-2.0]], "singular"),
        ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [[0.1]], "not finite"),  # NaN passes a pivot
        ([[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [[0.1]], "not finite"),
        # d = 2: S = [[1, 1], [1, 1 + r]] (P all ones, H = I) has second pivot r = R[1, 1]
        (np.ones((2, 2)), np.eye(2), [[0.0, 0.0], [0.0, 0.0]], "singular"),
        (np.ones((2, 2)), np.eye(2), [[0.0, 0.0], [0.0, -0.5]], "singular"),
        (np.ones((2, 2)), np.eye(2), [[0.0, 0.0], [0.0, np.nan]], "not finite"),
        (np.ones((2, 2)), np.eye(2), [[0.0, 0.0], [0.0, np.inf]], "not finite"),
    ],
    ids=["indefinite", "nan", "inf", "d2-zero-pivot", "d2-negative-pivot", "d2-nan", "d2-inf"],
)
def test_update_rejects_an_innovation_covariance_it_cannot_factor(cov, h, noise, match):
    with pytest.raises(NumericError, match=match):
        update(np.zeros(2), np.array(cov), h, noise, np.full(len(h), 0.5))


def test_log_likelihood_single_measurement():
    _, _, log_density = update(np.array([0.0]), np.array([[1.0]]), [[1.0]], [[1.0]], [0.0])
    assert log_density == pytest.approx(-0.5 * math.log(4.0 * math.pi))
    assert log_density == pytest.approx(-1.26551, abs=5e-6)


def test_log_likelihood_block_independence():
    *_, joint = update(np.array([0.0, 1.0]), np.diag([1.0, 2.0]), np.eye(2),
                       np.diag([0.5, 0.25]), [0.3, 0.6])
    *_, a = update(np.array([0.0]), np.array([[1.0]]), [[1.0]], [[0.5]], [0.3])
    *_, b = update(np.array([1.0]), np.array([[2.0]]), [[1.0]], [[0.25]], [0.6])
    assert joint == pytest.approx(a + b, rel=1e-12)


def _scalar_step(g, q):
    """`kalman_pass` step callable of a scalar state with one (G, Q)."""
    return lambda k, mean: (np.array([[g]]), np.array([[q]]), None)


def test_kalman_pass_matches_the_loop_it_runs():
    # predict, jump on the changepoint steps, record the predictive marginal,
    # then update where an observation is keyed
    g, q, noise = 0.9, 0.3, 0.5
    observations = {2: [1.5], 3: [-0.4], 5: [0.8]}
    jumped = []

    def jump(mean, cov):
        jumped.append(len(jumped))
        return 0.5 * mean, cov + 1.0

    loglik, mean, cov, records = kalman_pass(
        np.array([1.0]), np.array([[2.0]]), 5, _scalar_step(g, q), {3},
        observations, [[1.0]], [[noise]], jump=jump,
    )

    ref_mean, ref_cov, ref_loglik, ref_records = np.array([1.0]), np.array([[2.0]]), 0.0, []
    for k in range(1, 6):
        ref_mean, ref_cov = g * ref_mean, g * ref_cov * g + q
        if k == 3:
            ref_mean, ref_cov = 0.5 * ref_mean, ref_cov + 1.0
        ref_records.append((ref_mean[0], ref_cov[0, 0]))
        if k in observations:
            ref_mean, ref_cov, log_density = update(ref_mean, ref_cov, [[1.0]], [[noise]], observations[k])
            ref_loglik += log_density
    assert jumped == [0]
    assert len(records) == 5
    np.testing.assert_allclose(records, ref_records, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(cov, ref_cov, rtol=1e-12, atol=0.0)
    assert loglik == pytest.approx(ref_loglik, rel=1e-12)


def test_kalman_pass_keeps_no_array_of_a_step():
    # a step may rewrite and return the same G and Q on every call: the pass
    # reads them before the next call, so the pass equals one over fresh arrays
    rng = np.random.default_rng(4)
    c = 4
    gs = [np.eye(c) + 0.2 * rng.standard_normal((c, c)) for _ in range(3)]
    qs = [0.1 * a @ a.T for a in rng.standard_normal((3, c, c))]
    g_buf, q_buf = np.empty((c, c)), np.empty((c, c))

    def rewriting(k, mean):
        g_buf[...], q_buf[...] = gs[k % 3], qs[k % 3]
        return g_buf, q_buf, None

    observations = {k: rng.standard_normal(1) for k in range(2, 31, 3)}
    passes = [
        kalman_pass(np.zeros(c), np.eye(c), 30, step, {7, 20}, observations,
                    np.eye(1, c), [[0.25]], jump=lambda mean, cov: (mean, cov + np.eye(c)))
        for step in (rewriting, lambda k, mean: (gs[k % 3].copy(), qs[k % 3].copy(), None))
    ]
    (loglik, mean, cov, records), (ref_loglik, ref_mean, ref_cov, ref_records) = passes
    assert loglik == ref_loglik
    assert records == ref_records
    np.testing.assert_array_equal(mean, ref_mean)
    np.testing.assert_array_equal(cov, ref_cov)


@pytest.mark.parametrize("key", [0, 6, -1])
def test_kalman_pass_rejects_an_observation_outside_it(key):
    # an observation keyed off steps 1..n_steps would never be reached
    with pytest.raises(ContractViolationError, match=f"step {key} lies outside the pass of 5"):
        kalman_pass(np.zeros(1), np.eye(1), 5, _scalar_step(1.0, 0.0), set(),
                    {2: [0.0], key: [1.0]}, [[1.0]], [[1.0]], jump=None)


def test_covariance_stays_symmetric_over_predict_only_stretches():
    # predict does not symmetrize; update does.  Over 24 predictions between
    # updates (as in the queue) round-off keeps every covariance symmetric
    # and PSD to working precision.  A jump on every step sees each
    # predicted covariance.
    rng = np.random.default_rng(5)
    c = 20
    a = rng.standard_normal((c, c))
    g = scipy.linalg.expm(-0.1 * np.eye(c) + 0.3 * (a - a.T) + 0.05 * rng.standard_normal((c, c)))
    b = rng.standard_normal((c, c))
    q, h, noise = 0.01 * b @ b.T, rng.standard_normal((2, c)), 0.1 * np.eye(2)
    observations = {k: rng.standard_normal(2) for k in range(25, 401, 25)}
    covs = []

    def jump(mean, cov):
        covs.append(cov)
        return mean, cov

    *_, cov, _ = kalman_pass(np.zeros(c), np.eye(c), 400, lambda k, _: (g, q, None),
                             set(range(1, 401)), observations, h, noise, jump=jump)
    assert len(covs) == 400
    for p in [*covs, cov]:
        scale = np.abs(p).max()
        assert np.abs(p - p.T).max() <= 1e-13 * scale
        assert np.linalg.eigvalsh(p).min() >= -1e-12 * scale
    np.testing.assert_array_equal(cov, cov.T)  # the pass ends on an update


def test_every_posterior_of_the_bench_passes_stays_psd(monkeypatch):
    # at the benchmark's parameters on 2-day records: the training pass of
    # every thermal method and the track pass of every queue method keep
    # each posterior's smallest eigenvalue >= -1e-12 of its largest
    floors = []

    def recording(*args):
        mean, cov, log_density = update(*args)
        eigs = np.linalg.eigvalsh(cov)
        floors.append(eigs[0] / eigs[-1])
        return mean, cov, log_density

    monkeypatch.setattr(filtering, "update", recording)
    dataset = thermal.generate_thermal_data(thermal.ThermalGenConfig(days=2), seed=3)
    for kind in thermal.THERMAL_METHODS:
        thermal._trained_state(dataset, kind, THERMAL_PARAMS[kind], envelope=False)
    n_thermal = len(thermal.THERMAL_METHODS) * round(dataset.test_start / dataset.config.step)
    dataset = queueing.generate_queue_data(queueing.QueueGenConfig(days=2), seed=3)
    for kind in queueing.QUEUE_METHODS:
        queueing.queue_track(dataset, kind, QUEUE_PARAMS[kind])
    assert len(floors) == n_thermal + len(queueing.QUEUE_METHODS) * dataset.meas_times.size
    assert min(floors) >= -1e-12


def _cycle_step(cycle, slots):
    """The RBPF's `step(k, means)` over the cycle's slots, with its input term."""
    return lambda k, _: (cycle.transitions[slots[k - 1]], cycle.noises[slots[k - 1]],
                         cycle.input_on)


def _rbpf(model, init, setpoint, n_particles, step, horizon, seed):
    """RBPF from the moments `init` at time 0 over the slots and changepoints
    of `lfm.pass_schedule`, jumping with the model's moments, with
    `setpoint(t)` read at the pass start and every step end."""
    n_steps = int(round(horizon / step))
    slots, changepoints = lfm.pass_schedule(model, step, 0.0, n_steps)
    setpoints = [setpoint(k * step) for k in range(n_steps + 1)]
    return rbpf_predict_day(
        *init, n_steps, _cycle_step(lfm.step_cycle(model, step), slots), changepoints,
        setpoints, n_particles, particle_draws(seed, n_particles, n_steps),
        jump=functools.partial(lfm.apply_changepoint_moments, model),
    )


def _thermal_toy(beta: float):
    return lfm.assemble(
        np.array([[-0.01]]),
        nonperiodic=[
            lfm.NonPeriodicForce(lti.matern32_block(2.0, 600.0), np.array([0.01]))
        ],
        binary_input=[beta],
    )


def test_rbpf_validation():
    model = _thermal_toy(0.1)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    with pytest.raises(InvalidParameterError):
        _rbpf(model, init, lambda t: 0.0, 0, 10.0, 100.0, 0)
    with pytest.raises(InvalidParameterError):
        _rbpf(model, init, lambda t: float("nan"), 4, 10.0, 100.0, 0)
    with pytest.raises(InvalidParameterError):  # checked before the first step
        _rbpf(model, init, lambda t: float("nan") if t == 100.0 else 0.0, 4, 10.0, 100.0, 0)
    step = _cycle_step(lfm.step_cycle(model, 10.0), [0] * 10)
    for count in (10, 12):  # one set point short or over, checked before the first step
        with pytest.raises(InvalidParameterError,
                           match=f"{count} set points for a pass of 10 steps; it needs 11"):
            rbpf_predict_day(*init, 10, step, set(), np.zeros(count), 4, particle_draws(0, 4, 10),
                             jump=None)


def test_rbpf_takes_no_input_as_none():
    # the step protocol is `kalman_pass`'s, where None means no input term:
    # a step without one moves the bank as a zero input term does
    model = _thermal_toy(0.1)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    cycle = lfm.step_cycle(model, 10.0)
    g, q = cycle.transitions[0], cycle.noises[0]
    runs = [
        rbpf_predict_day(*init, 10, lambda k, _: (g, q, b), set(), np.full(11, 5.0), 4,
                         particle_draws(0, 4, 10), jump=None)
        for b in (None, np.zeros_like(cycle.input_on))
    ]
    assert runs[0] == runs[1]
    assert runs[0] != _rbpf(model, init, lambda t: 5.0, 4, 10.0, 100.0, 0)  # the heater is on


@pytest.mark.parametrize("shape", [(3, 10), (4, 9), (4, 11), (10, 4), (40,)])
def test_rbpf_refuses_a_block_of_draws_of_the_wrong_shape(shape):
    # 4 particles over 10 steps read a (4, 10) block, one row per particle
    model = _thermal_toy(0.1)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    step = _cycle_step(lfm.step_cycle(model, 10.0), [0] * 10)
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"draws of shape {shape}; the pass needs (4, 10)")):
        rbpf_predict_day(*init, 10, step, set(), np.zeros(11), 4, np.zeros(shape),
                         jump=functools.partial(lfm.apply_changepoint_moments, model))


def test_particle_draws_are_read_only_particle_streams():
    draws = particle_draws(5, 3, 4)
    assert draws.shape == (3, 4) and not draws.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        draws[0, 0] = 0.0
    for i, row in enumerate(draws):  # row i is the stream keyed by (seed, i)
        rng = np.random.Generator(np.random.Philox(key=[5, i]))
        np.testing.assert_array_equal(row, rng.standard_normal(4))
    # a longer block extends each row's stream: the first columns agree
    np.testing.assert_array_equal(particle_draws(5, 3, 9)[:, :4], draws)


def test_rbpf_heater_irrelevant_when_beta_zero():
    # beta = 0: particles are identically distributed; the mixture variance
    # sits in a Monte-Carlo band around the single-filter variance
    model = _thermal_toy(0.0)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    recs = _rbpf(model, init, lambda t: 1.0, 64, 10.0, 400.0, 3)
    mean, cov = init
    for k in range(len(recs)):
        g, q = one_step(lfm.discretize, model, 10.0 * k, 10.0 * (k + 1))
        mean, cov = predict(mean, cov, g, q)
    v_kf = cov[0, 0]
    # 3-sigma band for a variance estimate from 64 draws
    assert abs(recs[-1][1] - v_kf) < 3.0 * v_kf * math.sqrt(2.0 / 64)


def test_rbpf_bit_reproducible():
    model = _thermal_toy(0.1)
    init = lfm.initial_state(model, [0.0], [[0.04]])
    a = _rbpf(model, init, lambda t: 0.5, 16, 10.0, 300.0, 42)
    b = _rbpf(model, init, lambda t: 0.5, 16, 10.0, 300.0, 42)
    assert a == b
    c = _rbpf(model, init, lambda t: 0.5, 16, 10.0, 300.0, 43)
    assert any(ra[0] != rc[0] for ra, rc in zip(a, c))


def test_rbpf_mixture_mean_variance_shrinks_with_particles():
    # across seeds, the spread of the final mixture mean decreases as the
    # particle count grows (up to sampling noise)
    model = _thermal_toy(0.2)
    init = lfm.initial_state(model, [0.0], [[0.25]])
    spreads = []
    for n_particles in (16, 64, 256):
        finals = [
            _rbpf(model, init, lambda t: 0.3, n_particles, 10.0, 300.0, s)[-1][0]
            for s in range(20)
        ]
        spreads.append(np.var(finals))
    assert spreads[2] < spreads[0]
    assert spreads[1] < 4.0 * spreads[0]  # allow noise, but no blow-up


def test_rbpf_without_temperature_variance_follows_the_heater_recursion():
    # a forceless model started at variance 0 keeps var_t = 0, so no step
    # conditions or draws: every particle follows T_k = a T_{k-1} + u, with
    # the heater input u only while T_{k-1} is below the set point
    model = lfm.assemble(np.array([[-0.01]]), binary_input=[0.1])
    init = lfm.initial_state(model, [1.0], [[0.0]])
    recs = _rbpf(model, init, lambda t: 0.85, 4, 10.0, 100.0, 0)
    a = math.exp(-0.1)
    temperature, ref = 1.0, []
    for _ in range(10):
        temperature = a * temperature + (10.0 * (1.0 - a) if temperature < 0.85 else 0.0)
        ref.append(temperature)
    assert [var for _, var in recs] == [0.0] * 10
    np.testing.assert_allclose([mean for mean, _ in recs], ref, rtol=1e-12, atol=0.0)
    assert [round(mean, 6) for mean, _ in recs[:3]] == [0.904837, 0.818731, 1.692444]


def _periodic_toy(beta: float, force_kind: str):
    # thermal toy with a periodic residual force of period 200 minutes
    basis = eb.build(K.PeriodicMatern(0.5, 0.05, 0.5, 200.0), 40, 200.0, 0.01)
    drift = np.array([[-0.01]])
    ext = lfm.NonPeriodicForce(lti.matern32_block(2.0, 600.0), np.array([0.01]))
    if force_kind == "cqm":
        return lfm.assemble(
            drift, nonperiodic=[ext], periodic=[lfm.cqm_force(basis, [1.0], 300.0)],
            binary_input=[beta],
        )
    return lfm.assemble(
        drift, nonperiodic=[ext], periodic=[lfm.sqm_force(basis, [1.0], 1.0)],
        changepoints=[200.0], binary_input=[beta],
    )


def _rbpf_reference(model, init, setpoint, n_particles, step, horizon, seed):
    """Per-particle RBPF: one scalar draw per particle stream per step, the
    scalar threshold rule, and a transition built for every step, with the
    cycle's input term added to the mean of a particle whose heater is on.

    Returns the records and how many particle steps had the heater on/off."""
    rngs = [np.random.Generator(np.random.Philox(key=[seed, i])) for i in range(n_particles)]
    input_on = lfm.step_cycle(model, step).input_on
    build = lfm.constant_weight_transition if lfm.has_constant_weights(model) else lfm.discretize
    init_mean, cov = init[0], init[1].copy()
    means = [init_mean.copy() for _ in range(n_particles)]
    t = 0.0
    heaters = [1 if init_mean[0] < setpoint(t) else 0 for _ in range(n_particles)]
    records, n_on, n_off = [], 0, 0
    for _ in range(int(round(horizon / step))):
        t_next = t + step
        g, q = one_step(build, model, t, t_next)
        means = [g @ m + input_on if h else g @ m for m, h in zip(means, heaters)]
        n_on += sum(heaters)
        n_off += n_particles - sum(heaters)
        cov = g @ cov @ g.T + q
        cov = 0.5 * (cov + cov.T)
        t = t_next
        if np.any(np.abs(model.changepoints - t) < 1e-9):
            bank, cov = lfm.apply_changepoint_moments(model, np.array(means), cov)
            means = list(bank)

        var = cov[0, 0]
        temps = np.array([m[0] for m in means])
        records.append((temps.mean(), var + np.mean(temps**2) - temps.mean() ** 2))
        gain = cov[:, 0] / var
        samples = [m[0] + math.sqrt(var) * rng.standard_normal() for m, rng in zip(means, rngs)]
        means = [m + (s - m[0]) * gain for m, s in zip(means, samples)]
        cov = cov - np.outer(cov[:, 0], cov[:, 0]) / var
        cov = 0.5 * (cov + cov.T)
        heaters = [1 if s < setpoint(t) else 0 for s in samples]
    return records, n_on, n_off


@pytest.mark.parametrize("force_kind", ["none", "cqm", "sqm"])
def test_rbpf_matches_per_particle_reference(force_kind):
    # constant weights (no periodic force, or sqm with a changepoint) and a
    # cqm force whose Van Loan transition changes every step
    model = _thermal_toy(0.1) if force_kind == "none" else _periodic_toy(0.1, force_kind)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    args = (model, init, lambda t: 0.8, 16, 10.0, 300.0, 7)
    recs = _rbpf(*args)
    ref, n_on, n_off = _rbpf_reference(*args)
    assert n_on > 0 and n_off > 0  # both input branches are exercised
    assert len(recs) == len(ref) == 30
    for r, q in zip(recs, ref):
        assert r == pytest.approx(q, rel=1e-12, abs=1e-12)


def test_rbpf_records_the_mixture_variance_without_cancellation():
    # particle temperatures near 1e4 and about 1e-3 apart: a raw second
    # moment less the squared mean keeps about two digits of the spread
    # (9.537e-7 for 9.587e-7); the centred sum keeps it to round-off
    n_particles = 2048
    temps = 1e4 + 1e-3 * np.random.default_rng(5).standard_normal(n_particles)
    records = rbpf_predict_day(
        np.array([1e4]), np.zeros((1, 1)), 1, lambda k, _: (np.eye(1), None, None), {1},
        np.zeros(2), n_particles, particle_draws(0, n_particles, 1),
        jump=lambda means, cov: (temps[:, None].copy(), cov),  # sets the particle means
    )
    mean = math.fsum(temps) / n_particles
    var = math.fsum((t - mean) ** 2 for t in temps) / n_particles
    assert records[0][0] == pytest.approx(mean, rel=1e-15)
    assert records[0][1] == pytest.approx(var, rel=1e-12)


def _blocked_steps(c: int) -> int:
    """Steps per block of the RBPF's bank at state size c."""
    return max(1, c // 2)


def _assert_matches_the_per_step_bank(args, kwargs):
    got = rbpf_predict_day(*args, **kwargs)
    ref = oracles.rbpf_reference(*args, **kwargs)
    assert len(got) == len(ref) == args[2]
    # the mixture variance is a centred sum, so it is held to round-off too
    np.testing.assert_allclose(np.array(got), np.array(ref), rtol=1e-12, atol=0.0)


def _thermal_rbpf_args(monkeypatch, kind, n_particles):
    """The arguments `thermal_predict_day` hands the RBPF on a 2-day record
    at the bench parameters."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return rbpf_predict_day(*args, **kwargs)

    monkeypatch.setattr(thermal, "rbpf_predict_day", recording)
    dataset = thermal.generate_thermal_data(thermal.ThermalGenConfig(days=2), seed=3)
    thermal.thermal_predict_day(dataset, kind, THERMAL_PARAMS[kind], n_particles=n_particles)
    return calls[0]


@pytest.mark.parametrize("kind, dim", [("with", 28), ("hart", 4)])
def test_rbpf_blocked_bank_matches_the_per_step_bank_on_the_bench(monkeypatch, kind, dim):
    args, kwargs = _thermal_rbpf_args(monkeypatch, kind, 256)
    assert args[0].size == dim and args[2] == 144
    _assert_matches_the_per_step_bank(args, kwargs)


def test_rbpf_blocked_bank_jumps_inside_a_block():
    # a quasi-sqm pass that starts 20 steps before the day boundary at the
    # test start, so its jump flushes a block of 14 steps after 6
    dataset = thermal.generate_thermal_data(thermal.ThermalGenConfig(days=2), seed=3)
    cycle, mean, cov = thermal._trained_state(dataset, "quasi-sqm",
                                              THERMAL_PARAMS["quasi-sqm"], False)
    dt, n_steps = cycle.dt, 50
    t_start = dataset.test_start - 20 * dt
    slots, changepoints = lfm.pass_schedule(cycle.model, dt, t_start, n_steps)
    assert changepoints == {20} and 20 % _blocked_steps(mean.size) != 0
    minute = thermal._record_minutes(dataset, t_start + dt * np.arange(n_steps + 1))
    _assert_matches_the_per_step_bank(
        (mean, cov, n_steps, thermal._cycle_step(cycle, slots, [cycle.input_on] * n_steps),
         changepoints, dataset.setpoint[minute], 64, particle_draws(1, 64, n_steps)),
        dict(jump=functools.partial(lfm.apply_changepoint_moments, cycle.model)),
    )


@pytest.mark.parametrize("case", ["partial-block", "no-variance", "no-input", "one-particle"])
def test_rbpf_blocked_bank_matches_the_per_step_bank(case):
    # a cqm toy of 24 states, 12 steps per block, over 29 steps: 2 blocks
    # and 5 steps.  "no-variance" starts from zero covariance and adds no
    # noise on the first 4 steps, so they consume no draw column
    model = _periodic_toy(0.1, "cqm")
    cycle, n_steps, n_particles = lfm.step_cycle(model, 10.0), 29, 16
    assert n_steps % _blocked_steps(model.dim) != 0
    mean, cov = lfm.initial_state(model, [1.0], [[0.01]])
    g, b = cycle.transitions, cycle.input_on
    q = [cycle.noises[k % 20] for k in range(n_steps)]
    if case == "no-variance":
        cov = np.zeros_like(cov)
        q[:4] = [None] * 4
    inputs = [None if case == "no-input" and k % 3 else b for k in range(n_steps)]
    if case == "one-particle":
        n_particles = 1

    def step(k, _):  # the cycle has 20 slots
        return g[(k - 1) % 20], q[k - 1], inputs[k - 1]

    setpoints = 0.8 + 0.2 * np.sin(np.arange(n_steps + 1) / 4.0)
    args = (mean, cov, n_steps, step, set(), setpoints, n_particles,
            particle_draws(7, n_particles, n_steps))
    _assert_matches_the_per_step_bank(args, dict(jump=None))
    if case == "no-variance":
        records = rbpf_predict_day(*args, jump=None)
        assert [var for _, var in records[:4]] == [0.0] * 4 and records[4][1] > 0.0


def test_rbpf_takes_one_predict_and_update_per_step_and_passes_no_mean(monkeypatch):
    # the shared covariance takes `filtering.predict` and `filtering.update`
    # once per step, and every step is asked for with None as its mean
    model = _periodic_toy(0.1, "sqm")
    cycle, n_steps = lfm.step_cycle(model, 10.0), 30
    slots, changepoints = lfm.pass_schedule(model, 10.0, 0.0, n_steps)
    counts, means = {"predict": 0, "update": 0}, []
    for name in counts:
        def counting(*args, _call=getattr(filtering, name), _name=name):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(filtering, name, counting)

    def step(k, mean):
        means.append(mean)
        return cycle.transitions[slots[k - 1]], cycle.noises[slots[k - 1]], cycle.input_on

    init = lfm.initial_state(model, [1.0], [[0.01]])
    rbpf_predict_day(*init, n_steps, step, changepoints, np.full(n_steps + 1, 0.8), 8,
                     particle_draws(0, 8, n_steps),
                     jump=functools.partial(lfm.apply_changepoint_moments, model))
    assert counts == {"predict": n_steps, "update": n_steps}
    assert means == [None] * n_steps
