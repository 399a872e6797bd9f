import functools
import math

import numpy as np
import pytest
import scipy.linalg

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import lfm, lti
from eigenlfm.errors import InvalidParameterError, NumericError
from eigenlfm.filtering import (
    GaussianState,
    predict,
    rbpf_predict_day,
    update,
)
from helpers import one_step


def test_predict_identity():
    state = GaussianState(np.array([1.0, -2.0]), np.eye(2), 0.0)
    out = predict(state, np.eye(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(out.mean, state.mean)
    np.testing.assert_array_equal(out.cov, state.cov)


def test_predict_scalar_variance():
    state = GaussianState(np.array([0.0]), np.array([[1.0]]), 0.0)
    out = predict(state, np.array([[0.5]]), np.array([[0.75]]))
    assert out.cov[0, 0] == pytest.approx(1.0)


def test_predict_input_term():
    state = GaussianState(np.zeros(3), np.eye(3), 0.0)
    out = predict(state, np.eye(3), np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(out.mean, [1.0, 0.0, 0.0])

    # a bank of 5 means sharing one covariance: each row moves as one mean does
    rng = np.random.default_rng(0)
    c = 28
    a, b = rng.standard_normal((c, c)), rng.standard_normal((c, c))
    bank = GaussianState(rng.standard_normal((5, c)), a @ a.T / c, 0.0)
    g, q, u = rng.standard_normal((c, c)) / c, b @ b.T / c, rng.standard_normal(c)
    out = predict(bank, g, q, u, t_new=1.0)
    assert out.mean.shape == (5, c) and out.t == 1.0
    for row, moved in zip(bank.mean, out.mean):
        single = predict(GaussianState(row, bank.cov, 0.0), g, q, u)
        np.testing.assert_allclose(moved, single.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.cov, single.cov, rtol=1e-12, atol=1e-12)


def test_predict_dimension_mismatch():
    state = GaussianState(np.zeros(3), np.eye(3), 0.0)
    with pytest.raises(InvalidParameterError):
        predict(state, np.eye(2), np.zeros((2, 2)))


def test_update_scalar():
    state = GaussianState(np.array([0.0]), np.array([[1.0]]), 0.0)
    res = update(state, [[1.0]], [[1.0]], [2.0])
    assert res.state.mean[0] == pytest.approx(1.0)
    assert res.state.cov[0, 0] == pytest.approx(0.5)
    assert res.innovation[0] == pytest.approx(2.0)
    assert res.innovation_cov[0, 0] == pytest.approx(2.0)


def test_update_uninformative():
    state = GaussianState(np.array([0.7]), np.array([[1.3]]), 0.0)
    res = update(state, [[1.0]], [[1e12]], [100.0])
    assert res.state.mean[0] == pytest.approx(0.7, abs=1e-6)
    assert res.state.cov[0, 0] == pytest.approx(1.3, abs=1e-6)


def test_update_zero_innovation_contracts():
    state = GaussianState(np.array([0.7]), np.array([[1.3]]), 0.0)
    res = update(state, [[1.0]], [[0.5]], [0.7])
    assert res.state.mean[0] == pytest.approx(0.7)
    assert res.state.cov[0, 0] < 1.3


def test_update_trace_never_grows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        state = GaussianState(rng.standard_normal(4), a @ a.T + 0.1 * np.eye(4), 0.0)
        h = rng.standard_normal((2, 4))
        res = update(state, h, np.diag([0.3, 0.9]), rng.standard_normal(2))
        assert np.trace(res.state.cov) <= np.trace(state.cov) + 1e-10


def test_update_joseph_form_ill_conditioned():
    state = GaussianState(np.zeros(2), np.diag([1.0, 1e-8]), 0.0)
    h = np.array([[1e4, 1.0]])
    res = update(state, h, [[1e-4]], [3.0])
    eigs = np.linalg.eigvalsh(res.state.cov)
    assert eigs.min() >= -1e-10 * np.trace(res.state.cov)


def _reference_update(state, h, z, y):
    """Joseph update with scipy's Cholesky wrappers: (mean, cov, log_density)."""
    innovation = y - h @ state.mean
    s = h @ state.cov @ h.T + z
    s = 0.5 * (s + s.T)
    chol = scipy.linalg.cho_factor(s, lower=True)
    gain = scipy.linalg.cho_solve(chol, h @ state.cov).T
    mean = state.mean + gain @ innovation
    closed = np.eye(state.dim) - gain @ h
    cov = closed @ state.cov @ closed.T + gain @ z @ gain.T
    white = scipy.linalg.solve_triangular(chol[0], innovation, lower=True)
    log_det = 2.0 * np.sum(np.log(np.diag(chol[0])))
    return mean, 0.5 * (cov + cov.T), -0.5 * (y.size * math.log(2.0 * math.pi) + log_det + white @ white)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_update_matches_scipy_reference(d):
    rng = np.random.default_rng(d)
    bank_rng = np.random.default_rng(100 + d)
    c = 28
    for _ in range(10):
        a = rng.standard_normal((c, c))
        state = GaussianState(rng.standard_normal(c), a @ a.T / c + 0.01 * np.eye(c), 0.0)
        h = rng.standard_normal((d, c))
        b = rng.standard_normal((d, d))
        z = b @ b.T + 0.1 * np.eye(d)
        y = rng.standard_normal(d)
        res = update(state, h, z, y)
        mean, cov, log_density = _reference_update(state, h, z, y)
        np.testing.assert_allclose(res.state.mean, mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.state.cov, cov, rtol=1e-12, atol=1e-12)
        assert res.log_density == pytest.approx(log_density, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(res.innovation_cov, h @ state.cov @ h.T + z, rtol=1e-12)

        # a bank of 5 means sharing the covariance, one observation row each
        bank = GaussianState(bank_rng.standard_normal((5, c)), state.cov, 0.0)
        ys = bank_rng.standard_normal((5, d))
        res = update(bank, h, z, ys)
        assert res.state.mean.shape == (5, c) and res.log_density.shape == (5,)
        for i, (row, y) in enumerate(zip(bank.mean, ys)):
            mean, cov, log_density = _reference_update(GaussianState(row, state.cov, 0.0), h, z, y)
            np.testing.assert_allclose(res.state.mean[i], mean, rtol=1e-12, atol=1e-12)
            assert res.log_density[i] == pytest.approx(log_density, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(res.state.cov, cov, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.innovation, ys - bank.mean @ h.T, rtol=1e-12, atol=1e-12)


def test_update_rejects_an_observation_of_the_wrong_shape():
    # one entry for d = 2 would broadcast against the two predicted entries
    state = GaussianState(np.zeros(3), np.eye(3), 0.0)
    with pytest.raises(InvalidParameterError, match=r"shape \(1,\).*must have shape \(2,\)"):
        update(state, np.eye(2, 3), np.eye(2), [1.0])
    # a bank takes one observation row per mean
    bank = GaussianState(np.zeros((4, 3)), np.eye(3), 0.0)
    with pytest.raises(InvalidParameterError, match=r"shape \(2,\).*must have shape \(4, 2\)"):
        update(bank, np.eye(2, 3), np.eye(2), [1.0, 2.0])


def test_update_singular_innovation_raises():
    state = GaussianState(np.zeros(2), np.diag([1.0, 0.0]), 0.0)
    with pytest.raises(NumericError, match="singular"):
        update(state, [[0.0, 1.0]], [[0.0]], [1.0])


@pytest.mark.parametrize(
    "cov, noise, match",
    [
        ([[1.0, 0.0], [0.0, 1.0]], -2.0, "singular"),
        ([[np.nan, 0.0], [0.0, 1.0]], 0.1, "not finite"),  # potrf passes a NaN through
        ([[np.inf, 0.0], [0.0, 1.0]], 0.1, "not finite"),
    ],
    ids=["indefinite", "nan", "inf"],
)
def test_update_rejects_an_innovation_covariance_it_cannot_factor(cov, noise, match):
    state = GaussianState(np.zeros(2), np.array(cov), 0.0)
    with pytest.raises(NumericError, match=match):
        update(state, [[1.0, 0.0]], [[noise]], [0.5])


def test_log_likelihood_single_measurement():
    state = GaussianState(np.array([0.0]), np.array([[1.0]]), 0.0)
    res = update(state, [[1.0]], [[1.0]], [0.0])
    assert res.log_density == pytest.approx(-0.5 * math.log(4.0 * math.pi))
    assert res.log_density == pytest.approx(-1.26551, abs=5e-6)


def test_log_likelihood_block_independence():
    state2 = GaussianState(np.array([0.0, 1.0]), np.diag([1.0, 2.0]), 0.0)
    joint = update(state2, np.eye(2), np.diag([0.5, 0.25]), [0.3, 0.6])
    a = update(GaussianState(np.array([0.0]), [[1.0]], 0.0), [[1.0]], [[0.5]], [0.3])
    b = update(GaussianState(np.array([1.0]), [[2.0]], 0.0), [[1.0]], [[0.25]], [0.6])
    assert joint.log_density == pytest.approx(a.log_density + b.log_density, rel=1e-12)


def _rbpf(model, init, setpoint, n_particles, step, horizon, seed):
    """RBPF over the steps of `lfm.pass_steps`, jumping with the model's moments."""
    n_steps = int(round(horizon / step))
    cycle = lfm.step_cycle(model, init.t, step)
    return rbpf_predict_day(
        lfm.pass_steps(cycle, init.t, n_steps), n_steps, init, setpoint,
        n_particles, seed, jump=functools.partial(lfm.apply_changepoint_moments, model),
    )


def _thermal_toy(beta: float):
    model = lfm.assemble(
        lfm.TargetModel(np.array([[-0.01]])),
        nonperiodic=[
            lfm.NonPeriodicForce(lti.matern32_block(2.0, 600.0), np.array([0.01]))
        ],
    )
    binary = np.zeros(model.layout.dim_za)
    binary[0] = beta
    model.binary_input = binary
    return model


def test_rbpf_validation():
    model = _thermal_toy(0.1)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    with pytest.raises(InvalidParameterError):
        _rbpf(model, init, lambda t: 0.0, 0, 10.0, 100.0, 0)
    with pytest.raises(InvalidParameterError):
        _rbpf(model, init, lambda t: float("nan"), 4, 10.0, 100.0, 0)


def test_rbpf_heater_irrelevant_when_beta_zero():
    # beta = 0: particles are identically distributed; the mixture variance
    # sits in a Monte-Carlo band around the single-filter variance
    model = _thermal_toy(0.0)
    init = lfm.initial_state(model, [1.0], [[0.01]])
    recs = _rbpf(model, init, lambda t: 1.0, 64, 10.0, 400.0, 3)
    state = init
    for r in recs:
        g, q = one_step(lfm.discretize, model, state.t, r["t"])
        state = predict(state, g, q, t_new=r["t"])
    v_kf = state.cov[0, 0]
    # 3-sigma band for a variance estimate from 64 draws
    assert abs(recs[-1]["var"] - v_kf) < 3.0 * v_kf * math.sqrt(2.0 / 64)


def test_rbpf_bit_reproducible():
    model = _thermal_toy(0.1)
    init = lfm.initial_state(model, [0.0], [[0.04]])
    a = _rbpf(model, init, lambda t: 0.5, 16, 10.0, 300.0, 42)
    b = _rbpf(model, init, lambda t: 0.5, 16, 10.0, 300.0, 42)
    assert all(
        ra["mean"] == rb["mean"] and ra["var"] == rb["var"] for ra, rb in zip(a, b)
    )
    c = _rbpf(model, init, lambda t: 0.5, 16, 10.0, 300.0, 43)
    assert any(ra["mean"] != rc["mean"] for ra, rc in zip(a, c))


def test_rbpf_mixture_mean_variance_shrinks_with_particles():
    # across seeds, the spread of the final mixture mean decreases as the
    # particle count grows (up to sampling noise)
    model = _thermal_toy(0.2)
    init = lfm.initial_state(model, [0.0], [[0.25]])
    spreads = []
    for n_particles in (16, 64, 256):
        finals = [
            _rbpf(model, init, lambda t: 0.3, n_particles, 10.0, 300.0, s)[-1][
                "mean"
            ]
            for s in range(20)
        ]
        spreads.append(np.var(finals))
    assert spreads[2] < spreads[0]
    assert spreads[1] < 4.0 * spreads[0]  # allow noise, but no blow-up


def _periodic_toy(beta: float, force_kind: str):
    # thermal toy with a periodic residual force of period 200 minutes
    basis = eb.build(K.PeriodicMatern(0.5, 0.05, 0.5, 200.0), 40, 200.0, 0.01)
    target = lfm.TargetModel(np.array([[-0.01]]))
    ext = lfm.NonPeriodicForce(lti.matern32_block(2.0, 600.0), np.array([0.01]))
    if force_kind == "cqm":
        model = lfm.assemble(
            target, nonperiodic=[ext], periodic=[lfm.cqm_force(basis, [1.0], 1.0, 300.0)]
        )
    else:
        model = lfm.assemble(
            target, nonperiodic=[ext], periodic=[lfm.sqm_force(basis, [1.0], 1.0, 1.0)],
            changepoints=[200.0],
        )
    binary = np.zeros(model.layout.dim_za)
    binary[0] = beta
    model.binary_input = binary
    return model


def _rbpf_reference(model, init, setpoint, n_particles, step, horizon, seed):
    """Per-particle RBPF: one scalar draw per particle stream per step, the
    scalar threshold rule, and a transition built for every step, with the
    cycle's input term added to the mean of a particle whose heater is on.

    Returns the records and how many particle steps had the heater on/off."""
    rngs = [np.random.Generator(np.random.Philox(key=[seed, i])) for i in range(n_particles)]
    input_on = lfm.step_cycle(model, init.t, step).input_on
    build = lfm.constant_weight_transition if lfm.has_constant_weights(model) else lfm.discretize
    means = [init.mean.copy() for _ in range(n_particles)]
    cov = init.cov.copy()
    t = init.t
    heaters = [1 if init.mean[0] < setpoint(t) else 0 for _ in range(n_particles)]
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
        records.append(
            {"t": t, "mean": temps.mean(), "var": var + np.mean(temps**2) - temps.mean() ** 2}
        )
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
        assert r["t"] == q["t"]
        assert r["mean"] == pytest.approx(q["mean"], rel=1e-12, abs=1e-12)
        assert r["var"] == pytest.approx(q["var"], rel=1e-12, abs=1e-12)
