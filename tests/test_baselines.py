import numpy as np
import pytest
import scipy.linalg

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import lfm
from eigenlfm.baselines import (
    DenseGp,
    ResonatorModel,
    gp_regress,
    implied_covariance,
    log_marginal_likelihood,
    resonator_fit,
    ssgpr_build,
    ssgpr_regress,
)
from eigenlfm.baselines.comparison import compare_linear_bases
from eigenlfm.baselines.resonator import _resonator_loglik, resonator_block
from eigenlfm.errors import InvalidParameterError
from eigenlfm.filtering import GaussianState, predict, update


def test_gp_prior_with_no_data():
    model = DenseGp(K.Matern(0.5, 1.3, 2.0), 0.1, [], [])
    means, variances = gp_regress(model, [0.0, 5.0])
    np.testing.assert_array_equal(means, [0.0, 0.0])
    np.testing.assert_allclose(variances, [1.69, 1.69], rtol=1e-12)


def test_gp_interpolates_noise_free():
    model = DenseGp(K.SquaredExponential(1.0, 3.0), 0.0, [1.0, 2.0, 4.0], [0.3, -0.1, 0.8])
    means, variances = gp_regress(model, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(means, [0.3, -0.1, 0.8], atol=1e-6)
    assert np.max(variances) <= 1e-10


def test_gp_marginal_likelihood_gaussian():
    # single point: log N(y; 0, k(0,0) + noise)
    model = DenseGp(K.Matern(0.5, 1.0, 1.0), 1.0, [0.0], [0.0])
    assert log_marginal_likelihood(model) == pytest.approx(
        -0.5 * np.log(2.0 * np.pi * 2.0), rel=1e-12
    )


def test_ssgpr_zero_lag_variance_exact():
    model = ssgpr_build(K.SquaredExponential(1.5, 10.0), 10000, seed=0)
    assert implied_covariance(model, 3.3, 3.3) == pytest.approx(1.5**2, rel=1e-12)


def test_ssgpr_deterministic_in_seed():
    a = ssgpr_build(K.SquaredExponential(1.0, 10.0), 22, seed=5)
    b = ssgpr_build(K.SquaredExponential(1.0, 10.0), 22, seed=5)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)


def test_ssgpr_unsupported_kernel():
    with pytest.raises(InvalidParameterError):
        ssgpr_build(K.PeriodicSE(3.0, 0.7), 10, seed=0)


def test_ssgpr_covariance_deviation_distribution():
    # with 22 spectral points the implied covariance misses the true kernel
    # noticeably: median worst-case deviation above 0.1 across seeds
    kernel = K.SquaredExponential(1.0, 10.0)
    taus = np.linspace(0.0, 50.0, 200)
    true = K.eval_kernel(kernel, taus, 0.0)
    devs = []
    for seed in range(50):
        model = ssgpr_build(kernel, 22, seed=seed)
        devs.append(np.max(np.abs(implied_covariance(model, taus, 0.0) - true)))
    assert np.median(devs) > 0.1


def test_ssgpr_matches_dense_gp_with_implied_kernel():
    model = ssgpr_build(K.Matern(0.5, 1.0, 3.0), 7, seed=2, noise_variance=0.05)
    x = np.linspace(0.0, 9.0, 10)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(10)
    xs = np.linspace(-1.0, 11.0, 13)
    means, variances = ssgpr_regress(model, x, y, xs)
    dense = DenseGp(lambda a, b: implied_covariance(model, a, b), 0.05, x, y)
    dmeans, dvars = gp_regress(dense, xs)
    np.testing.assert_allclose(means, dmeans, atol=1e-8)
    np.testing.assert_allclose(variances, dvars, atol=1e-8)


def test_ssgpr_prior_variance_no_data():
    model = ssgpr_build(K.SquaredExponential(1.0, 10.0), 22, seed=1)
    _, var = ssgpr_regress(model, [], [], [0.0, 4.4])
    np.testing.assert_allclose(var, implied_covariance(model, 0.0, 0.0), rtol=1e-12)


def test_kpca_beats_ssgpr_on_covariance_error():
    # the eigenfunction reconstruction dominates the stochastic spectral one
    rows = compare_linear_bases(n_draws=2, seed=0)
    by = {r["method"]: r for r in rows}
    assert by["kpca"]["max_cov_error"] < by["ssgpr_x1"]["max_cov_error"]
    assert by["kpca"]["basis_count"] == 22


def test_ssgpr_implied_error_exceeds_kpca_in_most_seeds():
    kernel = K.SquaredExponential(1.0, 10.0)
    window = 120.0
    probe = eb.build(kernel, 100, window, gamma=1e-15)
    gamma = 0.5 * (probe.eigenvalues[21] + probe.eigenvalues[22]) / probe.eigenvalues[0]
    basis = eb.build(kernel, 100, window, gamma=gamma)
    grid = np.linspace(0.0, window, 120)
    true = K.eval_matrix(kernel, grid, grid)
    kpca_err = np.max(np.abs(eb.reconstruct(basis, grid, grid) - true))
    worse = 0
    for seed in range(20):
        model = ssgpr_build(kernel, 22, seed=seed)
        dev = np.max(np.abs(implied_covariance(model, grid, 0.0) - true[0]))
        worse += dev > kpca_err
    assert worse >= 18


def _resonator_path(f, b, dt, n_steps, psi0, dpsi0):
    """Noise-free path of one force-only `resonator_block(f, b, 0)`, stepped
    through the engine's cycle: the step end times and psi there."""
    model = lfm.assemble(
        lfm.TargetModel(np.zeros((0, 0))),
        nonperiodic=[lfm.NonPeriodicForce(resonator_block(f, b, 0.0), np.zeros(0))],
    )
    state = np.array([psi0, dpsi0])
    times, psi = [], []
    for step in lfm.pass_steps(lfm.step_cycle(model, 0.0, dt), 0.0, n_steps):
        state = step.transition @ state
        times.append(step.t)
        psi.append(state[0])
    return np.array(times), np.array(psi)


def test_resonator_constant_frequency_is_cosine():
    f = 0.35
    t, psi = _resonator_path(f, 0.0, (3.0 / f) / 3000, 3000, psi0=1.0, dpsi0=0.0)
    np.testing.assert_allclose(psi, np.cos(2.0 * np.pi * f * t), atol=1e-6)


def test_resonator_decay_envelope():
    b = -0.4
    # (2 pi f)^2 = 4
    t, psi = _resonator_path(1.0 / np.pi, b, 0.005, 4000, psi0=1.0, dpsi0=0.0)
    envelope = np.exp(0.5 * b * t)
    assert np.all(np.abs(psi) <= envelope * 1.05 + 1e-9)


def test_resonator_fit_recovers_sinusoid():
    period = 10.0
    f_true = 2.0 / period
    times = np.linspace(0.0, 3.0 * period, 120)
    values = np.sin(2.0 * np.pi * f_true * times + 0.4)
    model, result = resonator_fit(times, values, 3, period, budget=260, seed=0)
    assert np.min(np.abs(model.frequencies - f_true)) / f_true < 0.05
    best = np.maximum.accumulate(result.trace)
    assert np.all(np.diff(best) >= 0)


def test_resonator_fit_validation():
    with pytest.raises(InvalidParameterError):
        resonator_fit([0.0, 1.0], [0.0, 1.0], 0, 10.0)
    with pytest.raises(InvalidParameterError, match="times"):
        resonator_fit([0.0, 1.0, 2.0, 3.5, 4.5], np.zeros(5), 1, 10.0)


def _reference_loglik(times, values, freqs, decays, diffusion, noise_variance, init_variance):
    """Hand-written Kalman loop over the resonator bank (per-resonator
    exponential and Van Loan at every step), kept as the reference for the
    engine log-likelihood."""
    n_res = freqs.size
    dim = 2 * n_res + 1
    h = np.zeros((1, dim))
    h[0, 0:2 * n_res:2] = 1.0
    h[0, -1] = 1.0

    cov = np.zeros((dim, dim))
    share = init_variance / (n_res + 1)
    for j in range(n_res):
        cov[2 * j, 2 * j] = share
        cov[2 * j + 1, 2 * j + 1] = share * (2.0 * np.pi * freqs[j]) ** 2
    cov[-1, -1] = share
    state = GaussianState(np.zeros(dim), cov, times[0])

    blocks = [resonator_block(f, b, diffusion) for f, b in zip(freqs, decays)]
    loglik = 0.0
    prev_t = times[0]
    for t, y in zip(times, values):
        dt = t - prev_t
        if dt > 0.0:
            g = np.zeros((dim, dim))
            q = np.zeros((dim, dim))
            for j, blk in enumerate(blocks):
                sl = slice(2 * j, 2 * j + 2)
                gb = scipy.linalg.expm(blk.drift * dt)
                g[sl, sl] = gb
                if diffusion > 0.0:
                    top = scipy.linalg.expm(
                        np.block(
                            [
                                [blk.drift, diffusion * blk.noise @ blk.noise.T],
                                [np.zeros((2, 2)), -blk.drift.T],
                            ]
                        )
                        * dt
                    )[:2, :]
                    qb = top[:, 2:] @ gb.T
                    q[sl, sl] = 0.5 * (qb + qb.T)
            g[-1, -1] = 1.0
            state = predict(state, g, q, t_new=t)
        res = update(state, h, [[noise_variance]], [y])
        state = res.state
        loglik += res.log_density
        prev_t = t
    return loglik


@pytest.mark.parametrize(
    "freqs, decays, diffusion, noise_variance",
    [
        ([0.1, 0.2, 0.3], [1e-7, 1e-3, 0.1], 1e-6, 1e-2),
        ([0.05, 0.21, 0.47], [0.5, 0.01, 1.0], 0.1, 0.1),
        ([0.02, 0.33, 0.58], [1e-9, 2.0, 1e-4], 3.0, 0.5),
    ],
)
def test_resonator_loglik_matches_reference_loop(freqs, decays, diffusion, noise_variance):
    # the data and the parameter bounds of resonator_fit(times, values, 3, period=10)
    times = np.linspace(0.0, 30.0, 120)
    values = np.sin(2.0 * np.pi * 0.2 * times + 0.4)
    scale = float(np.var(values))
    args = (
        times, values, np.array(freqs), -np.array(decays),
        diffusion * scale, noise_variance * scale, scale,
    )
    assert _resonator_loglik(*args) == pytest.approx(_reference_loglik(*args), rel=1e-10)

