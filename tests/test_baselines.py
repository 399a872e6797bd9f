import numpy as np
import pytest

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import lfm
from eigenlfm.baselines.comparison import compare_linear_bases, linear_regress
from eigenlfm.baselines.resonator import resonator_block
from eigenlfm.baselines.ssgpr import implied_covariance, ssgpr_build, ssgpr_features
from eigenlfm.errors import InvalidParameterError
from oracles import gp_regress, log_marginal_likelihood


def test_gp_prior_with_no_data():
    means, variances = gp_regress(K.Matern(0.5, 1.3, 2.0), 0.1, [], [], [0.0, 5.0])
    np.testing.assert_array_equal(means, [0.0, 0.0])
    np.testing.assert_allclose(variances, [1.69, 1.69], rtol=1e-12)


def test_gp_interpolates_noise_free():
    x, y = [1.0, 2.0, 4.0], [0.3, -0.1, 0.8]
    means, variances = gp_regress(K.SquaredExponential(1.0, 3.0), 0.0, x, y, x)
    np.testing.assert_allclose(means, [0.3, -0.1, 0.8], atol=1e-6)
    assert np.max(variances) <= 1e-10


def test_gp_marginal_likelihood_gaussian():
    # single point: log N(y; 0, k(0,0) + noise)
    assert log_marginal_likelihood(K.Matern(0.5, 1.0, 1.0), 1.0, [0.0], [0.0]) == pytest.approx(
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


def _ssgpr_prior(model):
    """The weight prior of the sparse-spectrum features: sigma^2 / S each."""
    return np.full(2 * model.n_points, model.sigma2 / model.n_points)


def test_ssgpr_matches_dense_gp_with_implied_kernel():
    model = ssgpr_build(K.SquaredExponential(1.0, 3.0), 7, seed=2)
    x = np.linspace(0.0, 9.0, 10)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(10)
    xs = np.linspace(-1.0, 11.0, 13)
    means, variances = linear_regress(
        ssgpr_features(model, x), y, ssgpr_features(model, xs), _ssgpr_prior(model), 0.05
    )
    dmeans, dvars = gp_regress(lambda a, b: implied_covariance(model, a, b), 0.05, x, y, xs)
    np.testing.assert_allclose(means, dmeans, atol=1e-8)
    np.testing.assert_allclose(variances, dvars, atol=1e-8)


def test_ssgpr_prior_variance_no_data():
    model = ssgpr_build(K.SquaredExponential(1.0, 10.0), 22, seed=1)
    _, var = linear_regress(
        ssgpr_features(model, []), [], ssgpr_features(model, [0.0, 4.4]), _ssgpr_prior(model), 0.0
    )
    np.testing.assert_allclose(var, implied_covariance(model, 0.0, 0.0), rtol=1e-12)


def test_eigenbasis_regression_matches_dense_gp_with_reconstructed_kernel():
    # with data, the eigenfunction regression is the GP whose kernel is the
    # basis resynthesis sum_j (mu_j / N) phi_j(t) phi_j(t')
    basis = eb.build(K.PeriodicMatern(0.5, 1.5, 0.4, 10.0), 64, 10.0, gamma=0.01)
    x = np.linspace(0.0, 9.0, 10)
    y = np.random.default_rng(0).standard_normal(10)
    xs = np.linspace(-1.0, 11.0, 13)
    means, variances = linear_regress(
        eb.eigenfunction_matrix(basis, x), y, eb.eigenfunction_matrix(basis, xs),
        basis.scaled_eigenvalues(), 0.05,
    )

    def kern(a, b):
        out = eb.reconstruct(basis, np.ravel(a), np.ravel(b))
        return out.reshape(np.broadcast(a, b).shape)

    dmeans, dvars = gp_regress(kern, 0.05, x, y, xs)
    np.testing.assert_allclose(means, dmeans, rtol=0, atol=1e-9)
    np.testing.assert_allclose(variances, dvars, rtol=0, atol=1e-9)


def test_kpca_beats_ssgpr_on_covariance_error():
    # the eigenfunction reconstruction dominates the stochastic spectral one
    rows = compare_linear_bases(n_draws=2, seed=0)
    by = {r["method"]: r for r in rows}
    assert by["kpca"]["max_cov_error"] < by["ssgpr_x1"]["max_cov_error"]
    assert by["kpca"]["basis_count"] == 22


def test_kpca_takes_every_positive_eigenpair_and_no_more():
    # at n_basis equal to the count of positive Gram eigenvalues the threshold
    # fell midway to the next, negative one, which could put it at or below 0
    # (the 100-point Gram's 69th and 70th eigenvalues are 2.9e-17 and -5.2e-17
    # on one OpenBLAS kernel); one more eigenpair is refused by name
    mu = eb.build(K.SquaredExponential(1.0, 10.0), 100, 120.0, gamma=1e-15).eigenvalues
    positive = int(np.count_nonzero(mu > 0.0))
    rows = compare_linear_bases(n_points=100, n_basis=positive, n_draws=1, grid_count=60,
                                ssgpr_multipliers=())
    assert rows[0]["basis_count"] == positive
    with pytest.raises(InvalidParameterError, match=f"n_basis = {positive + 1} exceeds"):
        compare_linear_bases(n_points=100, n_basis=positive + 1, n_draws=1)


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
        np.zeros((0, 0)),
        nonperiodic=[lfm.NonPeriodicForce(resonator_block(f, b, 0.0), np.zeros(0))],
    )
    cycle = lfm.step_cycle(model, dt)
    slots, _ = lfm.pass_schedule(model, dt, 0.0, n_steps)
    state = np.array([psi0, dpsi0])
    psi = []
    for slot in slots:
        state = cycle.transitions[slot] @ state
        psi.append(state[0])
    return dt * np.arange(1, n_steps + 1), np.array(psi)


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

