import tracemalloc

import numpy as np
import pytest

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm.baselines.comparison import linear_regress
from eigenlfm.errors import InvalidParameterError


def constant_kernel(c):
    return lambda t, tp: np.broadcast_to(c, np.broadcast_shapes(np.shape(t), np.shape(tp))).astype(float)


def test_constant_kernel_basis():
    c = 2.5
    basis = eb.build(constant_kernel(c), 4, 1.0, gamma=0.5)
    assert basis.eigenvalues[0] == pytest.approx(4 * c, rel=1e-12)
    assert list(basis.selected) == [0]
    # its eigenvector, phi at the sample points over sqrt(N), is 1 / sqrt(4) everywhere
    v = eb.eigenfunction_matrix(basis, basis.sample_points)[:, 0] / np.sqrt(basis.n_points)
    np.testing.assert_allclose(v, 0.5 * np.ones(4), atol=1e-12)
    # the single eigenfunction is identically one
    ts = np.linspace(-3, 7, 23)
    np.testing.assert_allclose(eb.eigenfunction_matrix(basis, ts)[:, 0], np.ones(23), atol=1e-10)
    # and resynthesis returns the constant
    assert eb.reconstruct(basis, 0.37, 5.1) == pytest.approx(c, rel=1e-10)


def test_selected_counts():
    basis = eb.build(K.PeriodicSE(3.0, 0.7), 64, 0.7, gamma=0.01)
    assert basis.n_selected <= 30
    # gamma = 1 keeps only the top eigenpair when it is strictly dominant
    top = eb.build(K.PeriodicSE(3.0, 0.7), 64, 0.7, gamma=1.0)
    assert list(top.selected) == [0]


def test_nystrom_identity_at_sample_points():
    basis = eb.build(K.PeriodicMatern(0.5, 1.5, 0.4, 10.0), 64, 10.0, gamma=0.01)
    phi = eb.eigenfunction_matrix(basis, basis.sample_points)
    # the eigenvectors of the Gram, descending, each signed so that its
    # largest-magnitude entry is positive
    s = basis.sample_points
    gram = K.eval_matrix(basis.kernel, s, s)
    mu, v = np.linalg.eigh(0.5 * (gram + gram.T))
    v = v[:, np.argsort(mu)[::-1]][:, basis.selected]
    v *= np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])])
    ref = np.sqrt(basis.n_points) * v
    assert np.max(np.abs(phi - ref)) < 1e-8


def test_orthonormality_and_ordering():
    basis = eb.build(K.PeriodicMatern(0.5, 1.5, 0.4, 10.0), 64, 10.0, gamma=0.01)
    # the eigenfunctions are orthonormal on the sample points: phi^T phi / N = I
    phi = eb.eigenfunction_matrix(basis, basis.sample_points)
    np.testing.assert_allclose(phi.T @ phi / basis.n_points, np.eye(basis.n_selected), atol=1e-10)
    mu = basis.eigenvalues
    assert np.all(np.diff(mu) <= 1e-10 * mu[0])
    assert np.all(mu[basis.selected] >= 0.01 * mu[0])  # the gamma of the build


def test_eigenfunction_periodicity():
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.5, 10.0), 64, 10.0, gamma=0.01)
    t = np.linspace(0, 10, 41)
    np.testing.assert_allclose(
        eb.eigenfunction_matrix(basis, t + 10.0)[:, :3],
        eb.eigenfunction_matrix(basis, t)[:, :3],
        atol=1e-10,
    )


def test_reconstruct_spectral_resynthesis():
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.5, 10.0), 32, 10.0, gamma=1e-13)
    gram = K.eval_matrix(basis.kernel, basis.sample_points, basis.sample_points)
    s = basis.sample_points
    assert eb.reconstruct(basis, s[2], s[5]) == pytest.approx(gram[2, 5], abs=1e-8)


def test_reconstruct_se_window_with_22_eigenfunctions():
    kernel = K.SquaredExponential(1.0, 10.0)
    probe = eb.build(kernel, 100, 120.0, gamma=1e-15)
    gamma = 0.5 * (probe.eigenvalues[21] + probe.eigenvalues[22]) / probe.eigenvalues[0]
    basis = eb.build(kernel, 100, 120.0, gamma=gamma)
    assert basis.n_selected == 22
    grid = np.linspace(0.0, 120.0, 200)
    err = np.abs(eb.reconstruct(basis, grid, grid) - K.eval_matrix(kernel, grid, grid))
    assert err.max() <= 1e-4


def test_convergence_in_n():
    kernel = K.PeriodicSE(3.0, 0.7)
    grid = np.linspace(0.0, 0.7, 200)
    true = K.eval_matrix(kernel, grid, grid)
    errs = []
    for n in (16, 32, 64, 128):
        basis = eb.build(kernel, n, 0.7, gamma=1e-13)
        errs.append(np.max(np.abs(eb.reconstruct(basis, grid, grid) - true)))
    assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))


def test_eigencount_monotone_in_smoothness():
    counts = [
        eb.build(K.PeriodicMatern(0.5, 1.0, ell, 10.0), 100, 10.0, 0.01).n_selected
        for ell in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_build_validation():
    k = K.PeriodicSE(3.0, 0.7)
    with pytest.raises(InvalidParameterError):
        eb.build(k, 1, 0.7)
    with pytest.raises(InvalidParameterError):
        eb.build(k, 16, 0.0)
    with pytest.raises(InvalidParameterError):
        eb.build(k, 16, 0.7, gamma=0.0)
    with pytest.raises(InvalidParameterError):
        eb.build(k, 16, 0.7, gamma=1.5)


def test_moderated_kernel_escape_hatch():
    # non-stationary demonstration kernel supplied as a plain callable
    base = K.PeriodicMatern(1.5, 1.0, 1.0, 10.0)

    def moderated(t, tp):
        return K.eval_kernel(base, t, tp) * np.exp(-np.abs(t) - np.abs(tp))

    basis = eb.build(moderated, 48, 10.0, gamma=1e-3)
    assert basis.n_selected >= 3
    # anharmonic: the leading eigenfunction is visibly non-sinusoidal
    t = np.linspace(0, 10, 200)
    phi = eb.eigenfunction_matrix(basis, t)[:, 0]
    assert np.abs(phi).max() > 0


def test_kpca_regression_prior_variance():
    basis = eb.build(K.PeriodicMatern(0.5, 1.5, 0.4, 10.0), 64, 10.0, gamma=0.01)
    t = np.linspace(0, 10, 17)
    _, var = linear_regress(
        np.zeros((0, basis.n_selected)), [], eb.eigenfunction_matrix(basis, t),
        basis.scaled_eigenvalues(), 1e-8,
    )
    np.testing.assert_allclose(var, eb.reconstruct(basis, t, t).diagonal(), rtol=1e-10)


def _queue_node_rows():
    """The queue's daily basis (N = 100, J = 19) and the Gauss-node times of
    one day of 2-minute steps: 720 steps of 8 nodes, 5760 rows."""
    basis = eb.build(K.PeriodicMatern(0.5, 1.2, 0.5, 1440.0), 100, 1440.0, gamma=0.01)
    x, _ = np.polynomial.legendre.leggauss(8)
    nodes = (2.0 * np.arange(720)[:, None] + (x + 1.0)).ravel()
    return basis, nodes


def test_blocked_rows_equal_the_one_shot_product_bitwise():
    basis, nodes = _queue_node_rows()
    assert (basis.n_points, basis.n_selected) == (100, 19)
    block = eb.BLOCK_ENTRIES // basis.n_points
    assert block < nodes.size

    def one_shot(t):
        rows = K.eval_matrix(basis.kernel, t, basis.sample_points)
        return (rows @ basis._v_selected) * basis._scale_selected

    for t in (nodes[7], nodes[:1], nodes[:block], nodes[:block + 1], nodes):
        got = eb.eigenfunction_matrix(basis, t)
        assert got.shape == (np.size(t), basis.n_selected)
        np.testing.assert_array_equal(got, one_shot(t))


def test_eigenfunction_rows_are_evaluated_in_bounded_blocks():
    # the (5760, 19) result is 0.88 MB; an unblocked (5760, 100) kernel block
    # and its temporaries would peak near 19 MB
    basis, nodes = _queue_node_rows()
    eb.eigenfunction_matrix(basis, nodes[:10])
    tracemalloc.start()
    try:
        eb.eigenfunction_matrix(basis, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_eigenfunction_points_must_be_non_empty():
    basis, _ = _queue_node_rows()
    with pytest.raises(InvalidParameterError, match="non-empty"):
        eb.eigenfunction_matrix(basis, [])
