import numpy as np
import pytest

from eigenlfm import kernels as K
from eigenlfm.errors import InvalidParameterError

ALL_VARIANTS = [
    K.Matern(0.5, 1.3, 0.8),
    K.Matern(1.5, 0.7, 2.0),
    K.PeriodicMatern(0.5, 2.0, 0.5, 7.0),
    K.PeriodicMatern(1.5, 1.0, 0.8, 3.0),
    K.PeriodicSE(3.0, 0.7),
    K.SquaredExponential(1.0, 10.0),
    K.ContinuousQuasi(1.2, 4.0),
    K.StepQuasi(1.5, 2.0, 5.0),
    K.WienerStepQuasi(1.0, 0.5, 5.0),
    K.Product(K.PeriodicMatern(0.5, 1.0, 0.5, 7.0), K.ContinuousQuasi(1.0, 20.0)),
    K.NonStatPeriodic(1.0, 2.0, 10.0, 0.8),
]


def test_phase_values():
    assert K.phase(0.0, 10.0) == 0.0
    assert K.phase(5.0, 10.0) == pytest.approx(1.0)
    assert K.phase(2.5, 10.0) == pytest.approx(0.70711, abs=5e-6)


def test_phase_periodicity_and_zeros():
    taus = np.linspace(-30.0, 30.0, 101)
    np.testing.assert_allclose(K.phase(taus + 10.0, 10.0), K.phase(taus, 10.0),
                               atol=1e-12)
    for n in range(-3, 4):
        assert K.phase(n * 10.0, 10.0) == pytest.approx(0.0, abs=1e-12)


def test_phase_invalid():
    with pytest.raises(InvalidParameterError):
        K.phase(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        K.phase(np.inf, 10.0)


def test_matern12_value():
    assert K.eval_kernel(K.Matern(0.5, 1.0, 1.0), 0.0, 1.0) == pytest.approx(
        np.exp(-1.0), rel=1e-12
    )


def test_periodic_matern_full_period():
    k = K.PeriodicMatern(0.5, 2.0, 0.5, 7.0)
    for t in [0.0, 1.3, -4.2]:
        assert K.eval_kernel(k, t, t + 7.0) == pytest.approx(4.0, rel=1e-12)


def test_periodic_se_unit_diagonal():
    k = K.PeriodicSE(3.0, 0.7)
    for t in [0.0, 0.31, 12.7]:
        assert K.eval_kernel(k, t, t) == pytest.approx(1.0)


def test_wqm_values():
    k = K.WienerStepQuasi(1.0, 2.0, 1.0)
    assert K.eval_kernel(k, 0.5, 2.5) == pytest.approx(1.0)
    # diagonal is xi0 + C(t) xi
    assert K.eval_kernel(k, 2.5, 2.5) == pytest.approx(1.0 + 2 * 2.0)


def test_sqm_within_cycle_exact():
    k = K.StepQuasi(1.5, 2.0, 5.0)
    assert K.eval_kernel(k, 0.3, 4.9) == 1.5**2
    assert K.eval_kernel(k, 5.1, 9.7) == 1.5**2


def test_product_is_pointwise_product():
    a = K.PeriodicMatern(0.5, 1.0, 0.5, 7.0)
    b = K.ContinuousQuasi(1.3, 9.0)
    k = K.Product(a, b)
    rng = np.random.default_rng(0)
    t, tp = rng.uniform(-20, 20, 50), rng.uniform(-20, 20, 50)
    np.testing.assert_array_equal(
        K.eval_kernel(k, t, tp), K.eval_kernel(a, t, tp) * K.eval_kernel(b, t, tp)
    )


@pytest.mark.parametrize("kernel", ALL_VARIANTS)
def test_symmetry(kernel):
    rng = np.random.default_rng(7)
    t, tp = rng.uniform(0, 40, 200), rng.uniform(0, 40, 200)
    np.testing.assert_array_equal(
        K.eval_kernel(kernel, t, tp), K.eval_kernel(kernel, tp, t)
    )


@pytest.mark.parametrize(
    "kernel,period",
    [
        (K.PeriodicMatern(0.5, 2.0, 0.5, 7.0), 7.0),
        (K.PeriodicSE(3.0, 0.7), 0.7),
        (K.NonStatPeriodic(1.0, 2.0, 10.0, 0.8), 10.0),
    ],
)
def test_shift_periodicity(kernel, period):
    rng = np.random.default_rng(3)
    t, tp = rng.uniform(0, 3 * period, 100), rng.uniform(0, 3 * period, 100)
    np.testing.assert_allclose(
        K.eval_kernel(kernel, t + period, tp + period),
        K.eval_kernel(kernel, t, tp),
        rtol=0, atol=1e-13,
    )


@pytest.mark.parametrize("kernel", ALL_VARIANTS)
def test_psd_spot_check(kernel):
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = np.sort(rng.uniform(0, 25, rng.integers(2, 33)))
        gram = K.eval_matrix(kernel, pts, pts)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-8 * np.trace(gram)


def test_eval_matrix_values_and_transpose():
    k = K.Matern(0.5, 1.0, 1.0)
    np.testing.assert_array_equal(K.eval_matrix(k, [0.0], [0.0]), [[1.0]])
    got = K.eval_matrix(k, [0.0, 1.0], [0.0, 1.0])
    e = np.exp(-1.0)
    np.testing.assert_allclose(got, [[1.0, e], [e, 1.0]], rtol=1e-14)
    for kernel in ALL_VARIANTS:
        a = np.linspace(0.0, 9.0, 4)
        b = np.linspace(1.0, 5.0, 3)
        np.testing.assert_array_equal(
            K.eval_matrix(kernel, a, b), K.eval_matrix(kernel, b, a).T
        )


def test_eval_matrix_empty():
    with pytest.raises(InvalidParameterError):
        K.eval_matrix(K.Matern(0.5, 1.0, 1.0), [], [0.0])


@pytest.mark.parametrize(
    "bad",
    [
        lambda: K.Matern(1.0, 1.0, 1.0),        # unsupported order
        lambda: K.Matern(0.5, -1.0, 1.0),
        lambda: K.PeriodicMatern(0.5, 1.0, 0.0, 7.0),
        lambda: K.WienerStepQuasi(-0.1, 1.0, 5.0),
        lambda: K.WienerStepQuasi(1.0, 0.0, 5.0),
        lambda: K.NonStatPeriodic(1.0, 1.0, 10.0, 0.0),
        lambda: K.StepQuasi(1.0, 1.0, -2.0),
    ],
)
def test_invalid_parameters(bad):
    with pytest.raises(InvalidParameterError):
        bad()


def test_config_roundtrip():
    # configs written by hand, as a config document carries them
    matern = {"variant": "matern", "params": {"nu": 0.5, "sigma": 1.0, "ell": 1.0}}
    sqm = {"variant": "sqm", "params": {"sigma": 1.0, "ell": 2.0, "period": 5.0}}
    cases = [
        (matern, K.Matern(0.5, 1.0, 1.0)),
        (sqm, K.StepQuasi(1.0, 2.0, 5.0)),
        ({"variant": "product", "left": matern, "right": sqm},
         K.Product(K.Matern(0.5, 1.0, 1.0), K.StepQuasi(1.0, 2.0, 5.0))),
    ]
    for config, kernel in cases:
        assert K.kernel_from_config(config) == kernel


def test_config_errors():
    with pytest.raises(InvalidParameterError):
        K.kernel_from_config({"variant": "nope"})
    with pytest.raises(InvalidParameterError):
        K.kernel_from_config({"variant": "matern", "params": {"bogus": 1.0}})
    with pytest.raises(InvalidParameterError):
        K.kernel_from_config({})
