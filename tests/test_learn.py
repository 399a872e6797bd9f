import numpy as np
import pytest

from eigenlfm import learn
from eigenlfm.errors import InvalidParameterError, NumericError


def quadratic_space():
    return learn.ParamSpace(
        (
            learn.Param("a", 1e-3, 100.0, 3.0),
            learn.Param("b", 1e-3, 100.0, 0.2),
        )
    )


def test_quadratic_maximum():
    objective = lambda p: -((p["a"] - 1.0) ** 2) - (p["b"] - 1.0) ** 2
    result = learn.fit(objective, quadratic_space(), budget=500, seed=0)
    assert result.params["a"] == pytest.approx(1.0, abs=1e-4)
    assert result.params["b"] == pytest.approx(1.0, abs=1e-4)
    assert result.evaluations <= 500


def test_budget_exhaustion_flag():
    objective = lambda p: -((p["a"] - 1.0) ** 2) - (p["b"] - 1.0) ** 2
    result = learn.fit(objective, quadratic_space(), budget=10, seed=0)
    assert result.truncated
    assert np.isfinite(result.value)


def test_deterministic_trace():
    objective = lambda p: -((p["a"] - 2.0) ** 2) - (p["b"] - 0.5) ** 2
    r1 = learn.fit(objective, quadratic_space(), budget=80, restarts=2, seed=7)
    r2 = learn.fit(objective, quadratic_space(), budget=80, restarts=2, seed=7)
    assert r1.trace == r2.trace
    assert r1.params == r2.params


def test_monotone_best_so_far():
    objective = lambda p: -((p["a"] - 1.0) ** 2) - (p["b"] - 1.0) ** 2
    result = learn.fit(objective, quadratic_space(), budget=120, seed=0)
    best = np.maximum.accumulate(result.trace)
    assert np.all(np.diff(best) >= 0)
    assert result.value == pytest.approx(best[-1])


def test_nonfinite_initial_point():
    with pytest.raises(InvalidParameterError):
        learn.fit(lambda p: float("nan"), quadratic_space(), budget=50)

    def raises(p):
        raise NumericError("innovation covariance is singular")

    with pytest.raises(InvalidParameterError, match="initial point"):
        learn.fit(raises, quadratic_space(), budget=50)


def test_nonfinite_elsewhere_is_survivable():
    # a > 3.1 lies inside the first simplex around the initial a = 3
    def non_finite(p):
        return -np.inf if p["a"] > 3.1 else -((p["a"] - 1.0) ** 2)

    def numeric_error(p):
        if p["a"] > 3.1:
            raise NumericError("innovation covariance is singular")
        return -((p["a"] - 1.0) ** 2)

    for objective in (non_finite, numeric_error):
        result = learn.fit(objective, quadratic_space(), budget=200, seed=0)
        assert result.params["a"] == pytest.approx(1.0, abs=1e-3)
        assert min(result.trace) == -learn._BAD


def test_param_validation():
    with pytest.raises(InvalidParameterError):
        learn.Param("x", 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        learn.Param("x", 1.0, 2.0, 3.0)
    with pytest.raises(InvalidParameterError):
        learn.Param("x", -1.0, 2.0, 1.0)  # log-space needs positive lower
    with pytest.raises(InvalidParameterError):
        learn.fit(lambda p: 0.0, quadratic_space(), budget=3)


def test_json_report_fields():
    import json

    objective = lambda p: -((p["a"] - 1.0) ** 2) - (p["b"] - 1.0) ** 2
    result = learn.fit(objective, quadratic_space(), budget=60, seed=0)
    doc = json.loads(result.to_json())
    assert set(doc) == {"params", "loglik", "evaluations", "restarts", "truncated"}


def test_ou_scale_recovery_band():
    # fitting OU hyperparameters on data drawn from known scales recovers
    # them within a factor of two in most seeds (weak identifiability band)
    from eigenlfm import kernels
    from eigenlfm.baselines import DenseGp, log_marginal_likelihood

    # three simulated days of thirty length scales each
    times = np.linspace(0.0, 150.0, 150)
    true = kernels.Matern(0.5, 2.0, 5.0)
    gram = kernels.eval_matrix(true, times, times)
    chol = np.linalg.cholesky(gram + 1e-10 * np.eye(150))
    space = learn.ParamSpace(
        (
            learn.Param("sigma", 0.05, 50.0, 1.0),
            learn.Param("ell", 0.1, 100.0, 2.0),
        )
    )
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = chol @ rng.standard_normal(150) + 0.05 * rng.standard_normal(150)

        def objective(p):
            model = DenseGp(kernels.Matern(0.5, p["sigma"], p["ell"]), 0.05**2,
                            times, y)
            return log_marginal_likelihood(model)

        result = learn.fit(objective, space, budget=160, seed=0)
        ok_sigma = 1.0 <= result.params["sigma"] <= 4.0
        ok_ell = 2.5 <= result.params["ell"] <= 10.0
        hits += ok_sigma and ok_ell
    assert hits >= 16


def test_check_rejects_missing_and_out_of_bounds_params():
    space = quadratic_space()
    space.check({"a": 1e-3, "b": 100.0, "extra": -1.0}, "m")  # bounds are inclusive
    with pytest.raises(InvalidParameterError, match="lack b"):
        space.check({"a": 1.0}, "m")
    with pytest.raises(InvalidParameterError, match=r"'m': b = 200.0 lies outside \[0.001, 100\]"):
        space.check({"a": 1.0, "b": 200.0}, "m")
    for bad in (0.0, float("nan"), "1.0"):
        with pytest.raises(InvalidParameterError, match="a = .* lies outside"):
            space.check({"a": bad, "b": 1.0}, "m")
