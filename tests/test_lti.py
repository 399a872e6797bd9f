import math

import numpy as np
import pytest

from eigenlfm import lti
from eigenlfm.errors import InvalidParameterError, NoStationaryDistributionError


def test_matern12_block_values():
    blk = lti.matern12_block(1.0, 1.0)
    assert blk.drift[0, 0] == pytest.approx(-1.0)
    assert blk.diffusion == pytest.approx(2.0, rel=1e-14)
    blk2 = lti.matern12_block(2.0, 4.0)
    assert blk2.drift[0, 0] == pytest.approx(-0.25)
    assert blk2.diffusion == pytest.approx(2.0, rel=1e-14)  # 2 sigma^2 / ell


def test_matern12_stationary_variance():
    for sigma, ell in [(1.0, 1.0), (2.0, 4.0), (0.3, 11.0)]:
        blk = lti.matern12_block(sigma, ell)
        np.testing.assert_allclose(
            lti.stationary_covariance(blk), [[sigma**2]], rtol=1e-12
        )


def test_matern32_block():
    blk = lti.matern32_block(1.0, math.sqrt(3.0))
    np.testing.assert_allclose(blk.drift, [[0.0, 1.0], [-1.0, -2.0]], atol=1e-14)
    assert blk.diffusion == pytest.approx(4.0, rel=1e-12)
    np.testing.assert_allclose(lti.stationary_covariance(blk), np.eye(2), atol=1e-12)
    np.testing.assert_array_equal(blk.extract, [1.0, 0.0])


def test_matern32_stationary_closed_form():
    sigma, ell = 1.7, 2.4
    blk = lti.matern32_block(sigma, ell)
    rho = math.sqrt(3.0) / ell
    np.testing.assert_allclose(
        lti.stationary_covariance(blk),
        np.diag([sigma**2, rho**2 * sigma**2]),
        rtol=1e-10, atol=1e-12,
    )


def test_lyapunov_residual():
    blk = lti.matern32_block(0.9, 1.7)
    cov = lti.stationary_covariance(blk)
    source = blk.diffusion * blk.noise @ blk.noise.T
    residual = blk.drift @ cov + cov @ blk.drift.T + source
    assert np.max(np.abs(residual)) < 1e-10


def test_constant_block():
    blk = lti.constant_block()
    assert blk.drift[0, 0] == 0.0
    assert blk.diffusion == 0.0
    with pytest.raises(NoStationaryDistributionError):
        lti.stationary_covariance(blk)


def test_cqm_matches_matern12():
    # cqm weights follow the OU block (lfm.cqm_force reads its rate and
    # diffusion); its autocovariance over gaps is sigma^2 exp(-dt/ell)
    sigma, ell = 1.4, 2.1
    blk = lti.matern12_block(sigma, ell)
    var = lti.stationary_covariance(blk)[0, 0]
    for dt in (0.1, 0.5, 1.0, 2.5, 5.0):
        cov = math.exp(blk.drift[0, 0] * dt) * var
        assert cov == pytest.approx(sigma**2 * math.exp(-dt / ell), rel=1e-8)


def test_cqm_long_scale_limit():
    blk = lti.matern12_block(1.0, 1e12)
    assert abs(blk.drift[0, 0]) < 1e-11
    assert blk.diffusion < 1e-11


def test_sqm_jump_values():
    jump = lti.sqm_jump(1.0)
    assert jump.gain == pytest.approx(0.36788, abs=5e-6)
    assert jump.noise_var == pytest.approx(0.86466, abs=5e-6)


@pytest.mark.parametrize("sigma,ell", [(1.0, 1.0), (2.3, 0.7), (0.5, 9.0)])
def test_sqm_variance_preservation_exact(sigma, ell):
    # the jump is at unit scale; a weight of prior variance sigma^2 scales
    # its noise by sigma^2, as lfm does with the weight's scaled eigenvalue
    jump = lti.sqm_jump(ell)
    assert jump.gain**2 * sigma**2 + sigma**2 * jump.noise_var == sigma**2


def test_sqm_long_scale_limit():
    jump = lti.sqm_jump(1e9)
    assert jump.gain == pytest.approx(1.0, abs=1e-8)
    assert jump.noise_var == pytest.approx(0.0, abs=1e-8)


def test_wqm_jump():
    jump = lti.wqm_jump(2.0)
    assert jump.gain == 1.0
    # variance chain: prior 1 -> 3 after one changepoint, 5 after two
    var = 1.0
    for expected in (3.0, 5.0):
        var = jump.gain**2 * var + jump.noise_var
        assert var == expected


def test_weight_chain_covariance_matches_sqm_kernel():
    from eigenlfm import kernels

    sigma, ell = 1.3, 2.0
    jump = lti.sqm_jump(ell)
    kernel = kernels.StepQuasi(sigma, ell, 1.0)
    cross = sigma**2
    for m in range(1, 8):
        cross = jump.gain * cross  # cov(a_m, a_0)
        expected = kernels.eval_kernel(kernel, m + 0.5, 0.5)
        assert abs(cross - expected) < 1e-10


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        lti.matern12_block(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        lti.matern32_block(1.0, -1.0)
    with pytest.raises(InvalidParameterError):
        lti.sqm_jump(0.0)
    with pytest.raises(InvalidParameterError):
        lti.wqm_jump(0.0)
