"""The numpy Padé `expm` against scipy's (Al-Mohy & Higham 2009), the
test-side reference: on every exponential that the step cycle of each
thermal roster entry takes (the Van Loan blocks of periodic, sqm, wqm and
cqm weights, of the OU and Matern-3/2 blocks and of the resonator bank, the
input response and the constant-weight node propagators), and on a sweep of
1-norms from 0.01, far inside theta_13, through several squarings of the one
degree-13 approximant.

Both are backward stable, not identical: they agree to TOL relative to the
largest entry of the exponential.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from eigenlfm import lfm, pade
from eigenlfm.apps import thermal as th

TOL = 1e-12

PARAMS = dict(
    alpha=0.01, beta=0.1, sigma_ext=3.0, ell_ext=600.0, sigma_obs=0.05, sigma_r=2.0,
    ell_r=0.5, ell_q=3.0, xi=0.5, ell_r_min=120.0, decay=1e-4, diffusion=1e-7,
    gamma_env=0.02, psi_env=0.02, **{f"freq_{j}": (j + 1.0) / 1440.0 for j in range(6)},
)


def _relative_error(a: np.ndarray) -> float:
    ref = scipy.linalg.expm(a)
    return float(np.max(np.abs(pade.expm(a) - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("envelope", [False, True], ids=["single", "envelope"])
@pytest.mark.parametrize("kind", th.THERMAL_METHODS)
def test_expm_matches_scipy_on_every_step_cycle_exponential(monkeypatch, kind, envelope):
    taken = []

    def recording(a):
        taken.append(np.array(a, dtype=float))
        return pade.expm(a)

    monkeypatch.setattr(lfm, "expm", recording)
    model = th.thermal_build(kind, PARAMS, th.ThermalGenConfig(), envelope=envelope)
    for dt in (10.0, 60.0):
        lfm.step_cycle(model, dt)
    assert taken  # the cycle takes its exponentials through lfm.expm
    worst = max(_relative_error(a) for a in taken)
    assert worst < TOL


# exponentials per step cycle: the input response and the z_a Van Loan, plus
# 8 node propagators of a constant-weight force or one Van Loan per force of
# the frozen-m steps; a model with no periodic force reads no propagator
EXPONENTIALS = {"without": 2, "hart": 2, "resonator": 2, "with": 10, "quasi-sqm": 10,
                "quasi-wqm": 10, "quasi-cqm": 3}


@pytest.mark.parametrize("kind", th.THERMAL_METHODS)
def test_step_cycle_takes_no_exponential_that_no_force_reads(monkeypatch, kind):
    taken = []

    def counting(a):
        taken.append(a)
        return pade.expm(a)

    monkeypatch.setattr(lfm, "expm", counting)
    lfm.step_cycle(th.thermal_build(kind, PARAMS, th.ThermalGenConfig()), 10.0)
    assert len(taken) == EXPONENTIALS[kind]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 30])
@pytest.mark.parametrize(
    # one norm in the range where Higham's 2005 cost ladder takes degree 3, 5,
    # 7, 9 or 13 (the ids' middle number), all of which the one degree-13
    # approximant covers, then 2^-s scaling into theta_13
    "norm, ladder_degree, squarings",
    [(0.01, 3, 0), (0.2, 5, 0), (0.9, 7, 0), (2.0, 9, 0), (5.0, 13, 0), (8.0, 13, 1),
     (40.0, 13, 3), (100.0, 13, 5)],
)
def test_expm_matches_scipy_over_a_norm_sweep(monkeypatch, n, norm, ladder_degree, squarings):
    # the drifts are stable, as every model's is, and scaled to the given 1-norm
    assert squarings == max(0, math.ceil(math.log2(norm / pade._THETA_13)))
    scaled_norms = []

    def recording(a):
        scaled_norms.append(np.abs(a).sum(axis=0).max())
        return approximant(a)

    approximant = pade._pade
    monkeypatch.setattr(pade, "_pade", recording)
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rng.standard_normal((n, n)) - 2.0 * math.sqrt(n) * np.eye(n)
        a *= norm / np.abs(a).sum(axis=0).max()
        assert _relative_error(a) < TOL
    assert {round(math.log2(norm / scaled)) for scaled in scaled_norms} == {squarings}


def test_expm_of_zero_and_of_a_non_finite_matrix():
    np.testing.assert_array_equal(pade.expm(np.zeros((3, 3))), np.eye(3))
    assert pade.expm(np.zeros((0, 0))).shape == (0, 0)  # the z_a block of a force-only model
    assert np.isnan(pade.expm(np.array([[np.inf, 1.0], [0.0, 1.0]]))).all()
    assert np.isnan(pade.expm(np.array([[np.nan]]))).all()
