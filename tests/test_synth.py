"""Oracles for the synthetic draws of `apps/synth`.

The periodic draw evaluates its eigenfunction rows over one period and
tiles them; the references below evaluate every row of the grid, and run
the Matern recursions in the matrix form and with one scalar draw per step,
and the quasi-cqm weight chain as the sequential recursion the draw scans.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import lfm, lti
from eigenlfm.apps import queueing as qa
from eigenlfm.apps import synth
from eigenlfm.apps import thermal as ta
from eigenlfm.errors import ContractViolationError

KINDS = ("with", "quasi-sqm", "quasi-wqm", "quasi-cqm")


def _reference_periodic_draw(grid, basis, kind, rng, ell_q, xi):
    """Every row of the grid evaluated, cycles counted from time 0."""
    mu = basis.scaled_eigenvalues()
    period = basis.period
    phi = eb.eigenfunction_matrix(basis, grid)
    if kind == "quasi-cqm":
        w = np.empty((grid.size, mu.size))
        w[0] = rng.standard_normal(mu.size) * np.sqrt(mu)
        for k in range(1, grid.size):
            g = math.exp(-(grid[k] - grid[k - 1]) / (ell_q * period))
            w[k] = g * w[k - 1] + rng.standard_normal(mu.size) * np.sqrt(mu * (1.0 - g * g))
        return np.sum(phi * w, axis=1)
    days = int(np.ceil((grid[-1] + 1e-9) / period))
    w = np.empty((days, mu.size))
    w[0] = rng.standard_normal(mu.size) * np.sqrt(mu)
    jump = lti.sqm_jump(ell_q)
    for d in range(1, days):
        if kind == "with":
            w[d] = w[0]
        elif kind == "quasi-sqm":
            w[d] = jump.gain * w[d - 1] + rng.standard_normal(mu.size) * np.sqrt(
                mu * jump.noise_var
            )
        else:
            w[d] = w[d - 1] + rng.standard_normal(mu.size) * np.sqrt(mu * xi)
    day_of = np.minimum((grid / period).astype(int), days - 1)
    return np.sum(phi * w[day_of], axis=1)


def _reference_matern32(n, step, sigma, ell, rng):
    """The 2-state recursion in matrix form, two normals drawn per step."""
    block = lti.matern32_block(sigma, ell)
    g = scipy.linalg.expm(block.drift * step)
    p_inf = lti.stationary_covariance(block)
    q = p_inf - g @ p_inf @ g.T
    chol_q = np.linalg.cholesky(q + 1e-14 * np.eye(2) * max(1.0, q[0, 0]))
    state = np.linalg.cholesky(p_inf) @ rng.standard_normal(2)
    out = np.empty(n)
    out[0] = state[0]
    for k in range(1, n):
        state = g @ state + chol_q @ rng.standard_normal(2)
        out[k] = state[0]
    return out


def _reference_ou(grid, sigma, ell, rng):
    out = np.empty(grid.size)
    out[0] = rng.standard_normal() * sigma
    for k in range(1, grid.size):
        g = math.exp(-(grid[k] - grid[k - 1]) / ell)
        out[k] = g * out[k - 1] + rng.standard_normal() * sigma * math.sqrt(1.0 - g * g)
    return out


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "period, step, n_cycles",
    [(10.0, 0.5, 4.3), (synth.DAY_MINUTES, 5.0, 3.0)],
    ids=["short", "daily"],
)
def test_tiled_periodic_draw_matches_full_grid_rows(kind, period, step, n_cycles):
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.4, period), 64, period, 0.01)
    grid = np.arange(0.0, n_cycles * period + 1e-9, step)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    force = synth.roster_force(kind, basis, {"ell_q": 2.0, "xi": 0.5}, [1.0])
    drawn = synth.draw_periodic_force(grid, force, rng)
    expected = _reference_periodic_draw(grid, basis, kind, ref_rng, 2.0, 0.5)
    np.testing.assert_allclose(drawn, expected, rtol=0.0, atol=1e-12)
    assert _same_state(rng, ref_rng)


@pytest.mark.parametrize("ell_q", [0.002, 1e-4], ids=["g32-underflows", "g2-underflows"])
def test_cqm_scan_matches_the_sequential_recursion(ell_q):
    # the cqm weights are one prefix scan in powers of g = exp(-step / ell)
    # (the tiled-draw test covers a long ell_q); at ell_q = 0.002 cycles
    # g^32 = e^-800 underflows to 0 before the scan covers the 87-point grid,
    # and at 1e-4 g^2 = e^-1000 does
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.4, 10.0), 64, 10.0, 0.01)
    grid = np.arange(0.0, 43.0 + 1e-9, 0.5)
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    force = synth.roster_force("quasi-cqm", basis, {"ell_q": ell_q}, [1.0])
    drawn = synth.draw_periodic_force(grid, force, rng)
    expected = _reference_periodic_draw(grid, basis, "quasi-cqm", ref_rng, ell_q, None)
    np.testing.assert_allclose(drawn, expected, rtol=0.0, atol=1e-12)
    assert _same_state(rng, ref_rng)


@pytest.mark.parametrize("seed", [0, 3])
def test_matern32_draw_matches_the_matrix_recursion(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = synth.draw_matern32(3000, 1.0, 2.0, 1200.0, rng)
    expected = _reference_matern32(3000, 1.0, 2.0, 1200.0, ref_rng)
    scale = np.maximum(1.0, np.abs(expected))
    assert np.max(np.abs(drawn - expected) / scale) < 1e-12
    assert _same_state(rng, ref_rng)


def test_ou_draw_matches_one_draw_per_step_bit_for_bit():
    grid = np.concatenate([np.arange(0.0, 50.0, 0.5), 50.0 + np.cumsum(np.full(40, 1.7))])
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    drawn = synth.draw_ou(grid, 1.3, 30.0, rng)
    np.testing.assert_array_equal(drawn, _reference_ou(grid, 1.3, 30.0, ref_rng))
    assert _same_state(rng, ref_rng)


@pytest.mark.parametrize(
    "grid, step",
    [
        (np.where(np.arange(20.0) == 5.0, 5.3, np.arange(20.0)), "1"),  # one point moved
        (np.arange(20.0)[[0, 2, 1, *range(3, 20)]], "1"),                 # out of order
        (np.arange(0.0, 30.0, 3.0), "3"),                                  # 3 does not divide 10
    ],
    ids=["moved", "unordered", "step-3"],
)
def test_periodic_draw_rejects_a_grid_it_cannot_tile(grid, step):
    basis = eb.build(K.PeriodicMatern(0.5, 1.0, 0.4, 10.0), 16, 10.0, 0.01)
    with pytest.raises(ContractViolationError, match=f"mean step {step}, period 10\\)"):
        synth.draw_periodic_force(grid, lfm.periodic_force(basis, [1.0]), np.random.default_rng(0))


@pytest.mark.parametrize(
    "generate, config",
    [
        (ta.generate_thermal_data, ta.ThermalGenConfig(days=3)),
        (ta.generate_thermal_data, ta.ThermalGenConfig(days=3, residual_kind="quasi-cqm")),
        (qa.generate_queue_data, qa.QueueGenConfig(days=3)),
        (qa.generate_queue_data, qa.QueueGenConfig(days=3, kind="quasi-cqm")),
    ],
    ids=["thermal-sqm", "thermal-cqm", "queue-sqm", "queue-cqm"],
)
def test_generators_evaluate_one_period_of_rows(monkeypatch, generate, config):
    # both generators draw their force on the one-minute grid of the record
    rows = []
    evaluate = eb.eigenfunction_matrix

    def counting(basis, t):
        out = evaluate(basis, t)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(eb, "eigenfunction_matrix", counting)
    generate(config, 0)
    assert rows == [int(synth.DAY_MINUTES)]


def test_roster_cap_error_names_kind_scale_and_count():
    # the thermal generator's own default phase scale selects more than the cap
    config = ta.ThermalGenConfig()
    text = (r"^periodic roster exceeded 30 basis functions: 'with' at phase scale "
            r"ell = 0\.3 selects 33, the cap is 30$")
    with pytest.raises(ContractViolationError, match=text):
        synth.periodic_roster("with", config.sigma_r, config.ell_r, {}, config, np.ones(1))
