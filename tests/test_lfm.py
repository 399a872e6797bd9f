import math

import numpy as np
import pytest
import scipy.linalg

from eigenlfm import eigenbasis as eb
from eigenlfm import kernels as K
from eigenlfm import lfm, lti
from eigenlfm.errors import ContractViolationError, InvalidParameterError
from eigenlfm.filtering import kalman_pass, predict, update
from helpers import one_step
from oracles import gp_regress, log_marginal_likelihood, stationary_lfm_kernel


def constant_kernel(c):
    return lambda t, tp: np.broadcast_to(
        c, np.broadcast_shapes(np.shape(t), np.shape(tp))
    ).astype(float)


def sample_basis(ell=0.4, period=10.0, n=64, gamma=0.01, sigma=1.5):
    return eb.build(K.PeriodicMatern(0.5, sigma, ell, period), n, period, gamma)


def periodic_force_row(model, t):
    """The row that reads the model's one periodic force out of the state at t."""
    row = np.zeros(model.dim)
    lo, hi = model.layout.weight_spans[0]
    row[lo:hi] = eb.eigenfunction_matrix(model.periodic[0].basis, t)[0]
    return row


def test_assemble_target_only_reduces_to_lti():
    drift = np.array([[0.0, 1.0], [-4.0, 0.0]])  # harmonic oscillator
    model = lfm.assemble(drift)
    g, q = one_step(lfm.discretize, model, 0.0, 0.7)
    w = 2.0
    expected = np.array(
        [
            [np.cos(w * 0.7), np.sin(w * 0.7) / w],
            [-w * np.sin(w * 0.7), np.cos(w * 0.7)],
        ]
    )
    np.testing.assert_allclose(g, expected, atol=1e-12)
    assert not q.any()


def test_pure_ou_discretization():
    model = lfm.assemble(
        np.zeros((1, 1)),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern12_block(1.0, 1.0), np.array([0.0]))],
    )
    g, q = one_step(lfm.discretize, model, 3.0, 4.0)
    assert g[1, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert q[1, 1] == pytest.approx(1.0 - np.exp(-2.0), rel=1e-10)


def test_layout_dimensions():
    basis = sample_basis()
    model = lfm.assemble(
        np.array([[-0.5]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern32_block(1.0, 2.0), np.array([1.0]))],
        periodic=[lfm.periodic_force(basis, [1.0])],
    )
    assert model.layout.dim_za == 1 + 2
    assert model.dim == 1 + 2 + basis.n_selected


def test_identity_step():
    model = lfm.assemble(np.zeros((1, 1)))
    g, q = one_step(lfm.discretize, model, 0.0, 1.0)
    np.testing.assert_array_equal(g, np.eye(1))
    assert not q.any()
    assert not lfm.step_cycle(model, 1.0).input_on.any()


def test_constant_weight_transition_constant_kernel():
    # flat target, constant kernel: the weight column is dt * phi value
    c = 2.0
    basis = eb.build(constant_kernel(c), 8, 1.0, gamma=0.5)
    model = lfm.assemble(
        np.zeros((1, 1)), periodic=[lfm.periodic_force(basis, [3.0])]
    )
    dt = 0.37
    g, _ = one_step(lfm.constant_weight_transition, model, 0.0, dt)
    # phi is identically 1, so the convolution integral is coupling * dt
    assert g[0, 1] == pytest.approx(3.0 * dt, rel=1e-12)
    np.testing.assert_allclose(g[1:, 1:], np.eye(1), atol=1e-14)


def test_constant_weight_matches_spec_formula():
    c = 2.0
    basis = eb.build(constant_kernel(c), 8, 1.0, gamma=0.5)
    model = lfm.assemble(
        np.zeros((1, 1)), periodic=[lfm.periodic_force(basis, [1.0])]
    )
    dt = 0.25
    g, _ = one_step(lfm.constant_weight_transition, model, 0.0, dt)
    n = basis.n_points
    mu = basis.eigenvalues[0]
    v = np.full(n, 1.0 / np.sqrt(n))  # the unit eigenvector of a constant Gram
    expected = dt * (np.sqrt(n) / mu) * c * np.sum(v)
    assert g[0, 1] == pytest.approx(expected, rel=1e-12)


def test_frozen_m_converges_to_exact_at_second_order():
    basis = sample_basis()
    model = lfm.assemble(
        np.array([[-0.5]]), periodic=[lfm.periodic_force(basis, [1.0])]
    )
    diffs = []
    for dt in (0.4, 0.2, 0.1):
        a, _ = one_step(lfm.constant_weight_transition, model, 1.0, 1.0 + dt)
        b, _ = one_step(lfm.discretize, model, 1.0, 1.0 + dt)
        diffs.append(np.max(np.abs(a - b)))
    rate1 = diffs[0] / diffs[1]
    rate2 = diffs[1] / diffs[2]
    assert rate1 > 3.0 and rate2 > 3.0  # O(dt^2) halves to a quarter


def test_semigroup_pure_lti():
    model = lfm.assemble(
        np.array([[-0.3]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern32_block(1.0, 2.0), np.array([1.0]))],
    )
    g1, _ = one_step(lfm.discretize, model, 0.0, 0.7)
    g2, _ = one_step(lfm.discretize, model, 0.7, 1.5)
    g12, _ = one_step(lfm.discretize, model, 0.0, 1.5)
    assert np.max(np.abs(g2 @ g1 - g12)) < 1e-10


def test_transition_noise_psd():
    basis = sample_basis()
    model = lfm.assemble(
        np.array([[-0.5]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern12_block(1.0, 3.0), np.array([1.0]))],
        periodic=[lfm.cqm_force(basis, [1.0], 20.0)],
    )
    for t0 in np.linspace(0.0, 9.0, 7):
        _, q = one_step(lfm.discretize, model, t0, t0 + 0.5)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-10 * max(np.trace(q), 1e-30)


def test_prior_force_variance_matches_reconstruction():
    basis = sample_basis()
    model = lfm.assemble(
        np.array([[-0.5]]), periodic=[lfm.periodic_force(basis, [1.0])]
    )
    _, cov = lfm.initial_state(model, [0.0], [[1.0]])
    for t in (0.0, 2.7, 6.03, 9.99):
        row = periodic_force_row(model, t)
        var = row @ cov @ row
        assert var == pytest.approx(eb.reconstruct(basis, t, t), abs=1e-8)


def test_apply_changepoint_sqm():
    basis = eb.build(constant_kernel(1.0), 4, 1.0, gamma=0.5)
    model = lfm.assemble(
        np.zeros((1, 1)),
        periodic=[lfm.sqm_force(basis, [1.0], 1.0)],
        changepoints=[5.0],
    )
    # the constant kernel has mu_scaled = 1, so the weight carries unit prior
    assert basis.scaled_eigenvalues()[0] == pytest.approx(1.0, rel=1e-12)
    means, cov = lfm.apply_changepoint_moments(model, np.array([[0.0, 1.0]]), np.eye(2))
    assert means[0, 1] == pytest.approx(0.36788, abs=5e-6)
    assert cov[1, 1] == pytest.approx(1.0, rel=1e-10)  # variance preserved


def test_apply_changepoint_wqm_and_cross_covariance():
    basis = eb.build(constant_kernel(1.0), 4, 1.0, gamma=0.5)
    model = lfm.assemble(
        np.zeros((1, 1)),
        periodic=[lfm.wqm_force(basis, [1.0], 2.0)],
        changepoints=[5.0],
    )
    cov = np.array([[2.0, 0.7], [0.7, 1.0]])
    mean = np.array([[1.5, -0.5]])
    means, out = lfm.apply_changepoint_moments(model, mean, cov)
    assert means[0, 1] == -0.5                      # unit gain
    assert out[1, 1] == pytest.approx(3.0)          # variance + xi
    assert out[0, 1] == pytest.approx(0.7)          # cross scaled by gain = 1
    assert out[0, 0] == 2.0                         # target untouched
    assert cov[1, 1] == 1.0                         # the inputs are not written

    # gain scaling of the cross term for a step jump
    model2 = lfm.assemble(
        np.zeros((1, 1)),
        periodic=[lfm.sqm_force(basis, [1.0], 2.0)],
        changepoints=[5.0],
    )
    _, out2 = lfm.apply_changepoint_moments(model2, mean, cov)
    gain = lti.sqm_jump(2.0).gain
    assert out2[0, 1] == pytest.approx(0.7 * gain)


def test_changepoint_inside_step_rejected():
    basis = sample_basis()
    model = lfm.assemble(
        np.zeros((1, 1)),
        periodic=[lfm.sqm_force(basis, [1.0], 1.0)],
        changepoints=[5.0],
    )
    # the cycle builds; a pass whose step (4, 6) holds the changepoint raises
    lfm.step_cycle(model, 2.0)
    with pytest.raises(ContractViolationError, match="changepoint at 5 is not on the step grid"):
        lfm.pass_schedule(model, 2.0, 4.0, 1)
    # steps touching the boundary are fine
    assert lfm.pass_schedule(model, 0.5, 4.5, 2) == ([9, 10], {1})


def test_input_term_integration():
    # dz/dt = -z + u with constant input u: z(dt) response = (1 - e^-dt) u
    model = lfm.assemble(np.array([[-1.0]]), binary_input=[2.0])
    input_on = lfm.step_cycle(model, 0.8).input_on
    assert input_on[0] == pytest.approx(2.0 * (1.0 - np.exp(-0.8)), rel=1e-12)


def test_discretize_input_term_matches_full_drift_reference():
    # the input term from the z_a block equals B0 @ [u; 0] with B0 from the
    # exponential of the full frozen drift
    basis = sample_basis()
    u = np.array([0.7])
    model = lfm.assemble(
        np.array([[-0.5]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern32_block(1.0, 2.0), np.array([0.8]))],
        periodic=[lfm.cqm_force(basis, [1.3], 20.0)],
        binary_input=u,
    )
    t0, dt = 1.3, 0.5
    input_on = lfm.step_cycle(model, dt).input_on

    c, cza = model.dim, model.layout.dim_za
    drift = np.zeros((c, c))
    drift[:cza, :cza] = model.drift_za
    drift[0, cza:] = 1.3 * eb.eigenfunction_matrix(basis, t0)[0]
    drift[cza:, cza:] = model.periodic[0].weight_rate * np.eye(c - cza)
    block = np.zeros((2 * c, 2 * c))
    block[:c, :c] = drift
    block[:c, c:] = np.eye(c)
    b0 = scipy.linalg.expm(block * dt)[:c, c:]
    ref = b0 @ np.concatenate([u, np.zeros(c - u.size)])
    assert np.abs(ref[cza:]).max() < 1e-14  # inputs never reach the weights
    np.testing.assert_allclose(input_on, ref, rtol=0.0, atol=1e-12)


def _stepper_model(kind, changepoints):
    basis = sample_basis()
    periodic = {
        "none": [],
        "with": [lfm.periodic_force(basis, [1.0])],
        "sqm": [lfm.sqm_force(basis, [1.0], 2.0)],
        "cqm": [lfm.cqm_force(basis, [1.0], 20.0)],
    }[kind]
    return lfm.assemble(
        np.array([[-0.5]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern12_block(1.0, 3.0), np.array([1.0]))],
        periodic=periodic,
        changepoints=changepoints,
        binary_input=[0.3],
    )


@pytest.mark.parametrize("kind", ["sqm", "cqm"])
def test_pass_steps_match_direct_transitions(kind):
    # the pass covers (1, 7]: 2.0 and 5.0 end steps 2 and 8, 7.5 and 20.0
    # lie beyond the pass, and 1.0 is its start, not a step end
    model = _stepper_model(kind, [1.0, 2.0, 5.0, 7.5, 20.0])
    np.testing.assert_array_equal(lfm.changepoint_steps(model, 1.0, 0.5, 12), [2, 8])
    direct = lfm.constant_weight_transition if kind == "sqm" else lfm.discretize
    input_ref = _van_loan_reference(model, 1.0, 1.5, model.binary_input)[2]
    cycle = lfm.step_cycle(model, 0.5)
    slots, changepoints = lfm.pass_schedule(model, 0.5, 1.0, 12)
    assert changepoints == {2, 8}
    assert len(slots) == 12
    np.testing.assert_allclose(cycle.input_on, input_ref, rtol=1e-12, atol=1e-14)
    for k, slot in enumerate(slots):
        t0 = 1.0 + 0.5 * k
        g, q = one_step(direct, model, t0, t0 + 0.5)
        np.testing.assert_allclose(cycle.transitions[slot], g, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(cycle.noises[slot], q, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kind", ["sqm", "cqm"])
def test_pass_steps_reject_changepoint_off_the_grid(kind):
    model = _stepper_model(kind, [2.25])
    # the changepoint lies inside a step of a pass from 1.0
    lfm.step_cycle(model, 0.5)
    with pytest.raises(ContractViolationError, match="changepoint at 2.25"):
        lfm.pass_schedule(model, 0.5, 1.0, 12)  # raises before the first step
    with pytest.raises(ContractViolationError):
        lfm.changepoint_steps(model, 1.0, 0.5, 12)
    assert lfm.changepoint_steps(model, 1.0, 0.5, 2).size == 0  # beyond the pass


@pytest.mark.parametrize("kind", ["sqm", "cqm"])
def test_cycle_builds_over_an_off_grid_changepoint_no_pass_crosses(kind):
    # 2.25 lies inside the step [2.0, 2.5] of the cycle; the cycle builds,
    # and its slots serve a pass over (11, 17], which holds no changepoint,
    # as direct transitions do.  Only a pass that crosses the changepoint
    # raises.
    model = _stepper_model(kind, [2.25])
    cycle = lfm.step_cycle(model, 0.5)
    direct = lfm.constant_weight_transition if kind == "sqm" else lfm.discretize
    slots, changepoints = lfm.pass_schedule(model, 0.5, 11.0, 12)
    assert len(slots) == 12 and changepoints == set()
    scale = np.abs(cycle.transitions).max()
    for k, slot in enumerate(slots):
        g, q = one_step(direct, model, 11.0 + 0.5 * k, 11.5 + 0.5 * k)
        np.testing.assert_allclose(cycle.transitions[slot], g, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(cycle.noises[slot], q, rtol=1e-12, atol=1e-12 * scale)
    with pytest.raises(ContractViolationError, match="changepoint at 2.25"):
        lfm.pass_schedule(model, 0.5, 1.0, 12)


@pytest.mark.parametrize("kind", ["none", "with", "sqm", "cqm"])
def test_pass_steps_reuse_the_first_cycle(kind):
    # 2.5 cycles of 20 steps from t = 1.5, slot 3 of the cycle from 0: every
    # step, reused ones included, reads slot (3 + k) mod n_cycle and matches
    # a direct transition at its actual start time
    model = _stepper_model(kind, [6.5, 21.5])
    t_start, dt, n_steps, offset = 1.5, 0.5, 50, 3
    n_cycle = 1 if kind == "none" else 20
    assert lfm.cycle_steps(model, dt) == n_cycle
    direct = lfm.constant_weight_transition if lfm.has_constant_weights(model) else lfm.discretize
    input_ref = _van_loan_reference(model, t_start, t_start + dt, model.binary_input)[2]
    cycle = lfm.step_cycle(model, dt)
    assert cycle.transitions.shape == cycle.noises.shape == (n_cycle, model.dim, model.dim)
    np.testing.assert_allclose(cycle.input_on, input_ref, rtol=1e-12, atol=1e-12)
    slots, changepoints = lfm.pass_schedule(model, dt, t_start, n_steps)
    assert slots == [(offset + k) % n_cycle for k in range(n_steps)]
    assert changepoints == {10, 40}
    for k, slot in enumerate(slots):
        t0 = t_start + k * dt
        g, q = one_step(direct, model, t0, t0 + dt)
        np.testing.assert_allclose(cycle.transitions[slot], g, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(cycle.noises[slot], q, rtol=1e-12, atol=1e-12)


def test_pass_step_arrays_reject_writes():
    # a pass reads its steps as views of the cycle's stacks at its slots
    model = _stepper_model("sqm", [])
    cycle = lfm.step_cycle(model, 0.5)
    slots, _ = lfm.pass_schedule(model, 0.5, 1.0, 25)
    for slot in slots:
        for array in (cycle.transitions[slot], cycle.noises[slot], cycle.input_on):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.mark.parametrize("kind", ["none", "sqm", "cqm"])
def test_cycle_arrays_reject_writes(kind):
    cycle = lfm.step_cycle(_stepper_model(kind, []), 0.5)
    for array in (cycle.transitions, cycle.noises, cycle.input_on):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    with pytest.raises(AttributeError):
        cycle.dt = 2.0


def test_cycle_must_be_whole_steps():
    with pytest.raises(ContractViolationError, match="step 0.3 does not divide the period 10"):
        lfm.cycle_steps(_stepper_model("with", []), 0.3)
    with pytest.raises(ContractViolationError, match="step 0.3 does not divide the period 10"):
        lfm.step_cycle(_stepper_model("cqm", []), 0.3)
    with pytest.raises(InvalidParameterError, match="step must be finite and > 0"):
        lfm.step_cycle(_stepper_model("cqm", []), -0.5)
    assert lfm.cycle_steps(_stepper_model("none", []), 0.3) == 1
    # a pass checks its step, its changepoint schedule, its start, then that
    # its step divides the period
    model = _stepper_model("sqm", [12.4])
    for dt in (0.0, float("nan")):
        with pytest.raises(InvalidParameterError, match="step must be finite and > 0"):
            lfm.pass_schedule(model, dt, 0.0, 20)
    with pytest.raises(ContractViolationError, match="step 0.3 does not divide the period 10"):
        lfm.pass_schedule(model, 0.3, 1.2, 20)
    with pytest.raises(ContractViolationError, match="changepoint at 12.4"):
        lfm.pass_schedule(model, 0.5, 1.25, 25)
    with pytest.raises(
        ContractViolationError, match=r"pass start at 1.25 is not on the step grid 0 \+ k \* 0.5"
    ):
        lfm.pass_schedule(model, 0.5, 1.25, 20)

    forces = [lfm.periodic_force(sample_basis(period=p), [1.0]) for p in (10.0, 5.0)]
    model = lfm.assemble(np.array([[-0.5]]), periodic=forces)
    with pytest.raises(ContractViolationError, match="different periods"):
        lfm.cycle_steps(model, 0.5)


@pytest.mark.parametrize("dt", [0.0, float("nan"), -1.0, float("inf")],
                         ids=["zero", "nan", "negative", "inf"])
def test_grid_steps_refuses_a_step_that_is_not_finite_and_positive(dt):
    # 0 and NaN would cast a NaN index to an int, -1 would run the grid
    # backwards and inf would put every time on step 0
    with pytest.raises(InvalidParameterError, match="step must be finite and > 0"):
        lfm.grid_steps([1.0], 0.0, dt, 3, "x")


def _full_drift(model, t):
    """Frozen drift [[F_a, m(t)], [0, F_A]] of the full state."""
    c, cza = model.dim, model.layout.dim_za
    out = np.zeros((c, c))
    out[:cza, :cza] = model.drift_za
    for force, pad, (lo, hi) in zip(model.periodic, model.coupling_pad, model.layout.weight_spans):
        out[:cza, lo:hi] = np.outer(pad, eb.eigenfunction_matrix(force.basis, t)[0])
        out[lo:hi, lo:hi] = force.weight_rate * np.eye(hi - lo)
    return out


def _van_loan_reference(model, t0, t1, input_value=None):
    """The frozen-m step from exponentials of size 2C on the full drift:
    (G, Q) by Van Loan's matrix fraction, the input term from [[A, I], [0, 0]]."""
    c, dt = model.dim, t1 - t0
    drift = _full_drift(model, t0)
    block = np.zeros((2 * c, 2 * c))
    block[:c, :c] = drift
    block[:c, c:] = model.diffusion
    block[c:, c:] = -drift.T
    top = scipy.linalg.expm(block * dt)[:c]
    g = top[:, :c]
    q = top[:, c:] @ g.T
    b = np.zeros(c)
    if input_value is not None:
        block = np.zeros((2 * c, 2 * c))
        block[:c, :c] = drift
        block[:c, c:] = np.eye(c)
        u = np.concatenate([input_value, np.zeros(c - model.layout.dim_za)])
        b = scipy.linalg.expm(block * dt)[:c, c:] @ u
    return g, 0.5 * (q + q.T), b


def _random_ou_model(n_target, seed, binary_input=None):
    # a stable random target, one Matern-3/2 force, and two periodic forces
    # whose OU weights decorrelate at different rates
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_target, n_target))
    drift = a - (np.abs(np.linalg.eigvals(a)).max() + 0.5) * np.eye(n_target)
    return lfm.assemble(
        drift,
        nonperiodic=[lfm.NonPeriodicForce(lti.matern32_block(1.0, 2.0), rng.standard_normal(n_target))],
        periodic=[
            lfm.cqm_force(sample_basis(ell=0.5, sigma=1.5 * 1.2), rng.standard_normal(n_target), 3.0),
            lfm.cqm_force(sample_basis(ell=0.9, sigma=1.5 * 0.7), rng.standard_normal(n_target), 15.0),
        ],
        binary_input=binary_input,
    )


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("n_target", [1, 2, 3])
@pytest.mark.parametrize("with_input", [False, True])
def test_discretize_matches_the_full_state_van_loan(n_target, with_input):
    rng = np.random.default_rng(10 + n_target)
    u = rng.standard_normal(n_target) if with_input else None
    model = _random_ou_model(n_target, seed=n_target, binary_input=u)
    assert len({force.weight_rate for force in model.periodic}) == 2
    input_on = lfm.step_cycle(model, 0.4).input_on
    starts = np.array([0.0, 1.7, 4.35, 9.9])
    batch_g, batch_q = lfm.discretize(model, starts, 0.4)
    assert batch_g.shape == batch_q.shape == (starts.size, model.dim, model.dim)
    for k, t0 in enumerate(starts):
        g, q, b = _van_loan_reference(model, t0, t0 + 0.4, model.binary_input)
        for tr_g, tr_q in (one_step(lfm.discretize, model, t0, t0 + 0.4), (batch_g[k], batch_q[k])):
            assert _rel_err(tr_g, g) <= 1e-12
            assert _rel_err(tr_q, q) <= 1e-12
        if with_input:
            assert _rel_err(input_on, b) <= 1e-12
        else:
            assert not input_on.any()


def test_constant_weight_batch_matches_per_step_quadrature():
    # two constant-weight forces: the batch equals the per-step quadrature
    # sum_i w_i dt expm(F_a dt (1 - x_i)) pad phi(t0 + x_i dt)^T
    periodic = [
        lfm.periodic_force(sample_basis(ell=0.5), [1.0, -0.4]),
        lfm.sqm_force(sample_basis(ell=0.9), [0.3, 0.8], 2.0),
    ]
    model = lfm.assemble(
        np.array([[-0.5, 0.2], [0.1, -0.3]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern12_block(1.0, 3.0), np.array([1.0, 0.5]))],
        periodic=periodic,
    )
    cza, dt = model.layout.dim_za, 0.5
    starts = 1.3 + dt * np.arange(20)
    batch_g, batch_q = lfm.constant_weight_transition(model, starts, dt)
    x, w = lfm._GAUSS_X, lfm._GAUSS_W
    props = [scipy.linalg.expm(model.drift_za * dt * (1.0 - xi)) for xi in x]
    for k, t0 in enumerate(starts):
        g = np.eye(model.dim)
        g[:cza, :cza] = scipy.linalg.expm(model.drift_za * dt)
        for force, pad, (lo, hi) in zip(model.periodic, model.coupling_pad, model.layout.weight_spans):
            rows = eb.eigenfunction_matrix(force.basis, t0 + x * dt)
            g[:cza, lo:hi] = sum(
                wi * dt * np.outer(p @ pad, row) for wi, p, row in zip(w, props, rows)
            )
        np.testing.assert_allclose(batch_g[k], g, rtol=1e-12, atol=1e-12 * np.abs(g).max())
        np.testing.assert_array_equal(batch_q[k][cza:], 0.0)


def test_int_exp_small_argument_series():
    # below |a dt| = 1e-8 the series replaces expm1(a dt) / a, which it matches
    dt = 2.0
    for a in (3e-9, -4.9e-9, 1e-13, -2e-17):
        assert lfm._int_exp(a, dt) == pytest.approx(math.expm1(a * dt) / a, rel=1e-15)
    assert lfm._int_exp(0.0, dt) == dt


def test_assemble_validates_the_binary_input():
    # the input takes the target rows and is padded into z_a; a z_a-sized
    # input is refused at assembly, before any cycle is built
    np.testing.assert_array_equal(_stepper_model("cqm", []).binary_input, [0.3, 0.0])
    with pytest.raises(InvalidParameterError, match="binary input must have one entry per target state"):
        lfm.assemble(
            np.array([[-0.5]]),
            nonperiodic=[lfm.NonPeriodicForce(lti.matern12_block(1.0, 3.0), np.array([1.0]))],
            binary_input=[0.3, 0.0],
        )


def test_constant_weight_requires_constant_weights():
    basis = sample_basis()
    model = lfm.assemble(
        np.array([[-0.5]]),
        periodic=[lfm.cqm_force(basis, [1.0], 20.0)],
    )
    with pytest.raises(ContractViolationError):
        one_step(lfm.constant_weight_transition, model, 0.0, 0.5)


def test_cqm_force_takes_its_weight_dynamics_from_the_ou_block():
    # the weights of a cqm force are OU processes of the Matern-1/2 block,
    # bit for bit; the other forces hold constant weights
    basis = sample_basis()
    ou = lti.matern12_block(1.0, 7.0)
    force = lfm.cqm_force(basis, [1.0], 7.0)
    assert (force.weight_rate, force.weight_diffusion) == (ou.drift[0, 0], ou.diffusion)
    for constant in (
        lfm.periodic_force(basis, [1.0]), lfm.sqm_force(basis, [1.0], 2.0),
        lfm.wqm_force(basis, [1.0], 0.5),
    ):
        assert (constant.weight_rate, constant.weight_diffusion) == (0.0, 0.0)
        assert lfm.has_constant_weights(lfm.assemble(np.zeros((1, 1)), periodic=[constant]))
    model = lfm.assemble(np.zeros((1, 1)), periodic=[force])
    assert not lfm.has_constant_weights(model)
    np.testing.assert_array_equal(
        np.diag(model.diffusion)[1:], basis.scaled_eigenvalues() * ou.diffusion
    )


def test_hartikainen_equivalence_small():
    # 1-D target + one OU force: the moments of one `kalman_pass` over
    # irregular times match the dense-GP oracle, predicted and filtered
    model = lfm.assemble(
        np.array([[-0.5]]),
        nonperiodic=[lfm.NonPeriodicForce(lti.matern12_block(1.0, 2.0), np.array([1.0]))],
    )
    kern = stationary_lfm_kernel(model.drift_za, model.diffusion)
    p_inf = lti.lyapunov_stationary(model.drift_za, model.diffusion)
    rng = np.random.default_rng(1)
    times = np.linspace(1.0, 5.0, 5)
    ys = rng.standard_normal(5)
    noise = 0.04
    h = np.array([[1.0, 0.0]])
    starts = np.concatenate([[0.0], times])

    def step(k, mean):  # from the previous time (0 for the first) to times[k - 1]
        return (*one_step(lfm.discretize, model, starts[k - 1], starts[k]), None)

    for n in range(1, times.size + 1):
        observations = {k: [y] for k, y in enumerate(ys[:n], start=1)}
        _, mean, cov, records = kalman_pass(
            np.zeros(2), p_inf, n, step, set(), observations, h, [[noise]], jump=None
        )
        t = times[n - 1]
        # the record holds the prediction at t from the data before t
        mu, var = gp_regress(kern, noise, times[: n - 1], ys[: n - 1], [t])
        assert len(records) == n
        assert records[-1][0] == pytest.approx(mu[0], rel=1e-6, abs=1e-9)
        assert records[-1][1] == pytest.approx(var[0], rel=1e-6)
        mu, var = gp_regress(kern, noise, times[:n], ys[:n], [t])
        assert mean[0] == pytest.approx(mu[0], rel=1e-6, abs=1e-9)
        assert cov[0, 0] == pytest.approx(var[0], rel=1e-6)


@pytest.mark.parametrize("kind", ["with", "sqm", "wqm", "cqm"])
def test_force_only_loglik_matches_dense_gp(kind):
    # a periodic force observed in noise, with no target (so m is never
    # discretized): the state-space log-likelihood equals the dense-GP one
    # of its kernel, the basis resynthesis times the quasi-periodic factor.
    # The factor's scale enters the state space as sigma on the basis kernel
    # (and, for wqm, as the increment xi / xi0 of the scaled weights)
    period, dt, n_steps, noise = 10.0, 0.5, 100, 0.1
    basis = sample_basis(period=period)
    empty = np.zeros(0)

    def scaled(factor):
        return sample_basis(period=period, sigma=1.5 * factor)

    force, quasi = {
        "with": (lfm.periodic_force(basis, empty), None),
        "sqm": (lfm.sqm_force(scaled(1.3), empty, 2.0), K.StepQuasi(1.3, 2.0, period)),
        "wqm": (
            lfm.wqm_force(scaled(np.sqrt(0.8)), empty, 0.5 / 0.8),
            K.WienerStepQuasi(0.8, 0.5, period),
        ),
        "cqm": (lfm.cqm_force(scaled(1.3), empty, 7.0), K.Matern(0.5, 1.3, 7.0)),
    }[kind]
    model = lfm.assemble(
        np.zeros((0, 0)),
        periodic=[force],
        changepoints=period * np.arange(1, 6),  # every period end of the pass
    )
    times = dt * np.arange(n_steps + 1)
    ys = np.random.default_rng(4).standard_normal(times.size)

    # the observation row changes every step, so this oracle keeps its own loop
    def observe(mean, cov, t, y):
        return update(mean, cov, periodic_force_row(model, t)[None, :], [[noise]], [y])

    mean, cov, loglik = observe(*lfm.initial_state(model, empty, np.zeros((0, 0))), times[0], ys[0])
    cycle = lfm.step_cycle(model, dt)
    slots, changepoints = lfm.pass_schedule(model, dt, 0.0, n_steps)
    assert changepoints == {20, 40, 60, 80, 100}
    for k, (slot, t, y) in enumerate(zip(slots, times[1:], ys[1:]), start=1):
        mean, cov = predict(mean, cov, cycle.transitions[slot], cycle.noises[slot])
        if k in changepoints:
            mean, cov = lfm.apply_changepoint_moments(model, mean, cov)
        mean, cov, log_density = observe(mean, cov, t, y)
        loglik += log_density

    def kernel(t, tp):  # eval_matrix passes a column of t and a row of t'
        out = eb.reconstruct(basis, np.ravel(t), np.ravel(tp))
        return out if quasi is None else out * K.eval_kernel(quasi, t, tp)

    oracle = log_marginal_likelihood(kernel, noise, times, ys)
    assert loglik == pytest.approx(oracle, rel=1e-9)
