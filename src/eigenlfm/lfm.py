"""Augmented state-space latent force models.

The augmented state stacks

    [ target states | non-periodic force blocks | eigenfunction weights ]

with drift

    d/dt [z_a; a] = [[F_a, m(t)], [0, F_A]] [z_a; a] + noise,

where z_a holds the target and non-periodic blocks, the weights `a` multiply
eigenfunctions of the periodic force kernels, and m(t) couples each weight
into the target through its eigenfunction value and coupling column.

Two discretizations are provided:

* `discretize` freezes m at the interval start and computes the transition
  and process-noise covariance jointly from one augmented matrix exponential
  (exact for the LTI part, O(dt^2) in the m-variation);
* `constant_weight_transition` is exact when all weights are constant between
  changepoints: the weight columns of the transition are the convolution
  integrals of the target transition with the eigenfunctions, evaluated by
  fixed-order Gauss-Legendre quadrature.

Step quasi-periodic models perturb the weights at changepoints through
per-force jump models applied by `apply_changepoint_moments`.

A filter pass over a regular step grid takes its steps from `pass_steps`,
the one place that chooses between the two discretizations.  Changepoints
and measurements are scheduled as integer step indices (`grid_steps`); a
time that is not on the step grid is a `ContractViolationError`, never a
skipped jump or measurement.

The periodic forces repeat every period, and so do the eigenfunction rows
that couple the weights into the target: the transition of step k equals
that of step k + `cycle_steps(model, dt)`.  A pass therefore computes the
steps of its first cycle only and reuses them for every later cycle; a step
that does not divide the period is a `ContractViolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from . import eigenbasis as eb
from . import lti
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NoStationaryDistributionError,
    NumericError,
)
from .filtering import GaussianState

__all__ = [
    "TargetModel",
    "NonPeriodicForce",
    "PeriodicForce",
    "StateLayout",
    "AugmentedModel",
    "Transition",
    "PassStep",
    "assemble",
    "periodic_force",
    "cqm_force",
    "sqm_force",
    "wqm_force",
    "discretize",
    "constant_weight_transition",
    "make_constant_step_plan",
    "ConstantStepPlan",
    "pass_steps",
    "cycle_steps",
    "changepoint_steps",
    "grid_steps",
    "apply_changepoint",
    "apply_changepoint_moments",
    "initial_state",
    "force_values",
    "periodic_force_row",
    "nonperiodic_force_row",
    "has_constant_weights",
    "gauss_nodes",
]

_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class TargetModel:
    """Physical target block: drift F (E x E)."""

    drift: np.ndarray


@dataclass(frozen=True)
class NonPeriodicForce:
    """A force represented directly by an LTI-SDE block."""

    block: lti.LtiSde
    coupling: np.ndarray  # (E,) column of L for this force


@dataclass(frozen=True)
class PeriodicForce:
    """A periodic force represented by eigenfunction weights.

    `weight_block` describes one weight's continuous dynamics at unit prior
    scale; the per-weight diffusion and jump noise are multiplied by the
    scaled eigenvalue of that weight.  `weight_prior_scale` multiplies the
    scaled eigenvalues to give the initial weight variances.
    """

    basis: eb.EigenBasis
    coupling: np.ndarray  # (E,)
    weight_block: lti.LtiSde
    weight_prior_scale: float = 1.0
    jump: lti.JumpModel | None = None


def periodic_force(basis: eb.EigenBasis, coupling) -> PeriodicForce:
    """Perfectly periodic force: constant weights, no changepoint jumps."""
    return PeriodicForce(basis, np.asarray(coupling, float), lti.constant_weight_block())


def cqm_force(basis, coupling, sigma_q: float, ell_q: float) -> PeriodicForce:
    """Quasi-periodic force whose weights decorrelate continuously (OU)."""
    return PeriodicForce(
        basis,
        np.asarray(coupling, float),
        lti.cqm_weight_block(sigma_q, ell_q),
        weight_prior_scale=sigma_q**2,
    )


def sqm_force(basis, coupling, sigma_q: float, ell_q: float) -> PeriodicForce:
    """Quasi-periodic force with variance-preserving jumps at changepoints."""
    return PeriodicForce(
        basis,
        np.asarray(coupling, float),
        lti.constant_weight_block(),
        weight_prior_scale=sigma_q**2,
        jump=lti.sqm_jump(sigma_q, ell_q),
    )


def wqm_force(basis, coupling, xi0: float, xi: float) -> PeriodicForce:
    """Quasi-periodic force whose variance grows by xi at each changepoint."""
    return PeriodicForce(
        basis,
        np.asarray(coupling, float),
        lti.constant_weight_block(),
        weight_prior_scale=xi0,
        jump=lti.wqm_jump(xi),
    )


@dataclass(frozen=True)
class StateLayout:
    n_target: int
    nonperiodic_spans: tuple[tuple[int, int], ...]
    weight_spans: tuple[tuple[int, int], ...]
    dim_za: int
    dim: int


class Transition(NamedTuple):
    transition: np.ndarray  # G, (C, C)
    noise: np.ndarray       # Q, (C, C)
    input_term: np.ndarray  # b, (C,)


@dataclass
class AugmentedModel:
    target: TargetModel
    nonperiodic: tuple[NonPeriodicForce, ...]
    periodic: tuple[PeriodicForce, ...]
    layout: StateLayout
    changepoints: np.ndarray
    measurement_matrix: np.ndarray | None = None
    measurement_noise: np.ndarray | None = None
    binary_input: np.ndarray | None = None  # (dim_za,) ON direction of a 0/1 input
    # assembly caches
    drift_za: np.ndarray = field(repr=False, default=None)
    diffusion: np.ndarray = field(repr=False, default=None)  # (C, C) spectral density
    weight_rates: np.ndarray = field(repr=False, default=None)  # (n_w,)
    coupling_pad: tuple[np.ndarray, ...] = field(repr=False, default=None)
    weight_scaled_eigs: tuple[np.ndarray, ...] = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.layout.dim


def assemble(
    target: TargetModel,
    nonperiodic: Sequence[NonPeriodicForce] = (),
    periodic: Sequence[PeriodicForce] = (),
    measurement: tuple[np.ndarray, np.ndarray] | None = None,
    changepoints: Sequence[float] = (),
    binary_input: np.ndarray | None = None,
) -> AugmentedModel:
    """Assemble the augmented model and precompute its building blocks."""
    drift = np.atleast_2d(np.asarray(target.drift, dtype=float))
    n_target = drift.shape[0]
    if drift.shape != (n_target, n_target):
        raise InvalidParameterError("target drift must be square")

    np_spans = []
    pos = n_target
    for force in nonperiodic:
        if np.asarray(force.coupling).shape != (n_target,):
            raise InvalidParameterError("force coupling must have one entry per target state")
        np_spans.append((pos, pos + force.block.dim))
        pos += force.block.dim
    dim_za = pos

    w_spans = []
    for force in periodic:
        if np.asarray(force.coupling).shape != (n_target,):
            raise InvalidParameterError("force coupling must have one entry per target state")
        if force.weight_block.dim != 1:
            raise InvalidParameterError("eigenfunction weight blocks must be scalar")
        w_spans.append((pos, pos + force.basis.n_selected))
        pos += force.basis.n_selected
    dim = pos

    layout = StateLayout(n_target, tuple(np_spans), tuple(w_spans), dim_za, dim)

    drift_za = np.zeros((dim_za, dim_za))
    drift_za[:n_target, :n_target] = drift
    diffusion = np.zeros((dim, dim))
    for force, (lo, hi) in zip(nonperiodic, np_spans):
        drift_za[lo:hi, lo:hi] = force.block.drift
        # the force value feeds the target through its coupling column
        drift_za[:n_target, lo:hi] = np.outer(force.coupling, force.block.extract)
        diffusion[lo:hi, lo:hi] = force.block.diffusion * (
            force.block.noise @ force.block.noise.T
        )

    weight_rates = np.zeros(dim - dim_za)
    scaled_eigs = []
    pads = []
    for force, (lo, hi) in zip(periodic, w_spans):
        mu = force.basis.scaled_eigenvalues()
        scaled_eigs.append(mu)
        weight_rates[lo - dim_za : hi - dim_za] = force.weight_block.drift[0, 0]
        diffusion[lo:hi, lo:hi] = np.diag(mu * force.weight_block.diffusion)
        pad = np.zeros(dim_za)
        pad[:n_target] = force.coupling
        pads.append(pad)

    cps = np.sort(np.asarray(changepoints, dtype=float))
    if cps.size and np.any(np.diff(cps) <= 0):
        raise InvalidParameterError("changepoints must be strictly increasing")

    model = AugmentedModel(
        target=target,
        nonperiodic=tuple(nonperiodic),
        periodic=tuple(periodic),
        layout=layout,
        changepoints=cps,
        binary_input=None if binary_input is None else np.asarray(binary_input, float),
        drift_za=drift_za,
        diffusion=diffusion,
        weight_rates=weight_rates,
        coupling_pad=tuple(pads),
        weight_scaled_eigs=tuple(scaled_eigs),
    )
    if measurement is not None:
        set_measurement(model, *measurement)
    return model


def set_measurement(model: AugmentedModel, obs_matrix, obs_noise) -> None:
    h = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    z = np.atleast_2d(np.asarray(obs_noise, dtype=float))
    if h.shape[1] != model.dim:
        raise InvalidParameterError("measurement matrix width must equal the state size")
    if z.shape != (h.shape[0], h.shape[0]):
        raise InvalidParameterError("measurement noise must be square and match H")
    model.measurement_matrix = h
    model.measurement_noise = z


def has_constant_weights(model: AugmentedModel) -> bool:
    return all(
        force.weight_block.drift[0, 0] == 0.0 and force.weight_block.diffusion == 0.0
        for force in model.periodic
    )


def _expm(a: np.ndarray) -> np.ndarray:
    if a.shape == (1, 1):
        return np.array([[np.exp(a[0, 0])]])
    return scipy.linalg.expm(a)


def m_matrix(model: AugmentedModel, t: float) -> np.ndarray:
    """Coupling of the weights into dz_a/dt at time t: (dim_za, n_weights)."""
    cols = []
    for force, pad in zip(model.periodic, model.coupling_pad):
        phi = eb.eigenfunction_matrix(force.basis, t)[0]
        cols.append(np.outer(pad, phi))
    if not cols:
        return np.zeros((model.layout.dim_za, 0))
    return np.concatenate(cols, axis=1)


def full_drift(model: AugmentedModel, t: float) -> np.ndarray:
    """Frozen drift [[F_a, m(t)], [0, F_A]] of the full state."""
    c, cza = model.layout.dim, model.layout.dim_za
    out = np.zeros((c, c))
    out[:cza, :cza] = model.drift_za
    out[:cza, cza:] = m_matrix(model, t)
    out[cza:, cza:] = np.diag(model.weight_rates)
    return out


def _check_step(model: AugmentedModel, t0: float, t1: float) -> float:
    if not (np.isfinite(t0) and np.isfinite(t1)) or t1 <= t0:
        raise InvalidParameterError("need finite t1 > t0")
    cps = model.changepoints
    if cps.size:
        inside = (cps > t0 + _BOUNDARY_TOL) & (cps < t1 - _BOUNDARY_TOL)
        if np.any(inside):
            raise ContractViolationError(
                f"changepoint at {cps[inside][0]} lies strictly inside ({t0}, {t1}); "
                "split the step at the changepoint"
            )
    return t1 - t0


def _van_loan(drift: np.ndarray, diffusion: np.ndarray, dt: float):
    """Joint (G, Q) of the LTI segment via the matrix fraction decomposition."""
    n = drift.shape[0]
    if not diffusion.any():
        return _expm(drift * dt), np.zeros((n, n))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = drift
    block[:n, n:] = diffusion
    block[n:, n:] = -drift.T
    top = scipy.linalg.expm(block * dt)[:n, :]
    g = top[:, :n]
    q = top[:, n:] @ g.T
    return g, 0.5 * (q + q.T)


def _input_response(drift: np.ndarray, dt: float) -> np.ndarray:
    """B0 = integral of expm(drift * u) du over one step: input_term = B0 @ u."""
    n = drift.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = drift
    block[:n, n:] = np.eye(n)
    return scipy.linalg.expm(block * dt)[:n, n:]


def _input_vector(model: AugmentedModel, input_value) -> np.ndarray | None:
    """The held z_a input, or None when there is none or it is zero."""
    if input_value is None:
        return None
    vec = np.asarray(input_value, dtype=float)
    if vec.shape != (model.layout.dim_za,):
        raise InvalidParameterError("input must have one entry per z_a state")
    return vec if vec.any() else None


def discretize(
    model: AugmentedModel,
    t0: float,
    t1: float,
    *,
    input_value=None,
) -> Transition:
    """Frozen-m transition over [t0, t1]: G = expm(A(t0) dt) with the process
    noise computed jointly so the exact LTI solution covariance is reproduced.
    The input (one entry per z_a state) is held constant over the interval.
    Inputs enter only z_a and the drift is block upper-triangular, so the
    input term comes from the z_a block of the drift alone."""
    dt = _check_step(model, t0, t1)
    drift = full_drift(model, t0)
    g, q = _van_loan(drift, model.diffusion, dt)
    if not np.all(np.isfinite(g)):
        raise NumericError("matrix exponential overflowed; reduce the step")
    b = np.zeros(model.dim)
    vec = _input_vector(model, input_value)
    if vec is not None:
        cza = model.layout.dim_za
        b[:cza] = _input_response(drift[:cza, :cza], dt) @ vec
    return Transition(g, q, b)


def gauss_nodes(order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the unit interval."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class ConstantStepPlan:
    """Per-(model, dt) cache for `constant_weight_transition`."""

    dt: float
    phi_za: np.ndarray           # expm(F_a dt)
    noise_za: np.ndarray         # exact z_a process noise over one step
    input_response: np.ndarray   # (dim_za, dim_za), b = input_response @ u
    node_offsets: np.ndarray     # (n,) offsets into the step
    node_weights: np.ndarray     # (n,) quadrature weights (scaled by dt)
    node_coupling: tuple[np.ndarray, ...]  # per force: (n, dim_za)


def make_constant_step_plan(model: AugmentedModel, dt: float, order: int = 8) -> ConstantStepPlan:
    drift_za = model.drift_za
    cza = model.layout.dim_za
    x, w = gauss_nodes(order)
    phi_za, noise_za = _van_loan(drift_za, model.diffusion[:cza, :cza], dt)
    props = [_expm(drift_za * (dt * (1.0 - xi))) for xi in x]
    coupling = tuple(
        np.stack([p @ pad for p in props]) for pad in model.coupling_pad
    )
    return ConstantStepPlan(
        dt=dt,
        phi_za=phi_za,
        noise_za=noise_za,
        input_response=_input_response(drift_za, dt),
        node_offsets=x * dt,
        node_weights=w * dt,
        node_coupling=coupling,
    )


def constant_weight_transition(
    model: AugmentedModel,
    t0: float,
    t1: float,
    *,
    plan: ConstantStepPlan | None = None,
    node_phi: Sequence[np.ndarray] | None = None,
    input_value=None,
) -> Transition:
    """Exact transition when all eigenfunction weights are constant.

    The weight columns of G are the quadrature-evaluated convolutions of the
    z_a transition with each eigenfunction; the weight rows are identity.
    `node_phi` may supply precomputed eigenfunction values at the quadrature
    nodes of this step (one (n_nodes, J_r) array per periodic force).
    """
    if not has_constant_weights(model):
        raise ContractViolationError(
            "constant_weight_transition requires constant weight blocks"
        )
    dt = _check_step(model, t0, t1)
    if plan is None:
        plan = make_constant_step_plan(model, dt)
    elif abs(plan.dt - dt) > 1e-9 * max(1.0, abs(dt)):
        raise InvalidParameterError("plan was built for a different step size")

    c, cza = model.dim, model.layout.dim_za
    g = np.eye(c)
    g[:cza, :cza] = plan.phi_za
    q = np.zeros((c, c))
    q[:cza, :cza] = plan.noise_za

    for r, force in enumerate(model.periodic):
        lo, hi = model.layout.weight_spans[r]
        if node_phi is not None:
            phi = np.asarray(node_phi[r])
        else:
            phi = eb.eigenfunction_matrix(force.basis, t0 + plan.node_offsets)
        cols = plan.node_coupling[r] * plan.node_weights[:, None]  # (n, dim_za)
        g[:cza, lo:hi] = cols.T @ phi

    b = np.zeros(c)
    vec = _input_vector(model, input_value)
    if vec is not None:
        b[:cza] = plan.input_response @ vec
    return Transition(g, q, b)


def apply_changepoint_moments(
    model: AugmentedModel, means: np.ndarray, cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jump update on a bank of means (rows) sharing one covariance."""
    means = np.array(means, dtype=float, copy=True)
    cov = np.array(cov, dtype=float, copy=True)
    for r, force in enumerate(model.periodic):
        if force.jump is None:
            continue
        lo, hi = model.layout.weight_spans[r]
        gain = force.jump.gain
        means[..., lo:hi] *= gain
        cov[lo:hi, :] *= gain
        cov[:, lo:hi] *= gain
        idx = np.arange(lo, hi)
        cov[idx, idx] += model.weight_scaled_eigs[r] * force.jump.noise_var
    return means, cov


def apply_changepoint(model: AugmentedModel, state: GaussianState, tau: float) -> GaussianState:
    """Perturb the weight variables across the registered changepoint tau."""
    if not model.changepoints.size or not np.any(
        np.isclose(model.changepoints, tau, rtol=0.0, atol=_BOUNDARY_TOL)
    ):
        raise ContractViolationError(f"{tau} is not a registered changepoint")
    means, cov = apply_changepoint_moments(model, state.mean[None, :], state.cov)
    return GaussianState(means[0], cov, state.t)


def _grid_tol(t_start: float, dt: float, n_steps: int) -> float:
    return _BOUNDARY_TOL * max(1.0, abs(t_start), abs(t_start + n_steps * dt))


def grid_steps(times, t_start: float, dt: float, n_steps: int, what: str) -> np.ndarray:
    """Integer indices k of `times` on the step grid t_start + k dt of a pass
    of `n_steps` steps.  Raises ContractViolationError, naming `what`, for a
    time that is not on the grid: an event there would be skipped."""
    times = np.asarray(times, dtype=float)
    steps = np.rint((times - t_start) / dt)
    off = np.abs(t_start + steps * dt - times) > _grid_tol(t_start, dt, n_steps)
    if np.any(off):
        raise ContractViolationError(
            f"{what} at {times[off][0]:g} is not on the step grid "
            f"{t_start:g} + k * {dt:g}; it would be skipped"
        )
    return steps.astype(int)


def changepoint_steps(model: AugmentedModel, t_start: float, dt: float, n_steps: int) -> np.ndarray:
    """Integer indices k (1 <= k <= n_steps) of the steps of a pass whose end
    t_start + k dt is a changepoint; changepoints outside the pass
    (t_start, t_start + n_steps dt] are ignored, one inside it off the step
    grid raises (see `grid_steps`)."""
    tol = _grid_tol(t_start, dt, n_steps)
    cps = model.changepoints
    cps = cps[(cps > t_start + tol) & (cps <= t_start + n_steps * dt + tol)]
    return grid_steps(cps, t_start, dt, n_steps, "changepoint")


def cycle_steps(model: AugmentedModel, dt: float) -> int:
    """Steps per period of the periodic forces, after which every transition
    repeats: `period / dt`, or 1 for a model with no periodic force.

    Raises ContractViolationError, naming the numbers, when the forces'
    periods differ or `dt` does not divide the period (the `grid_steps`
    tolerance): the transitions would then not repeat."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError("step must be finite and > 0")
    periods = [force.basis.period for force in model.periodic]
    if not periods:
        return 1
    period = periods[0]
    if any(abs(p - period) > _BOUNDARY_TOL * max(1.0, period) for p in periods):
        raise ContractViolationError(
            f"periodic forces have different periods {periods}; a pass needs one cycle"
        )
    n = int(np.rint(period / dt))
    if n < 1 or abs(n * dt - period) > _grid_tol(0.0, dt, n):
        raise ContractViolationError(
            f"step {dt:g} does not divide the period {period:g} of the periodic forces"
        )
    return n


class PassStep(NamedTuple):
    t: float                # end time of the step
    transition: np.ndarray  # G, (C, C), read-only
    noise: np.ndarray       # Q, (C, C), read-only
    input_on: np.ndarray    # (C,) input term with the binary input on; zero without one
    changepoint: bool       # a changepoint falls on the step end


def _read_only(tr: Transition) -> Transition:
    for a in tr:
        a.flags.writeable = False
    return tr


def pass_steps(
    model: AugmentedModel, t_start: float, dt: float, n_steps: int
) -> Iterator[PassStep]:
    """The steps of one filter pass over [t_start, t_start + n_steps dt].

    Constant-weight models step with `constant_weight_transition` from one
    plan, with the node eigenfunction rows of every periodic force evaluated
    in one batch up front; other models step with the frozen-m `discretize`.
    The changepoint schedule, then the cycle (`cycle_steps`), is checked
    here, before the first step.

    Only the first cycle is computed, at its actual step starts
    t_start + k dt, so it is what a direct call gives; step k reuses the
    arrays of step k mod n_cycle, which are therefore read-only.  Steps are
    produced lazily, and a pass keeps a step's arrays only while a later step
    of the pass will read them: a pass of one cycle or less holds one
    (G, Q) pair at a time, a longer one at most one cycle of them.
    """
    jumps = np.zeros(n_steps + 1, dtype=bool)
    jumps[changepoint_steps(model, t_start, dt, n_steps)] = True
    n_cycle = cycle_steps(model, dt)
    on = model.binary_input
    if has_constant_weights(model):
        plan = make_constant_step_plan(model, dt)
        n_rows = min(n_cycle, n_steps)
        nodes = ((t_start + dt * np.arange(n_rows))[:, None] + plan.node_offsets).ravel()
        node_rows = [
            eb.eigenfunction_matrix(force.basis, nodes).reshape(n_rows, plan.node_offsets.size, -1)
            for force in model.periodic
        ]

        def transition(k, t0):
            return constant_weight_transition(
                model, t0, t0 + dt, plan=plan, node_phi=[rows[k] for rows in node_rows],
                input_value=on,
            )
    else:
        def transition(k, t0):
            return discretize(model, t0, t0 + dt, input_value=on)

    def steps():
        kept = {}
        for k in range(n_steps):
            t0 = t_start + k * dt
            slot = k % n_cycle
            tr = kept.pop(slot) if k >= n_cycle else _read_only(transition(k, t0))
            if k + n_cycle < n_steps:
                kept[slot] = tr
            yield PassStep(t0 + dt, tr.transition, tr.noise, tr.input_term, bool(jumps[k + 1]))
    return steps()


def initial_state(
    model: AugmentedModel,
    target_mean,
    target_cov,
    t0: float = 0.0,
) -> GaussianState:
    """Block-diagonal prior: given target moments, stationary non-periodic
    blocks, and weight variances from the scaled eigenvalues.

    Marginally stable blocks (e.g. constant bias states) have no stationary
    distribution; they get a unit diagonal prior.
    """
    c = model.dim
    e = model.layout.n_target
    mean = np.zeros(c)
    cov = np.zeros((c, c))
    mean[:e] = np.asarray(target_mean, dtype=float)
    cov[:e, :e] = np.atleast_2d(np.asarray(target_cov, dtype=float))
    for force, (lo, hi) in zip(model.nonperiodic, model.layout.nonperiodic_spans):
        try:
            cov[lo:hi, lo:hi] = lti.stationary_covariance(force.block)
        except NoStationaryDistributionError:
            cov[lo:hi, lo:hi] = np.eye(hi - lo)
    for r, force in enumerate(model.periodic):
        lo, hi = model.layout.weight_spans[r]
        idx = np.arange(lo, hi)
        cov[idx, idx] = model.weight_scaled_eigs[r] * force.weight_prior_scale
    return GaussianState(mean, cov, t0)


def periodic_force_row(model: AugmentedModel, r: int, t: float) -> np.ndarray:
    """Row vector reading periodic force r out of the state at time t."""
    row = np.zeros(model.dim)
    lo, hi = model.layout.weight_spans[r]
    row[lo:hi] = eb.eigenfunction_matrix(model.periodic[r].basis, t)[0]
    return row


def nonperiodic_force_row(model: AugmentedModel, i: int) -> np.ndarray:
    row = np.zeros(model.dim)
    lo, hi = model.layout.nonperiodic_spans[i]
    row[lo:hi] = model.nonperiodic[i].block.extract
    return row


def force_values(model: AugmentedModel, state_mean: np.ndarray, t: float) -> np.ndarray:
    """Reconstructed forces at time t, non-periodic first, then periodic."""
    state_mean = np.asarray(state_mean, dtype=float)
    if state_mean.shape != (model.dim,):
        raise InvalidParameterError("state mean does not match the model layout")
    vals = [nonperiodic_force_row(model, i) @ state_mean for i in range(len(model.nonperiodic))]
    vals += [periodic_force_row(model, r, t) @ state_mean for r in range(len(model.periodic))]
    return np.asarray(vals)
