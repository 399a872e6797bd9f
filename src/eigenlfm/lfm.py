"""Augmented state-space latent force models.

The augmented state stacks

    [ target states | non-periodic force blocks | eigenfunction weights ]

with drift

    d/dt [z_a; a] = [[F_a, m(t)], [0, F_A]] [z_a; a] + noise,

where z_a holds the target and non-periodic blocks, the weights `a` multiply
eigenfunctions of the periodic force kernels, and m(t) couples each weight
into the target through its eigenfunction value and coupling column.

Two kinds of step are built, each for a batch of steps at once:

* `discretize` freezes m at each step start.  The weights of a periodic
  force are independent OU processes with one rate, so the step has a
  closed block form: the weight columns of G and Q are outer products of
  the eigenfunction row phi(t0) with vectors from one Van Loan exponential
  of size dim_za + 1 per force, and the z_a noise gains a term linear in
  sum_j q_j phi_j(t0)^2 (exact for the LTI part, O(dt^2) in the
  m-variation).  No exponential of the full state is taken.
* `constant_weight_transition` is exact when all weights are constant between
  changepoints: the weight columns of the transition are the convolution
  integrals of the target transition with the eigenfunctions, evaluated by
  fixed-order Gauss-Legendre quadrature.

Step quasi-periodic models perturb the weights at changepoints through
per-force jump models applied by `apply_changepoint_moments`.

The periodic forces repeat every period, and so do the eigenfunction rows
that couple the weights into the target: the transition of step k equals
that of step k + `cycle_steps(model, dt)`.  `step_cycle(model, t0, dt)`
builds the steps of one period from t0 once, in one batch, as an immutable
`StepCycle`; a step that does not divide the period is a
`ContractViolationError`.

A filter pass over a regular step grid takes its steps from
`pass_steps(cycle, t_start, n_steps)` and from nothing else, so every pass
over a model can share one cycle.  The pass start must lie on the cycle's
step grid.  Changepoints and measurements are scheduled as integer step
indices (`grid_steps`); a time that is not on the step grid is a
`ContractViolationError`, never a skipped jump or measurement.
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
    "StepCycle",
    "step_cycle",
    "pass_steps",
    "cycle_steps",
    "changepoint_steps",
    "grid_steps",
    "apply_changepoint_moments",
    "initial_state",
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
    transition: np.ndarray  # G, (C, C), or (n, C, C) for a batch of n steps
    noise: np.ndarray       # Q, shaped as G
    input_term: np.ndarray  # b, (C,), the same for every step of a batch


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
    changepoints: Sequence[float] = (),
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

    return AugmentedModel(
        target=target,
        nonperiodic=tuple(nonperiodic),
        periodic=tuple(periodic),
        layout=layout,
        changepoints=cps,
        drift_za=drift_za,
        diffusion=diffusion,
        weight_rates=weight_rates,
        coupling_pad=tuple(pads),
        weight_scaled_eigs=tuple(scaled_eigs),
    )


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


def _check_steps(model: AugmentedModel, t0, t1) -> tuple[np.ndarray, float]:
    """Starts and common length of the steps [t0, t1] of a batch (scalars, or
    1-D arrays of one shape).  A changepoint strictly inside a step raises
    ContractViolationError: its jump would fall mid-step."""
    starts = np.atleast_1d(np.asarray(t0, dtype=float))
    ends = np.atleast_1d(np.asarray(t1, dtype=float))
    if starts.ndim != 1 or starts.size == 0 or starts.shape != ends.shape:
        raise InvalidParameterError("t0 and t1 must be scalars or 1-D arrays of one shape")
    if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(ends))) or np.any(ends <= starts):
        raise InvalidParameterError("need finite t1 > t0")
    lengths = ends - starts
    dt = float(lengths[0])
    if np.any(np.abs(lengths - dt) > _BOUNDARY_TOL * max(1.0, dt)):
        raise InvalidParameterError("the steps of a batch must have one length")
    cps = model.changepoints
    if cps.size:
        inside = (cps > starts[:, None] + _BOUNDARY_TOL) & (cps < ends[:, None] - _BOUNDARY_TOL)
        if np.any(inside):
            k, j = np.argwhere(inside)[0]
            raise ContractViolationError(
                f"changepoint at {cps[j]} lies strictly inside ({starts[k]}, {ends[k]}); "
                "split the step at the changepoint"
            )
    return starts, dt


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


def _batch(t0, g: np.ndarray, q: np.ndarray, b: np.ndarray) -> Transition:
    """A batch's stacked (G, Q) and its input term; one (C, C) pair when the
    step bounds were scalars."""
    if np.ndim(t0) == 0:
        g, q = g[0], q[0]
    return Transition(g, q, b)


def _weight_response(model: AugmentedModel, pad: np.ndarray, rate: float, dt: float):
    """How one periodic force's weights drive z_a over a step of length dt.

    One Van Loan of size dim_za + 1 on [z_a, s], with s' = rate s + unit
    white noise and z_a' = F_a z_a + pad s, gives
    psi = int_0^dt e^{F_a (dt - u)} pad e^{rate u} du (the z_a response to
    a unit weight), the weight decay e^{rate dt}, and the noise moments
    Z = int_0^dt psi(u) psi(u)^T du, xi = int_0^dt psi(u) e^{rate u} du and
    v = int_0^dt e^{2 rate u} du."""
    n = model.layout.dim_za
    drift = np.zeros((n + 1, n + 1))
    drift[:n, :n] = model.drift_za
    drift[:n, n] = pad
    drift[n, n] = rate
    unit = np.zeros((n + 1, n + 1))
    unit[n, n] = 1.0
    g, q = _van_loan(drift, unit, dt)
    return g[:n, n], g[n, n], q[:n, :n], q[:n, n], q[n, n]


def discretize(
    model: AugmentedModel,
    t0,
    t1,
    *,
    input_value=None,
) -> Transition:
    """Frozen-m transitions of the steps [t0, t1], with m(t) held at each
    step start; exact for the LTI part, O(dt^2) in the m-variation.

    `t0` and `t1` are scalars (one step: G and Q are (C, C)) or 1-D arrays
    of the starts and ends of a batch of steps of one length (G and Q are
    stacked, (n, C, C)).  The weights of each periodic force r are OU with
    rate lambda_r and variances q, so the step has a block form built from
    `_weight_response` and one batch of eigenfunction rows phi(t0):

        G_aA = psi_r phi^T, with e^{lambda_r dt} on the weight diagonal;
        Q_aA = xi_r (q * phi)^T;   Q_AA = diag(q v_r);
        Q_aa = Q_za + sum_r (sum_j q_j phi_j^2) Z_r.

    The input (one entry per z_a state) is held constant over the step; it
    enters z_a only, so its term (C,) comes from the z_a drift alone and is
    the same for every step of the batch."""
    starts, dt = _check_steps(model, t0, t1)
    n, c, cza = starts.size, model.dim, model.layout.dim_za
    phi_za, noise_za = _van_loan(model.drift_za, model.diffusion[:cza, :cza], dt)
    g = np.zeros((n, c, c))
    q = np.zeros((n, c, c))
    g[:, :cza, :cza] = phi_za
    q[:, :cza, :cza] = noise_za
    weight_var = np.diag(model.diffusion)
    for force, pad, (lo, hi) in zip(model.periodic, model.coupling_pad, model.layout.weight_spans):
        psi, decay, z, xi, v = _weight_response(model, pad, model.weight_rates[lo - cza], dt)
        phi = eb.eigenfunction_matrix(force.basis, starts)  # (n, J)
        q_phi = phi * weight_var[lo:hi]
        idx = np.arange(lo, hi)
        g[:, :cza, lo:hi] = psi[:, None] * phi[:, None, :]
        g[:, idx, idx] = decay
        q[:, :cza, :cza] += (q_phi * phi).sum(axis=1)[:, None, None] * z
        q[:, :cza, lo:hi] = xi[:, None] * q_phi[:, None, :]
        q[:, lo:hi, :cza] = q[:, :cza, lo:hi].transpose(0, 2, 1)
        q[:, idx, idx] = weight_var[lo:hi] * v
    if not np.all(np.isfinite(g)):
        raise NumericError("matrix exponential overflowed; reduce the step")
    b = np.zeros(c)
    vec = _input_vector(model, input_value)
    if vec is not None:
        b[:cza] = _input_response(model.drift_za, dt) @ vec
    return _batch(t0, g, q, b)


def gauss_nodes(order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the unit interval."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class ConstantStepPlan:
    """What every constant-weight step of length dt shares, for
    `constant_weight_transition`."""

    phi_za: np.ndarray           # expm(F_a dt)
    noise_za: np.ndarray         # exact z_a process noise over one step
    input_response: np.ndarray   # (dim_za, dim_za), b = input_response @ u
    node_offsets: np.ndarray     # (n,) offsets into the step
    node_weights: np.ndarray     # (n,) quadrature weights (scaled by dt)
    node_coupling: tuple[np.ndarray, ...]  # per force: (n, dim_za)


def make_constant_step_plan(model: AugmentedModel, dt: float) -> ConstantStepPlan:
    drift_za = model.drift_za
    cza = model.layout.dim_za
    x, w = gauss_nodes()
    phi_za, noise_za = _van_loan(drift_za, model.diffusion[:cza, :cza], dt)
    props = [_expm(drift_za * (dt * (1.0 - xi))) for xi in x]
    coupling = tuple(
        np.stack([p @ pad for p in props]) for pad in model.coupling_pad
    )
    return ConstantStepPlan(
        phi_za=phi_za,
        noise_za=noise_za,
        input_response=_input_response(drift_za, dt),
        node_offsets=x * dt,
        node_weights=w * dt,
        node_coupling=coupling,
    )


def constant_weight_transition(
    model: AugmentedModel,
    t0,
    t1,
    *,
    input_value=None,
) -> Transition:
    """Exact transitions of the steps [t0, t1] when all eigenfunction weights
    are constant; step bounds and result shapes as for `discretize`.

    The weight columns of G are the quadrature-evaluated convolutions of the
    z_a transition with each eigenfunction; the weight rows are identity.
    The eigenfunction rows at the quadrature nodes of every step of the
    batch come from one evaluation per periodic force, and the columns of
    all steps from one batched product with the node couplings.
    """
    if not has_constant_weights(model):
        raise ContractViolationError(
            "constant_weight_transition requires constant weight blocks"
        )
    starts, dt = _check_steps(model, t0, t1)
    plan = make_constant_step_plan(model, dt)

    n, c, cza = starts.size, model.dim, model.layout.dim_za
    g = np.zeros((n, c, c))
    g[:, :cza, :cza] = plan.phi_za
    idx = np.arange(cza, c)
    g[:, idx, idx] = 1.0
    q = np.zeros((n, c, c))
    q[:, :cza, :cza] = plan.noise_za

    nodes = (starts[:, None] + plan.node_offsets).ravel()
    for force, coupling, (lo, hi) in zip(
        model.periodic, plan.node_coupling, model.layout.weight_spans
    ):
        phi = eb.eigenfunction_matrix(force.basis, nodes).reshape(n, plan.node_offsets.size, hi - lo)
        cols = coupling * plan.node_weights[:, None]  # (n_nodes, dim_za)
        g[:, :cza, lo:hi] = cols.T @ phi

    b = np.zeros(c)
    vec = _input_vector(model, input_value)
    if vec is not None:
        b[:cza] = plan.input_response @ vec
    return _batch(t0, g, q, b)


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


def _grid_tol(t_start: float, dt: float, n_steps: int) -> float:
    return _BOUNDARY_TOL * max(1.0, abs(t_start), abs(t_start + n_steps * dt))


def grid_steps(times, t_start: float, dt: float, n_steps: int, what: str) -> np.ndarray:
    """Integer indices k of `times` on the step grid t_start + k dt of a pass
    of `n_steps` steps.  Raises ContractViolationError, naming `what`, for a
    time that is not on the grid (an event there would be skipped)."""
    times = np.asarray(times, dtype=float)
    steps = np.rint((times - t_start) / dt)
    off = np.abs(t_start + steps * dt - times) > _grid_tol(t_start, dt, n_steps)
    if np.any(off):
        raise ContractViolationError(
            f"{what} at {times[off][0]:g} is not on the step grid "
            f"{t_start:g} + k * {dt:g}"
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


@dataclass(frozen=True, eq=False)
class StepCycle:
    """One period of steps of a model, built once by `step_cycle` and shared
    by every pass over the model.

    Slot k holds the transition of the step [t0 + k dt, t0 + (k + 1) dt];
    a step a whole number of steps away from slot k repeats it, since the
    periodic forces do.  The arrays are read-only."""

    model: AugmentedModel
    t0: float
    dt: float
    transitions: np.ndarray  # G, (n_cycle, C, C)
    noises: np.ndarray       # Q, (n_cycle, C, C)
    input_on: np.ndarray     # (C,) input term with the binary input on; zero without one

    @property
    def n_cycle(self) -> int:
        return self.transitions.shape[0]


def step_cycle(model: AugmentedModel, t0: float, dt: float) -> StepCycle:
    """The `cycle_steps(model, dt)` steps of one period from t0, built in one
    batch: by `constant_weight_transition` when every weight is constant,
    else by the frozen-m `discretize`.  The input term is the model's binary
    input, on.  Raises ContractViolationError when `dt` does not divide the
    period (see `cycle_steps`) or a changepoint lies strictly inside a step
    of the cycle."""
    n_cycle = cycle_steps(model, dt)
    starts = t0 + dt * np.arange(n_cycle)
    build = constant_weight_transition if has_constant_weights(model) else discretize
    tr = build(model, starts, starts + dt, input_value=model.binary_input)
    for array in tr:
        array.flags.writeable = False
    return StepCycle(model, float(t0), float(dt), *tr)


class PassStep(NamedTuple):
    t: float                # end time of the step
    transition: np.ndarray  # G, (C, C), read-only
    noise: np.ndarray       # Q, (C, C), read-only
    input_on: np.ndarray    # (C,) input term with the binary input on; zero without one
    changepoint: bool       # a changepoint falls on the step end


def pass_steps(cycle: StepCycle, t_start: float, n_steps: int) -> Iterator[PassStep]:
    """The steps of one filter pass over [t_start, t_start + n_steps dt],
    read from `cycle` (step length dt = `cycle.dt`).

    Two checks run here, before the first step: the changepoint schedule of
    the pass (`changepoint_steps`), then that t_start lies on the cycle's
    step grid cycle.t0 + k dt (the `grid_steps` rule, naming the pass
    start).  Step k of the pass then reads slot (offset + k) mod n_cycle,
    where offset is t_start's index on that grid; its arrays are the cycle's
    read-only ones.  Steps are produced lazily.
    """
    model, dt = cycle.model, cycle.dt
    jumps = np.zeros(n_steps + 1, dtype=bool)
    jumps[changepoint_steps(model, t_start, dt, n_steps)] = True
    span = int(np.rint((t_start - cycle.t0) / dt))
    offset = int(grid_steps([t_start], cycle.t0, dt, span, "pass start")[0])
    n_cycle = cycle.n_cycle

    def steps():
        for k in range(n_steps):
            t0 = t_start + k * dt
            slot = (offset + k) % n_cycle
            yield PassStep(
                t0 + dt, cycle.transitions[slot], cycle.noises[slot], cycle.input_on,
                bool(jumps[k + 1]),
            )
    return steps()


def initial_state(model: AugmentedModel, target_mean, target_cov) -> GaussianState:
    """Block-diagonal prior at time 0: given target moments, stationary
    non-periodic blocks, and weight variances from the scaled eigenvalues.

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
    return GaussianState(mean, cov, 0.0)


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
