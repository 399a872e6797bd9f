"""Augmented state-space latent force models.

The augmented state stacks

    [ target states | non-periodic force blocks | eigenfunction weights ]

with drift

    d/dt [z_a; a] = [[F_a, m(t)], [0, F_A]] [z_a; a] + noise,

where z_a holds the target and non-periodic blocks, the weights `a` multiply
eigenfunctions of the periodic force kernels, and m(t) couples each weight
into the target through its eigenfunction value and coupling column.
`assemble` takes the target drift F as an array, the non-periodic forces as
LTI-SDE blocks and the periodic forces as bases whose weights share two
scalar dynamics at unit scale, a rate and a diffusion (both 0 for constant
weights): the sigma of the basis kernel scales the whole force.  The model
is immutable and holds no measurement: a pass builds its H (a non-periodic
force is read out of the state by `nonperiodic_force_row`) and hands it and
R to the Kalman layer.

Three step builders discretize every model; their one quadrature is the
8-node Gauss-Legendre rule `_GAUSS_X`, `_GAUSS_W`, at whose nodes
`_node_rows` evaluates the eigenfunction rows.  Two take
`build(model, starts, dt)`, a 1-D array of step starts and one step
length, and return the stacked `(G, Q)`, each (n, C, C), of the steps
[starts[k], starts[k] + dt]; `step_cycle`, their one caller, computes the
input term, and a pass checks the changepoint schedule.  The third,
`relinearized_steps`, steps the queue's target, relinearized every step.

* `discretize` freezes m at each step start.  The weights of a periodic
  force are independent OU processes with one rate, so the step has a
  closed block form: the weight columns of G and Q are outer products of
  the eigenfunction row phi(t0) with vectors from one Van Loan exponential
  of size dim_za + 1 per force, and the z_a noise gains a term linear in
  sum_j q_j phi_j(t0)^2 (exact for the LTI part, O(dt^2) in the
  m-variation).  No exponential of the full state is taken.
* `constant_weight_transition` holds all weights constant between
  changepoints: the weight columns of the transition are the convolution
  integrals of the target transition with the eigenfunctions, evaluated by
  the Gauss-Legendre rule.  Only its z_a block and weight rows are
  exact.  The Matern-1/2 eigenfunctions have kinks at the N sample points,
  and one quadrature panel per step loses its order across a kink: one
  10-minute step differs from two 5-minute steps by 8.3e-4 in the
  weight columns of G (ROADMAP item 3).

Step quasi-periodic models perturb the weights at changepoints through
per-force jump models applied by `apply_changepoint_moments`.

The periodic forces repeat every period, and so do the eigenfunction rows
that couple the weights into the target: the transition of step k equals
that of step k + `cycle_steps(model, dt)`.  `step_cycle(model, dt)`
builds the steps of one period from t = 0, the phase origin of every basis,
once, in one batch, as an immutable `StepCycle`; a step that does not
divide the period is a `ContractViolationError`.

A filter pass over a regular step grid takes the cycle slot of each step
and the steps that end on a changepoint from `pass_schedule(model, dt,
t_start, n_steps)` and from nothing else, so every pass over a model can
share one cycle (the queue relinearizes at the same slots).  The pass start
must lie on the step grid k dt.  Changepoints and measurements are
scheduled as integer step indices (`grid_steps`); a time that is not on the
step grid is a `ContractViolationError`, never a skipped jump or measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import eigenbasis as eb
from . import lti
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NoStationaryDistributionError,
    NumericError,
)
from .pade import expm

__all__ = [
    "NonPeriodicForce",
    "PeriodicForce",
    "StateLayout",
    "AugmentedModel",
    "assemble",
    "periodic_force",
    "cqm_force",
    "sqm_force",
    "wqm_force",
    "discretize",
    "constant_weight_transition",
    "make_constant_step_plan",
    "StepCycle",
    "step_cycle",
    "relinearized_steps",
    "pass_schedule",
    "cycle_steps",
    "changepoint_steps",
    "grid_steps",
    "apply_changepoint_moments",
    "initial_state",
    "nonperiodic_force_row",
    "has_constant_weights",
]

_BOUNDARY_TOL = 1e-9
# the 8-node Gauss-Legendre rule, mapped from [-1, 1] to the unit interval
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_X, _GAUSS_W = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W


@dataclass(frozen=True)
class NonPeriodicForce:
    """A force represented directly by an LTI-SDE block."""

    block: lti.LtiSde
    coupling: np.ndarray  # (E,) column of L for this force


@dataclass(frozen=True)
class PeriodicForce:
    """A periodic force represented by eigenfunction weights.

    Every weight follows a' = weight_rate a + white noise of density
    weight_diffusion, at unit scale; both are 0.0 for weights that are
    constant between changepoints.  The scaled eigenvalue of a weight is its
    initial variance and multiplies its diffusion and jump noise, so the
    sigma of the basis kernel sets the scale of the whole force.
    """

    basis: eb.EigenBasis
    coupling: np.ndarray  # (E,)
    weight_rate: float = 0.0
    weight_diffusion: float = 0.0
    jump: lti.JumpModel | None = None


def periodic_force(basis: eb.EigenBasis, coupling) -> PeriodicForce:
    """Perfectly periodic force: constant weights, no changepoint jumps."""
    return PeriodicForce(basis, np.asarray(coupling, float))


def cqm_force(basis, coupling, ell_q: float) -> PeriodicForce:
    """Quasi-periodic force whose weights decorrelate continuously: each is
    the unit-scale OU process of `lti.matern12_block(1.0, ell_q)`."""
    ou = lti.matern12_block(1.0, ell_q)
    return PeriodicForce(basis, np.asarray(coupling, float),
                         weight_rate=ou.drift[0, 0], weight_diffusion=ou.diffusion)


def sqm_force(basis, coupling, ell_q: float) -> PeriodicForce:
    """Quasi-periodic force with variance-preserving jumps at changepoints."""
    return PeriodicForce(basis, np.asarray(coupling, float), jump=lti.sqm_jump(ell_q))


def wqm_force(basis, coupling, xi: float) -> PeriodicForce:
    """Quasi-periodic force whose weight variances grow by xi of their prior at each changepoint."""
    return PeriodicForce(basis, np.asarray(coupling, float), jump=lti.wqm_jump(xi))


@dataclass(frozen=True)
class StateLayout:
    n_target: int
    nonperiodic_spans: tuple[tuple[int, int], ...]
    weight_spans: tuple[tuple[int, int], ...]
    dim_za: int
    dim: int


@dataclass(frozen=True, eq=False)
class AugmentedModel:
    nonperiodic: tuple[NonPeriodicForce, ...]
    periodic: tuple[PeriodicForce, ...]
    layout: StateLayout
    changepoints: np.ndarray
    # assembly caches
    drift_za: np.ndarray = field(repr=False)
    diffusion: np.ndarray = field(repr=False)  # (C, C) spectral density
    coupling_pad: tuple[np.ndarray, ...] = field(repr=False)
    binary_input: np.ndarray | None  # (dim_za,) ON direction of a 0/1 input

    @property
    def dim(self) -> int:
        return self.layout.dim


def assemble(
    drift,
    nonperiodic: Sequence[NonPeriodicForce] = (),
    periodic: Sequence[PeriodicForce] = (),
    changepoints: Sequence[float] = (),
    binary_input=None,
) -> AugmentedModel:
    """Assemble the augmented model from the target drift F (E x E), the
    non-periodic and periodic forces, the changepoint times and the (E,)
    target rows of a known 0/1 input or None, padded into z_a as a coupling
    column is, and precompute its building blocks."""
    drift = np.atleast_2d(np.asarray(drift, dtype=float))
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
        w_spans.append((pos, pos + force.basis.n_selected))
        pos += force.basis.n_selected
    dim = pos
    if binary_input is not None and np.shape(binary_input) != (n_target,):
        raise InvalidParameterError("binary input must have one entry per target state")

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

    for force, (lo, hi) in zip(periodic, w_spans):
        mu = force.basis.scaled_eigenvalues()
        diffusion[lo:hi, lo:hi] = np.diag(mu * force.weight_diffusion)

    def pad(rows: np.ndarray) -> np.ndarray:  # (E,) target rows -> (dim_za,)
        out = np.zeros(dim_za)
        out[:n_target] = rows
        return out

    cps = np.sort(np.asarray(changepoints, dtype=float))
    if cps.size and np.any(np.diff(cps) <= 0):
        raise InvalidParameterError("changepoints must be strictly increasing")

    return AugmentedModel(
        nonperiodic=tuple(nonperiodic),
        periodic=tuple(periodic),
        layout=layout,
        changepoints=cps,
        drift_za=drift_za,
        diffusion=diffusion,
        coupling_pad=tuple(pad(force.coupling) for force in periodic),
        binary_input=None if binary_input is None else pad(binary_input),
    )


def has_constant_weights(model: AugmentedModel) -> bool:
    return all(
        force.weight_rate == 0.0 and force.weight_diffusion == 0.0 for force in model.periodic
    )


def _van_loan(drift: np.ndarray, diffusion: np.ndarray, dt: float):
    """Joint (G, Q) of the LTI segment via the matrix fraction decomposition."""
    n = drift.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = drift
    block[:n, n:] = diffusion
    block[n:, n:] = -drift.T
    top = expm(block * dt)[:n, :]
    g = top[:, :n]
    q = top[:, n:] @ g.T
    return g, 0.5 * (q + q.T)


def _input_response(drift: np.ndarray, dt: float) -> np.ndarray:
    """B0 = integral of expm(drift * s) ds over one step: a held input u adds B0 @ u."""
    n = drift.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = drift
    block[:n, n:] = np.eye(n)
    return expm(block * dt)[:n, n:]


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
    model: AugmentedModel, starts: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen-m (G, Q), each (n, C, C), of the steps [t0, t0 + dt] for t0
    in the 1-D array `starts`, with m(t) held at each step start; exact for
    the LTI part, O(dt^2) in the m-variation.

    The weights of each periodic force r are OU with rate lambda_r and
    variances q, so the step has a block form built from `_weight_response`
    and one batch of eigenfunction rows phi(t0):

        G_aA = psi_r phi^T, with e^{lambda_r dt} on the weight diagonal;
        Q_aA = xi_r (q * phi)^T;   Q_AA = diag(q v_r);
        Q_aa = Q_za + sum_r (sum_j q_j phi_j^2) Z_r."""
    n, c, cza = starts.size, model.dim, model.layout.dim_za
    phi_za, noise_za = _van_loan(model.drift_za, model.diffusion[:cza, :cza], dt)
    g = np.zeros((n, c, c))
    q = np.zeros((n, c, c))
    g[:, :cza, :cza] = phi_za
    q[:, :cza, :cza] = noise_za
    weight_var = np.diag(model.diffusion)
    for force, pad, (lo, hi) in zip(model.periodic, model.coupling_pad, model.layout.weight_spans):
        psi, decay, z, xi, v = _weight_response(model, pad, force.weight_rate, dt)
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
    return g, q


def _node_rows(basis: eb.EigenBasis, starts: np.ndarray, dt: float) -> np.ndarray:
    """(n, 8, J) eigenfunction rows of `basis`, in one evaluation, at the
    Gauss-Legendre nodes t0 + x_i dt of the steps [t0, t0 + dt], t0 in `starts`."""
    nodes = (starts[:, None] + dt * _GAUSS_X).ravel()
    return eb.eigenfunction_matrix(basis, nodes).reshape(starts.size, _GAUSS_X.size, -1)


def make_constant_step_plan(model: AugmentedModel, dt: float) -> tuple:
    """What every constant-weight step of length dt shares, as the tuple
    (expm(F_a dt), the exact z_a noise over one step, the (n,) quadrature
    weights scaled by dt, and per force the (n, dim_za) z_a response to its
    coupling from each node to the step end).  A model with no periodic
    force takes no node propagator."""
    drift_za, cza = model.drift_za, model.layout.dim_za
    phi_za, noise_za = _van_loan(drift_za, model.diffusion[:cza, :cza], dt)
    coupling = tuple(
        np.stack([expm(drift_za * (dt * (1.0 - xi))) @ pad for xi in _GAUSS_X])
        for pad in model.coupling_pad
    )
    return phi_za, noise_za, _GAUSS_W * dt, coupling


def constant_weight_transition(
    model: AugmentedModel, starts: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """(G, Q) of the steps [t0, t0 + dt] for t0 in `starts` when all
    eigenfunction weights are constant; shapes as for `discretize`.

    The weight columns of G are the convolutions of the z_a transition with
    each eigenfunction by the Gauss-Legendre rule, which is not exact
    across the kinks of the Matern-1/2 eigenfunctions (see the module
    docstring); the z_a block is exact and the weight rows are identity.
    The node rows of every step of the batch come from one `_node_rows`
    per periodic force, and the columns of all steps from one batched
    product with the node couplings.
    """
    if not has_constant_weights(model):
        raise ContractViolationError(
            "constant_weight_transition requires constant weights"
        )
    phi_za, noise_za, weights, node_coupling = make_constant_step_plan(model, dt)

    n, c, cza = starts.size, model.dim, model.layout.dim_za
    g = np.zeros((n, c, c))
    g[:, :cza, :cza] = phi_za
    idx = np.arange(cza, c)
    g[:, idx, idx] = 1.0
    q = np.zeros((n, c, c))
    q[:, :cza, :cza] = noise_za

    for force, coupling, (lo, hi) in zip(model.periodic, node_coupling, model.layout.weight_spans):
        cols = coupling * weights[:, None]  # (n_nodes, dim_za)
        g[:, :cza, lo:hi] = cols.T @ _node_rows(force.basis, starts, dt)
    return g, q


def apply_changepoint_moments(
    model: AugmentedModel, means: np.ndarray, cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jump update on a bank of means (rows) sharing one covariance."""
    means = np.array(means, dtype=float, copy=True)
    cov = np.array(cov, dtype=float, copy=True)
    for force, (lo, hi) in zip(model.periodic, model.layout.weight_spans):
        if force.jump is None:
            continue
        gain = force.jump.gain
        means[..., lo:hi] *= gain
        cov[lo:hi, :] *= gain
        cov[:, lo:hi] *= gain
        idx = np.arange(lo, hi)
        cov[idx, idx] += force.basis.scaled_eigenvalues() * force.jump.noise_var
    return means, cov


def _grid_tol(t_start: float, dt: float, n_steps: int) -> float:
    return _BOUNDARY_TOL * max(1.0, abs(t_start), abs(t_start + n_steps * dt))


def grid_steps(times, t_start: float, dt: float, n_steps: int, what: str) -> np.ndarray:
    """Integer indices k of `times` on the step grid t_start + k dt of a pass
    of `n_steps` steps.  A step that is not finite and > 0 raises
    InvalidParameterError; a time that is not on the grid (an event there
    would be skipped) raises ContractViolationError, naming `what`."""
    _check_step(dt)
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


def _check_step(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0.0):
        raise InvalidParameterError("step must be finite and > 0")


def cycle_steps(model: AugmentedModel, dt: float) -> int:
    """Steps per period of the periodic forces, after which every transition
    repeats: `period / dt`, or 1 for a model with no periodic force.

    Raises ContractViolationError, naming the numbers, when the forces'
    periods differ or `dt` does not divide the period (the `grid_steps`
    tolerance): the transitions would then not repeat."""
    _check_step(dt)
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

    Slot k holds the transition of the step [k dt, (k + 1) dt]; a step a
    whole number of periods away from slot k repeats it, since the periodic
    forces do.  The arrays are read-only."""

    model: AugmentedModel
    dt: float
    transitions: np.ndarray  # G, (n_cycle, C, C)
    noises: np.ndarray       # Q, (n_cycle, C, C)
    input_on: np.ndarray     # (C,) input term with the binary input on; zero without one


def step_cycle(model: AugmentedModel, dt: float) -> StepCycle:
    """The `cycle_steps(model, dt)` steps of one period from t = 0, the basis
    phase origin, in one batch: by `constant_weight_transition` when every
    weight is constant, else by the frozen-m `discretize`.

    The input term `input_on` is B0 @ u for the model's binary input u on,
    held over a step, where B0 = int_0^dt expm(F_a s) ds: the input enters
    z_a only, so one exponential of the z_a drift gives it, for every step
    alike.  It is zero without a binary input.  Raises ContractViolationError
    when `dt` does not divide the period (see `cycle_steps`).  Changepoints
    are not checked here: a pass checks those it crosses (`pass_schedule`)."""
    n_cycle = cycle_steps(model, dt)
    cza = model.layout.dim_za
    input_on = np.zeros(model.dim)
    if model.binary_input is not None:
        input_on[:cza] = _input_response(model.drift_za, dt) @ model.binary_input
    starts = dt * np.arange(n_cycle)
    build = constant_weight_transition if has_constant_weights(model) else discretize
    g, q = build(model, starts, dt)
    for array in (g, q, input_on):
        array.flags.writeable = False
    return StepCycle(model, float(dt), g, q, input_on)


def _int_exp(a: float, dt: float) -> float:
    """(exp(a dt) - 1) / a, robust at a -> 0."""
    x = a * dt
    if abs(x) < 1e-8:
        return dt * (1.0 + 0.5 * x + x * x / 6.0)
    return math.expm1(x) / a


def _ou_target_step(f: float, c: float, dt: float, decay: float, i_2c: float):
    """The f-dependent terms (e_f, g_cross, q11, q12) of the exact step of
    dL/dt = f L + u, du/dt = -c u + unit white noise: G = [[e_f, g_cross],
    [0, decay]], Q = [[q11, q12], [q12, i_2c]] (decay and i_2c given)."""
    e_f = math.exp(f * dt)
    d = f + c
    if abs(d) * dt > 1e-7:
        g_cross = decay * _int_exp(d, dt)
        i_2f = _int_exp(2.0 * f, dt)
        i_fc = _int_exp(f - c, dt)
        q11 = (i_2f - 2.0 * i_fc + i_2c) / d**2
        q12 = (i_fc - i_2c) / d
    else:
        # f ~ -c: the cross response degenerates to u exp(f u); here |f| dt
        # is small, so fixed-order quadrature of the smooth integrand is exact
        # to round-off
        g_cross = dt * e_f
        u = dt * _GAUSS_X
        gu = u * np.exp(f * u)
        q11 = dt * float(_GAUSS_W @ gu**2)
        q12 = dt * float(_GAUSS_W @ (gu * np.exp(-c * u)))
    return e_f, g_cross, q11, q12


def relinearized_steps(model: AugmentedModel, dt: float):
    """Step builder of a model of one target state whose drift is
    relinearized to f at every step, coupled with unit weight to exactly one
    force, a one-state OU block or one periodic force (the model's own
    target drift is not read; any other model raises ContractViolationError,
    naming its cause): returns `step(slot, f)`, the (G, Q or None)
    of `step_cycle`'s slot `slot` at drift f.  One G (and Q) and the rows
    of every slot are built once; a call rewrites row 0 of G (and row and
    column 0 of Q) in place.  Constant weights take the coupling from
    `_node_rows` as `constant_weight_transition` does, with no noise (Q
    None).  OU force states take `_ou_target_step` of a unit force, scaled
    by their noise q: cqm's weights with the coupling frozen at phi(t0) as
    in `discretize`, or the OU block with phi = 1; their decay e^{-c dt}
    and noise q (e^{-2c dt} - 1) / (-2c) fill the diagonals once.
    """
    forces = model.nonperiodic + model.periodic
    cause = (f"{model.layout.n_target} target states" if model.layout.n_target != 1
             else f"{len(forces)} forces" if len(forces) != 1
             else f"a {model.dim - 1}-state force block" if model.nonperiodic and model.dim != 2
             else f"coupling {forces[0].coupling.tolist()}" if forces[0].coupling.tolist() != [1.0]
             else None)
    if cause is not None:
        raise ContractViolationError(f"relinearized steps take one target state with unit "
                                     f"coupling to one OU or periodic force, not {cause}")
    starts = dt * np.arange(cycle_steps(model, dt))
    g = np.eye(model.dim)
    g_row = g[0, 1:]
    if model.periodic and has_constant_weights(model):
        phi = dt * _GAUSS_W[:, None] * _node_rows(model.periodic[0].basis, starts, dt)
        lags = dt * (1.0 - _GAUSS_X)

        def step(slot: int, f: float):
            g[0, 0] = math.exp(f * dt)
            np.dot(np.exp(f * lags), phi[slot], out=g_row)
            return g, None

        return step

    if model.nonperiodic:
        rate = -model.nonperiodic[0].block.drift[0, 0]
        phi = np.ones((starts.size, 1))
    else:
        rate = -model.periodic[0].weight_rate
        phi = eb.eigenfunction_matrix(model.periodic[0].basis, starts)
    qd = np.diag(model.diffusion)[1:]
    q_phi = qd * phi
    mass = (q_phi * phi).sum(axis=1).tolist()
    decay, i_2c = math.exp(-rate * dt), _int_exp(-2.0 * rate, dt)
    g[1:, 1:] *= decay
    q = np.diag(np.append(0.0, qd * i_2c))
    q_row, q_col = q[0, 1:], q[1:, 0]

    def step(slot: int, f: float):
        g[0, 0], g_cross, q11, q12 = _ou_target_step(f, rate, dt, decay, i_2c)
        np.multiply(phi[slot], g_cross, out=g_row)
        q[0, 0] = q11 * mass[slot]
        q_col[:] = np.multiply(q_phi[slot], q12, out=q_row)
        return g, q

    return step


def pass_schedule(
    model: AugmentedModel, dt: float, t_start: float, n_steps: int
) -> tuple[list[int], set[int]]:
    """(slots, changepoints) of a pass of `n_steps` steps of length `dt` from
    `t_start`: slots[k - 1] is the `step_cycle(model, dt)` slot of step k,
    (offset + k - 1) mod n_cycle with offset t_start's index on the grid
    k dt, and `changepoints` is the set of the k whose step end is one.

    After the step itself (`grid_steps`), three checks run here, in order,
    before the first step: the changepoint schedule (`changepoint_steps`),
    the pass start on the grid k dt (the `grid_steps` rule, naming it), and
    that dt divides the period (`cycle_steps`)."""
    changepoints = set(changepoint_steps(model, t_start, dt, n_steps).tolist())
    span = int(np.rint(t_start / dt))
    offset = int(grid_steps([t_start], 0.0, dt, span, "pass start")[0])
    n_cycle = cycle_steps(model, dt)
    return [(offset + k) % n_cycle for k in range(n_steps)], changepoints


def initial_state(model: AugmentedModel, target_mean, target_cov) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal prior (mean, cov) at the start of a pass: given target
    moments, stationary non-periodic blocks, and the scaled eigenvalues as
    the weight variances.

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
    for force, (lo, hi) in zip(model.periodic, model.layout.weight_spans):
        idx = np.arange(lo, hi)
        cov[idx, idx] = force.basis.scaled_eigenvalues()
    return mean, cov


def nonperiodic_force_row(model: AugmentedModel, i: int) -> np.ndarray:
    row = np.zeros(model.dim)
    lo, hi = model.layout.nonperiodic_spans[i]
    row[lo:hi] = model.nonperiodic[i].block.extract
    return row
