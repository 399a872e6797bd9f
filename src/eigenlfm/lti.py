"""Continuous-time LTI-SDE blocks and per-changepoint jump models.

Each block encodes one scalar process (a non-periodic latent force, or the
constant bias of the resonator bank) as dU/dt = F U + L w with white noise w
of spectral density q; the `extract` row reads the process value out of the
block state.  Eigenfunction weights are not blocks: `lfm.PeriodicForce`
holds their rate and diffusion as two floats, and a `JumpModel` for their
jumps, all at unit scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NoStationaryDistributionError

__all__ = [
    "LtiSde",
    "JumpModel",
    "matern12_block",
    "matern32_block",
    "constant_block",
    "sqm_jump",
    "wqm_jump",
    "stationary_covariance",
    "lyapunov_stationary",
]


@dataclass(frozen=True)
class LtiSde:
    drift: np.ndarray      # (p, p)
    noise: np.ndarray      # (p, 1) injection column
    diffusion: float       # white-noise spectral density q >= 0
    extract: np.ndarray    # (p,) indicator row selecting the process value

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


@dataclass(frozen=True)
class JumpModel:
    """Discrete map a(tau) = gain * a(tau-) + chi, chi ~ N(0, noise_var)."""

    gain: float
    noise_var: float

    def __post_init__(self):
        if not np.isfinite(self.gain):
            raise InvalidParameterError("jump gain must be finite")
        if not np.isfinite(self.noise_var) or self.noise_var < 0.0:
            raise InvalidParameterError("jump noise variance must be >= 0")


def _require_scales(sigma: float, ell: float) -> None:
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise InvalidParameterError("sigma must be finite and > 0")
    if not np.isfinite(ell) or ell <= 0.0:
        raise InvalidParameterError("ell must be finite and > 0")


def matern12_block(sigma: float, ell: float) -> LtiSde:
    """First-order Matern (OU) block: F = -1/ell, q = 2 sigma^2 sqrt(pi) /
    (ell Gamma(1/2)) = 2 sigma^2 / ell."""
    _require_scales(sigma, ell)
    q = 2.0 * sigma**2 * math.sqrt(math.pi) / (ell * math.gamma(0.5))
    return LtiSde(
        drift=np.array([[-1.0 / ell]]),
        noise=np.array([[1.0]]),
        diffusion=q,
        extract=np.array([1.0]),
    )


def matern32_block(sigma: float, ell: float) -> LtiSde:
    """Matern-3/2 companion block with rate rho = sqrt(3)/ell.

    q = 4 rho^3 sigma^2 makes the stationary variance of the extracted
    process exactly sigma^2.
    """
    _require_scales(sigma, ell)
    rho = math.sqrt(3.0) / ell
    return LtiSde(
        drift=np.array([[0.0, 1.0], [-(rho**2), -2.0 * rho]]),
        noise=np.array([[0.0], [1.0]]),
        diffusion=4.0 * rho**3 * sigma**2,
        extract=np.array([1.0, 0.0]),
    )


def constant_block() -> LtiSde:
    """A constant state: F = 0, q = 0 (the resonator bank's bias)."""
    return LtiSde(
        drift=np.array([[0.0]]),
        noise=np.array([[0.0]]),
        diffusion=0.0,
        extract=np.array([1.0]),
    )


def sqm_jump(ell: float) -> JumpModel:
    """Step-decorrelation jump at unit scale: gain exp(-1/ell), noise
    1 - exp(-2/ell), so a unit variance is preserved: gain^2 + noise_var = 1.
    `lfm.PeriodicForce` scales the noise by each weight's prior variance."""
    if not np.isfinite(ell) or ell <= 0.0:
        raise InvalidParameterError("ell must be finite and > 0")
    gain = math.exp(-1.0 / ell)
    return JumpModel(gain=gain, noise_var=1.0 - gain**2)


def wqm_jump(xi: float) -> JumpModel:
    """Random-walk jump: unit gain, variance increment xi."""
    if not np.isfinite(xi) or xi <= 0.0:
        raise InvalidParameterError("xi must be finite and > 0")
    return JumpModel(gain=1.0, noise_var=xi)


def lyapunov_stationary(drift: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Solve F P + P F^T + S = 0 by the vectorized Kronecker system."""
    drift = np.asarray(drift, dtype=float)
    source = np.asarray(source, dtype=float)
    p = drift.shape[0]
    eye = np.eye(p)
    system = np.kron(drift, eye) + np.kron(eye, drift)
    cov = np.linalg.solve(system, -source.reshape(p * p)).reshape(p, p)
    return 0.5 * (cov + cov.T)


def stationary_covariance(block: LtiSde) -> np.ndarray:
    """Stationary covariance of a strictly stable block."""
    eigs = np.linalg.eigvals(block.drift)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    if np.max(eigs.real) > -1e-12 * scale:
        raise NoStationaryDistributionError(
            "drift is not strictly stable; no stationary covariance exists"
        )
    source = block.diffusion * (block.noise @ block.noise.T)
    return lyapunov_stationary(block.drift, source)
