"""Parametric covariance functions on the time axis.

Every kernel is a small frozen dataclass; `eval_kernel` / `eval_matrix`
dispatch on the variant and broadcast over numpy arrays.  Periodic variants
are driven by the phase map ``kappa(tau) = |sin(pi tau / period)|`` so that a
kernel of the phase is automatically periodic in time.  Quasi-periodic step
variants (StepQuasi / WienerStepQuasi) depend on time only through the cycle
index ``floor((t - epoch) / period)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Matern",
    "PeriodicMatern",
    "PeriodicSE",
    "SquaredExponential",
    "ContinuousQuasi",
    "StepQuasi",
    "WienerStepQuasi",
    "Product",
    "NonStatPeriodic",
    "Kernel",
    "KernelLike",
    "phase",
    "cycle_index",
    "eval_kernel",
    "eval_matrix",
    "kernel_from_config",
]

_SUPPORTED_ORDERS = (0.5, 1.5)


def _require_positive(value: float, name: str) -> None:
    if not np.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


def _require_nonnegative(value: float, name: str) -> None:
    if not np.isfinite(value) or value < 0.0:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Matern:
    """Stationary Matern kernel, orders 1/2 and 3/2 only."""

    nu: float
    sigma: float
    ell: float

    def __post_init__(self):
        if self.nu not in _SUPPORTED_ORDERS:
            raise InvalidParameterError(f"order must be one of {_SUPPORTED_ORDERS}")
        _require_positive(self.sigma, "sigma")
        _require_positive(self.ell, "ell")


@dataclass(frozen=True)
class PeriodicMatern:
    """Matern kernel of the phase kappa(t - t'), period `period`."""

    nu: float
    sigma: float
    ell: float
    period: float

    def __post_init__(self):
        if self.nu not in _SUPPORTED_ORDERS:
            raise InvalidParameterError(f"order must be one of {_SUPPORTED_ORDERS}")
        _require_positive(self.sigma, "sigma")
        _require_positive(self.ell, "ell")
        _require_positive(self.period, "period")


@dataclass(frozen=True)
class PeriodicSE:
    """Squared-exponential of sin(pi tau / period), implicit unit output scale."""

    ell: float
    period: float

    def __post_init__(self):
        _require_positive(self.ell, "ell")
        _require_positive(self.period, "period")


@dataclass(frozen=True)
class SquaredExponential:
    """Plain squared-exponential, k(tau) = sigma^2 exp(-tau^2 / (2 ell^2))."""

    sigma: float
    ell: float

    def __post_init__(self):
        _require_positive(self.sigma, "sigma")
        _require_positive(self.ell, "ell")


@dataclass(frozen=True)
class ContinuousQuasi:
    """Inter-cycle decorrelation acting continuously in time (an OU kernel)."""

    sigma: float
    ell: float

    def __post_init__(self):
        _require_positive(self.sigma, "sigma")
        _require_positive(self.ell, "ell")


@dataclass(frozen=True)
class StepQuasi:
    """Variance-preserving decorrelation applied once per cycle boundary."""

    sigma: float
    ell: float
    period: float
    epoch: float = 0.0

    def __post_init__(self):
        _require_positive(self.sigma, "sigma")
        _require_positive(self.ell, "ell")
        _require_positive(self.period, "period")
        if not np.isfinite(self.epoch):
            raise InvalidParameterError("epoch must be finite")


@dataclass(frozen=True)
class WienerStepQuasi:
    """Random-walk variance growth applied once per cycle boundary.

    The variance at cycle index c is xi0 + c * xi; valid for times at or
    after the epoch (cycle indices >= 0).
    """

    xi0: float
    xi: float
    period: float
    epoch: float = 0.0

    def __post_init__(self):
        _require_nonnegative(self.xi0, "xi0")
        _require_positive(self.xi, "xi")
        _require_positive(self.period, "period")
        if not np.isfinite(self.epoch):
            raise InvalidParameterError("epoch must be finite")


@dataclass(frozen=True)
class Product:
    """Pointwise product of two kernels."""

    left: "Kernel"
    right: "Kernel"


@dataclass(frozen=True)
class NonStatPeriodic:
    """Periodic Matern-3/2 of the phase, modulated by exp(-alpha kappa(t)^2)
    at each argument.  Perfectly periodic and non-stationary."""

    sigma: float
    ell: float
    period: float
    alpha: float

    def __post_init__(self):
        _require_positive(self.sigma, "sigma")
        _require_positive(self.ell, "ell")
        _require_positive(self.period, "period")
        _require_positive(self.alpha, "alpha")


Kernel = Union[
    Matern,
    PeriodicMatern,
    PeriodicSE,
    SquaredExponential,
    ContinuousQuasi,
    StepQuasi,
    WienerStepQuasi,
    Product,
    NonStatPeriodic,
]

#: Anything accepted where a kernel is expected: a variant above or a plain
#: callable k(t, t') that broadcasts over numpy arrays.
KernelLike = Union[Kernel, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def phase(tau, period: float):
    """Phase map kappa(tau) = |sin(pi tau / period)|, in [0, 1]."""
    if not np.isfinite(period) or period <= 0.0:
        raise InvalidParameterError(f"period must be finite and > 0, got {period!r}")
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise InvalidParameterError("time offsets must be finite")
    out = np.abs(np.sin(np.pi * tau / period))
    return out if out.ndim else float(out)


def cycle_index(t, period: float, epoch: float = 0.0):
    """Integer cycle index floor((t - epoch) / period)."""
    if not np.isfinite(period) or period <= 0.0:
        raise InvalidParameterError(f"period must be finite and > 0, got {period!r}")
    t = np.asarray(t, dtype=float)
    return np.floor((t - epoch) / period)


def _matern_of(r, nu: float, sigma: float):
    """Matern correlation profile at scaled distance r = tau / ell (r >= 0)."""
    if nu == 0.5:
        return sigma**2 * np.exp(-r)
    # nu == 1.5
    s = math.sqrt(3.0) * r
    return sigma**2 * (1.0 + s) * np.exp(-s)


def eval_kernel(kernel: KernelLike, t, tp):
    """Evaluate K(t, t'); broadcasts over array arguments."""
    t = np.asarray(t, dtype=float)
    tp = np.asarray(tp, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(tp))):
        raise InvalidParameterError("kernel inputs must be finite")
    out = _eval(kernel, t, tp)
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


def _eval(kernel: KernelLike, t: np.ndarray, tp: np.ndarray):
    if isinstance(kernel, Matern):
        return _matern_of(np.abs(t - tp) / kernel.ell, kernel.nu, kernel.sigma)
    if isinstance(kernel, PeriodicMatern):
        # clip absorbs round-off outside [0, 1] before the Matern profile
        kap = np.clip(phase(t - tp, kernel.period), 0.0, 1.0)
        return _matern_of(kap / kernel.ell, kernel.nu, kernel.sigma)
    if isinstance(kernel, PeriodicSE):
        s = np.sin(np.pi * (t - tp) / kernel.period)
        return np.exp(-(s**2) / kernel.ell**2)
    if isinstance(kernel, SquaredExponential):
        d = t - tp
        return kernel.sigma**2 * np.exp(-(d**2) / (2.0 * kernel.ell**2))
    if isinstance(kernel, ContinuousQuasi):
        return kernel.sigma**2 * np.exp(-np.abs(t - tp) / kernel.ell)
    if isinstance(kernel, StepQuasi):
        dc = np.abs(
            cycle_index(t, kernel.period, kernel.epoch)
            - cycle_index(tp, kernel.period, kernel.epoch)
        )
        return kernel.sigma**2 * np.exp(-dc / kernel.ell)
    if isinstance(kernel, WienerStepQuasi):
        cmin = np.minimum(
            cycle_index(t, kernel.period, kernel.epoch),
            cycle_index(tp, kernel.period, kernel.epoch),
        )
        return kernel.xi0 + cmin * kernel.xi
    if isinstance(kernel, Product):
        return _eval(kernel.left, t, tp) * _eval(kernel.right, t, tp)
    if isinstance(kernel, NonStatPeriodic):
        kap = np.clip(phase(t - tp, kernel.period), 0.0, 1.0)
        stationary = _matern_of(kap / kernel.ell, 1.5, kernel.sigma)
        mod_t = np.exp(-kernel.alpha * phase(t, kernel.period) ** 2)
        mod_tp = np.exp(-kernel.alpha * phase(tp, kernel.period) ** 2)
        # grouping keeps the evaluation exactly symmetric in (t, t')
        return stationary * (mod_t * mod_tp)
    if callable(kernel):
        return kernel(t, tp)
    raise InvalidParameterError(f"unknown kernel variant: {kernel!r}")


def eval_matrix(kernel: KernelLike, a, b) -> np.ndarray:
    """Cross-covariance matrix with element (i, j) = K(a_i, b_j)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidParameterError("input sequences must be non-empty")
    return np.asarray(eval_kernel(kernel, a[:, None], b[None, :]), dtype=float)


_VARIANT_TYPES = {
    "matern": Matern,
    "periodic_matern": PeriodicMatern,
    "periodic_se": PeriodicSE,
    "se": SquaredExponential,
    "cqm": ContinuousQuasi,
    "sqm": StepQuasi,
    "wqm": WienerStepQuasi,
    "nonstat_periodic": NonStatPeriodic,
}


def kernel_from_config(config: dict) -> Kernel:
    """Kernel from its config {"variant": ..., "params": {...}}; a "product"
    carries "left" and "right" kernel configs instead of params."""
    try:
        variant = config["variant"]
    except (TypeError, KeyError):
        raise InvalidParameterError("kernel config must carry a 'variant' key")
    if variant == "product":
        return Product(
            kernel_from_config(config["left"]), kernel_from_config(config["right"])
        )
    if variant not in _VARIANT_TYPES:
        raise InvalidParameterError(f"unknown kernel variant {variant!r}")
    params = dict(config.get("params", {}))
    try:
        return _VARIANT_TYPES[variant](**params)
    except TypeError as exc:
        raise InvalidParameterError(f"bad parameters for {variant!r}: {exc}") from exc
