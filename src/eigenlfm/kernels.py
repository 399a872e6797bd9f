"""Parametric covariance functions on the time axis.

Every kernel is a callable ``k(t, t')`` that broadcasts over numpy arrays:
a small frozen dataclass below or a plain function.  `eval_kernel` /
`eval_matrix` check their inputs and call it.  A variant checks its fields
at construction against the one domain table `_DOMAINS`: a field it does
not name is finite and > 0.  Periodic variants are driven by the phase map
``kappa(tau) = |sin(pi tau / period)|`` so that a kernel of the phase is
automatically periodic in time.  Quasi-periodic step variants (StepQuasi /
WienerStepQuasi) depend on time only through the cycle index
``floor((t - epoch) / period)``; the continuous one is the OU kernel
``Matern(0.5, sigma, ell)``, which the config variant "cqm" builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "Matern",
    "PeriodicMatern",
    "PeriodicSE",
    "SquaredExponential",
    "StepQuasi",
    "WienerStepQuasi",
    "Product",
    "NonStatPeriodic",
    "KernelLike",
    "phase",
    "cycle_index",
    "eval_kernel",
    "eval_matrix",
    "kernel_from_config",
]

#: The one kernel type: a callable k(t, t') that broadcasts over numpy arrays.
KernelLike = Callable[[np.ndarray, np.ndarray], np.ndarray]

_SUPPORTED_ORDERS = (0.5, 1.5)

_POSITIVE = (lambda v: np.isfinite(v) and v > 0.0, "{name} must be finite and > 0, got {value!r}")
_FACTOR = (callable, "{name} factor must be a kernel, a callable k(t, t'), got {value!r}")

#: Field name -> (predicate, message) of its domain; a field not named here
#: is _POSITIVE.
_DOMAINS = {
    "nu": (lambda v: v in _SUPPORTED_ORDERS, f"order must be one of {_SUPPORTED_ORDERS}"),
    "xi0": (lambda v: np.isfinite(v) and v >= 0.0, "{name} must be finite and >= 0, got {value!r}"),
    "epoch": (np.isfinite, "epoch must be finite"),
    "left": _FACTOR,
    "right": _FACTOR,
}


class _Variant:
    """Checks every field of a kernel dataclass, in declaration order."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            valid, message = _DOMAINS.get(f.name, _POSITIVE)
            if not valid(value):
                raise InvalidParameterError(message.format(name=f.name, value=value))


@dataclass(frozen=True)
class Matern(_Variant):
    """Stationary Matern kernel, orders 1/2 and 3/2 only."""

    nu: float
    sigma: float
    ell: float

    def __call__(self, t, tp):
        return _matern_of(np.abs(t - tp) / self.ell, self.nu, self.sigma)


@dataclass(frozen=True)
class PeriodicMatern(_Variant):
    """Matern kernel of the phase kappa(t - t'), period `period`."""

    nu: float
    sigma: float
    ell: float
    period: float

    def __call__(self, t, tp):
        # clip absorbs round-off outside [0, 1] before the Matern profile
        kap = np.clip(phase(t - tp, self.period), 0.0, 1.0)
        return _matern_of(kap / self.ell, self.nu, self.sigma)


@dataclass(frozen=True)
class PeriodicSE(_Variant):
    """Squared-exponential of sin(pi tau / period), implicit unit output scale."""

    ell: float
    period: float

    def __call__(self, t, tp):
        s = np.sin(np.pi * (t - tp) / self.period)
        return np.exp(-(s**2) / self.ell**2)


@dataclass(frozen=True)
class SquaredExponential(_Variant):
    """Plain squared-exponential, k(tau) = sigma^2 exp(-tau^2 / (2 ell^2))."""

    sigma: float
    ell: float

    def __call__(self, t, tp):
        d = t - tp
        return self.sigma**2 * np.exp(-(d**2) / (2.0 * self.ell**2))


@dataclass(frozen=True)
class StepQuasi(_Variant):
    """Variance-preserving decorrelation applied once per cycle boundary."""

    sigma: float
    ell: float
    period: float
    epoch: float = 0.0

    def __call__(self, t, tp):
        dc = np.abs(
            cycle_index(t, self.period, self.epoch) - cycle_index(tp, self.period, self.epoch)
        )
        return self.sigma**2 * np.exp(-dc / self.ell)


@dataclass(frozen=True)
class WienerStepQuasi(_Variant):
    """Random-walk variance growth applied once per cycle boundary.

    The variance at cycle index c is xi0 + c * xi; valid for times at or
    after the epoch (cycle indices >= 0).
    """

    xi0: float
    xi: float
    period: float
    epoch: float = 0.0

    def __call__(self, t, tp):
        cmin = np.minimum(
            cycle_index(t, self.period, self.epoch),
            cycle_index(tp, self.period, self.epoch),
        )
        return self.xi0 + cmin * self.xi


@dataclass(frozen=True)
class Product(_Variant):
    """Pointwise product of two kernels."""

    left: KernelLike
    right: KernelLike

    def __call__(self, t, tp):
        return self.left(t, tp) * self.right(t, tp)


@dataclass(frozen=True)
class NonStatPeriodic(_Variant):
    """Periodic Matern-3/2 of the phase, modulated by exp(-alpha kappa(t)^2)
    at each argument.  Perfectly periodic and non-stationary."""

    sigma: float
    ell: float
    period: float
    alpha: float

    def __call__(self, t, tp):
        kap = np.clip(phase(t - tp, self.period), 0.0, 1.0)
        stationary = _matern_of(kap / self.ell, 1.5, self.sigma)
        mod_t = np.exp(-self.alpha * phase(t, self.period) ** 2)
        mod_tp = np.exp(-self.alpha * phase(tp, self.period) ** 2)
        # grouping keeps the evaluation exactly symmetric in (t, t')
        return stationary * (mod_t * mod_tp)


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
    if not callable(kernel):
        raise InvalidParameterError(f"unknown kernel variant: {kernel!r}")
    out = np.asarray(kernel(t, tp), dtype=float)
    return out if out.ndim else float(out)


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
    "cqm": functools.partial(Matern, 0.5),
    "sqm": StepQuasi,
    "wqm": WienerStepQuasi,
    "nonstat_periodic": NonStatPeriodic,
}


def kernel_from_config(config: dict) -> KernelLike:
    """Kernel from its config {"variant": ..., "params": {...}}; a "product"
    carries "left" and "right" kernel configs instead of params.  A missing
    factor, and a key that the variant would drop, is an InvalidParameterError."""
    try:
        variant = config["variant"]
    except (TypeError, KeyError):
        raise InvalidParameterError("kernel config must carry a 'variant' key")
    if variant == "product":
        for key in ("left", "right"):
            if key not in config:
                raise InvalidParameterError(f"product kernel config lacks {key!r}")
        if config.get("params"):
            raise InvalidParameterError("product kernel config has 'params'; its factors hold them")
        return Product(
            kernel_from_config(config["left"]), kernel_from_config(config["right"])
        )
    if variant not in _VARIANT_TYPES:
        raise InvalidParameterError(f"unknown kernel variant {variant!r}")
    for key in ("left", "right"):
        if key in config:
            raise InvalidParameterError(f"{variant!r} kernel config has {key!r}, a product key")
    params = dict(config.get("params", {}))
    try:
        return _VARIANT_TYPES[variant](**params)
    except TypeError as exc:
        raise InvalidParameterError(f"bad parameters for {variant!r}: {exc}") from exc
