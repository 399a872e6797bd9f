"""Sparse-spectrum features (Lazaro-Gredilla et al., JMLR 2010): trigonometric
features at frequencies Monte-Carlo-sampled from the normalized spectral
density of a squared-exponential kernel, the one kernel `compare-bases`
builds.  `baselines.comparison.linear_regress` regresses on them, as on the
eigenfunction rows, with the weight prior sigma^2 / S per feature.

Conventions (stated because sign/2-pi choices differ across sources): for
k(tau) = sigma^2 exp(-tau^2 / (2 ell^2)) the frequencies are drawn as
f ~ Normal(0, 1/(4 pi^2 ell^2)); features are cos(2 pi f t) and sin(2 pi f t)
with independent weight prior variance sigma^2 / S per feature, so the
implied prior covariance is (sigma^2 / S) sum_r cos(2 pi f_r (t - t')) and
equals sigma^2 exactly at tau = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..errors import InvalidParameterError

__all__ = ["SsgprModel", "ssgpr_build", "ssgpr_features", "implied_covariance"]


@dataclass
class SsgprModel:
    frequencies: np.ndarray   # (S,) spectral points
    sigma2: float             # kernel output variance

    @property
    def n_points(self) -> int:
        return self.frequencies.size


def ssgpr_build(kernel, n_points: int, seed: int) -> SsgprModel:
    """Draw `n_points` spectral points i.i.d. from the normalized spectral
    density of a squared-exponential kernel."""
    if n_points < 1:
        raise InvalidParameterError("need at least one spectral point")
    if not isinstance(kernel, kernels.SquaredExponential):
        raise InvalidParameterError("spectral sampling supports the SquaredExponential kernel")
    rng = np.random.default_rng(seed)
    freqs = rng.normal(0.0, 1.0 / (2.0 * np.pi * kernel.ell), size=n_points)
    return SsgprModel(frequencies=freqs, sigma2=kernel.sigma**2)


def ssgpr_features(model: SsgprModel, t) -> np.ndarray:
    """Features cos(2 pi f_r t) then sin(2 pi f_r t) at the times t: (n, 2S)."""
    ang = 2.0 * np.pi * np.outer(t, model.frequencies)
    return np.concatenate([np.cos(ang), np.sin(ang)], axis=1)


def implied_covariance(model: SsgprModel, t, tp):
    """Covariance implied by the feature prior: (sigma^2/S) sum cos(2 pi f tau)."""
    tau = np.asarray(t, dtype=float) - np.asarray(tp, dtype=float)
    out = (model.sigma2 / model.n_points) * np.sum(
        np.cos(2.0 * np.pi * np.multiply.outer(tau, model.frequencies)), axis=-1
    )
    return out if np.ndim(out) else float(out)
