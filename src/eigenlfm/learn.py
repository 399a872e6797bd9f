"""Derivative-free maximum-likelihood fitting.

Nelder-Mead over the logs of the parameters (all positive scales), with
deterministic seed-jittered restarts.  The objective is a log-likelihood to
be maximized.

`scipy.optimize` is imported inside `fit`, not at module level: of the
commands that import this module only a fit runs the optimizer, and the
import costs about 0.2 s of every CLI start-up.  A fit pays it on its first
call.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NumericError

__all__ = ["Param", "ParamSpace", "FitResult", "fit"]


@dataclass(frozen=True)
class Param:
    name: str
    lower: float
    upper: float
    init: float  # the search runs in log-space, so the bounds are positive

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise InvalidParameterError(f"{self.name}: bounds must be finite")
        if not self.lower < self.upper:
            raise InvalidParameterError(f"{self.name}: lower must be < upper")
        if not (self.lower < self.init < self.upper):
            raise InvalidParameterError(f"{self.name}: initial point must be interior")
        if self.lower <= 0.0:
            raise InvalidParameterError(f"{self.name}: log-space needs lower > 0")


@dataclass(frozen=True)
class ParamSpace:
    params: tuple[Param, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def check(self, params: dict, method: str) -> None:
        """Raise when `params` lacks a parameter of this space or sets one
        outside its [lower, upper] bounds; extra keys pass."""
        missing = [n for n in self.names if n not in params]
        if missing:
            raise InvalidParameterError(
                f"params for method {method!r} lack {', '.join(missing)}"
            )
        for p in self.params:
            value = params[p.name]
            if not (isinstance(value, numbers.Real) and p.lower <= value <= p.upper):
                raise InvalidParameterError(
                    f"params for method {method!r}: {p.name} = {value} "
                    f"lies outside [{p.lower:g}, {p.upper:g}]"
                )

    def transform(self, values: np.ndarray) -> np.ndarray:
        return np.log(values)

    def untransform(self, coords: np.ndarray) -> np.ndarray:
        return np.clip(
            np.exp(coords),
            [p.lower for p in self.params],
            [p.upper for p in self.params],
        )

    def initial(self) -> np.ndarray:
        return np.array([p.init for p in self.params])

    def bounds_transformed(self) -> list[tuple[float, float]]:
        return [(np.log(p.lower), np.log(p.upper)) for p in self.params]


@dataclass
class FitResult:
    params: dict[str, float]
    value: float
    trace: list[float] = field(repr=False, default_factory=list)
    evaluations: int = 0
    restarts: int = 1
    truncated: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": self.params,
                "loglik": self.value,
                "evaluations": self.evaluations,
                "restarts": self.restarts,
                "truncated": self.truncated,
            },
            indent=2,
            sort_keys=True,
        )


_BAD = 1e25


def fit(
    objective: Callable[[dict[str, float]], float],
    space: ParamSpace,
    budget: int,
    restarts: int = 1,
    seed: int = 0,
) -> FitResult:
    """Maximize `objective` over `space` with multi-restart Nelder-Mead.

    `budget` caps the total objective evaluations across restarts.  Restart
    r > 0 starts from the initial point jittered (in transformed coordinates)
    by seeded Gaussian noise, so the whole search is deterministic in `seed`.
    A non-finite value or a NumericError from `objective` scores as a very
    poor value; at the initial point it raises InvalidParameterError.
    """
    dim = len(space.params)
    if budget < dim + 2:
        raise InvalidParameterError("budget must be at least dimension + 2")
    if restarts < 1:
        raise InvalidParameterError("need at least one restart")

    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    bounds = space.bounds_transformed()
    trace: list[float] = []
    count = 0

    def negated(coords: np.ndarray) -> float:
        nonlocal count
        count += 1
        values = space.untransform(coords)
        try:
            out = float(objective(dict(zip(space.names, values))))
        except NumericError:  # e.g. a singular innovation covariance: scored as non-finite
            out = math.nan
        out = out if math.isfinite(out) else -_BAD
        trace.append(out)
        return -out

    start0 = space.transform(space.initial())
    first = negated(start0)
    if first >= _BAD:
        raise InvalidParameterError("objective is non-finite at the initial point")

    best_coords = start0
    best_value = -first
    per_restart = max(dim + 2, (budget - 1) // restarts)
    truncated = False

    for r in range(restarts):
        start = start0.copy()
        if r > 0:
            jitter = 0.3 * rng.standard_normal(dim)
            start = np.clip(
                start + jitter,
                [lo + 1e-9 for lo, _ in bounds],
                [hi - 1e-9 for _, hi in bounds],
            )
        remaining = budget - count
        if remaining < dim + 2:
            truncated = True
            break
        res = minimize(
            negated,
            start,
            method="Nelder-Mead",
            bounds=bounds,
            options={
                "maxfev": min(per_restart, remaining),
                "xatol": 1e-6,
                "fatol": 1e-9,
            },
        )
        if res.status == 1:  # hit the evaluation cap
            truncated = True
        if -res.fun > best_value:
            best_value = -res.fun
            best_coords = res.x

    values = space.untransform(best_coords)
    return FitResult(
        params=dict(zip(space.names, map(float, values))),
        value=float(best_value),
        trace=trace,
        evaluations=count,
        restarts=restarts,
        truncated=truncated,
    )
