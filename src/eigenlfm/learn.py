"""Derivative-free maximum-likelihood fitting.

Nelder-Mead over the logs of the parameters (all positive scales), with
deterministic seed-jittered restarts.  The objective is a log-likelihood to
be maximized.

`scipy.optimize` is imported inside `fit`, not at module level: of the
commands that import this module only a fit runs the optimizer, and no other
CLI command loads scipy at all.  A fit pays the import, 0.4-0.55 s in a fresh
interpreter on a 2-vCPU Xeon, on its first call.
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
        """Raise when `params` lacks a parameter of this space, names one it
        does not have, sets one to a value that is not a real number (a bool
        is not one) or sets one outside its [lower, upper] bounds."""
        missing = [n for n in self.names if n not in params]
        if missing:
            raise InvalidParameterError(
                f"params for method {method!r} lack {', '.join(missing)}"
            )
        unknown = [str(k) for k in params if k not in self.names]
        if unknown:
            raise InvalidParameterError(
                f"params for method {method!r} name {', '.join(unknown)}, which it does "
                f"not have; its parameters are {', '.join(self.names)}"
            )
        for p in self.params:
            value = params[p.name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidParameterError(
                    f"params for method {method!r}: {p.name} = {value!r} is a "
                    f"{type(value).__name__}, not a real number"
                )
            if not p.lower <= value <= p.upper:
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


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    value: float
    trace: list[float] = field(repr=False, default_factory=list)  # every scored value, in order
    restarts: int = 1
    truncated: bool = False

    @property
    def evaluations(self) -> int:
        return len(self.trace)

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
    poor value; at the initial point it raises InvalidParameterError.  The
    first restart's first vertex is the initial point: its score is served
    from the first evaluation, so it counts in `budget` and the trace, but
    the objective runs there once.
    """
    dim = len(space.params)
    if budget < dim + 2:
        raise InvalidParameterError(f"budget {budget} is below {dim + 2} = {dim} parameters "
                                    f"({', '.join(space.names)}) + 2")
    if restarts < 1:
        raise InvalidParameterError("need at least one restart")

    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    bounds = space.bounds_transformed()
    trace: list[float] = []

    def negated(coords: np.ndarray) -> float:
        if len(trace) == 1 and np.array_equal(coords, start0):
            out = trace[0]  # Nelder-Mead's first vertex: the initial point, already scored
        else:
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
        remaining = budget - len(trace)
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
        restarts=restarts,
        truncated=truncated,
    )
