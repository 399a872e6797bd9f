"""JSON run-configuration schemas.

Every CLI command validates its configuration document before doing any
work; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

from .apps.queueing import QUEUE_METHODS, QueueGenConfig
from .apps.synth import DAY_MINUTES
from .apps.thermal import THERMAL_METHODS, ThermalGenConfig
from .errors import InvalidParameterError

__all__ = ["load_config", "validate_config", "SCHEMAS"]

_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "variant": {"type": "string"},
        "params": {"type": "object", "additionalProperties": {"type": "number"}},
        "left": {"$ref": "#/$defs/kernel"},
        "right": {"$ref": "#/$defs/kernel"},
    },
    "required": ["variant"],
    "additionalProperties": False,
}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "count": {"type": "integer", "minimum": 2},
    },
    "required": ["start", "stop", "count"],
    "additionalProperties": False,
}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_SEEDS = {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1}

_QUEUE_GENERATOR = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(QUEUE_METHODS)},
        "days": {"type": "integer", "minimum": 2},
        "mean_peak": {"type": "number", "minimum": 0},
        "mean_hour": {"type": "number"},
        "mean_width_h": _POSITIVE,
        "sigma_p": _POSITIVE,
        "ell_p": _POSITIVE,
        "ell_q": _POSITIVE,
        "xi": _POSITIVE,
        "ell_t": _POSITIVE,
        "omega_train": _POSITIVE,
        "omega_test": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "step": _POSITIVE,
        "obs_noise": _POSITIVE,
        "train_meas_every": _POSITIVE,
        "test_meas_every": _POSITIVE,
        "n_basis_points": {"type": "integer", "minimum": 2},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
    "additionalProperties": False,
}

_THERMAL_GENERATOR = {
    "type": "object",
    "properties": {
        "days": {"type": "integer", "minimum": 2},
        "alpha": _POSITIVE,
        "beta": _POSITIVE,
        "sigma_ext": _POSITIVE,
        "ell_ext": _POSITIVE,
        "residual_kind": {"enum": [m for m in THERMAL_METHODS if m != "resonator"]},
        "sigma_r": _POSITIVE,
        "ell_r": _POSITIVE,
        "ell_q": _POSITIVE,
        "xi": _POSITIVE,
        "setpoint_day": {"type": "number"},
        "setpoint_night": {"type": "number"},
        "day_start_h": {"type": "number"},
        "day_end_h": {"type": "number"},
        "step": _POSITIVE,
        "obs_noise": _POSITIVE,
        "n_basis_points": {"type": "integer", "minimum": 2},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "residual_scale": _POSITIVE,
    },
    "additionalProperties": False,
}

SCHEMAS = {
    "eigenbasis": {
        "type": "object",
        "properties": {
            "kernel": {"$ref": "#/$defs/kernel"},
            "n_points": {"type": "integer", "minimum": 2},
            "period": _POSITIVE,
            "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "grid": _GRID_SCHEMA,
        },
        "required": ["kernel", "period"],
        "additionalProperties": False,
        "$defs": {"kernel": _KERNEL_SCHEMA},
    },
    "compare-bases": {
        "type": "object",
        "properties": {
            "sigma": _POSITIVE,
            "ell": _POSITIVE,
            "window": _POSITIVE,
            "n_points": {"type": "integer", "minimum": 2},
            "n_basis": {"type": "integer", "minimum": 1},
            "n_draws": {"type": "integer", "minimum": 1},
            "measure_every": _POSITIVE,
            "noise": {"type": "number", "minimum": 0},
            "grid_count": {"type": "integer", "minimum": 2},
            "ssgpr_multipliers": {
                "type": "array", "items": {"type": "integer", "minimum": 1},
            },
        },
        "additionalProperties": False,
    },
    "queue": {
        "type": "object",
        "properties": {
            "generator": _QUEUE_GENERATOR,
            "methods": {"type": "array", "items": {"enum": list(QUEUE_METHODS)}, "minItems": 1},
            "seeds": _SEEDS,
            "budget": {"type": "integer", "minimum": 4},
            "restarts": {"type": "integer", "minimum": 1},
            "fit_seed": {"type": "integer", "minimum": 0},
            "data_dir": {"type": "string"},
            "params": {"type": "object"},
        },
        "additionalProperties": False,
    },
    "thermal": {
        "type": "object",
        "properties": {
            "generator": _THERMAL_GENERATOR,
            "methods": {"type": "array", "items": {"enum": list(THERMAL_METHODS)}, "minItems": 1},
            "seeds": _SEEDS,
            "budget": {"type": "integer", "minimum": 4},
            "restarts": {"type": "integer", "minimum": 1},
            "fit_seed": {"type": "integer", "minimum": 0},
            "n_particles": {"type": "integer", "minimum": 1},
            "envelope": {"type": "boolean"},
            "track_meas_every": _POSITIVE,
            "data_dir": {"type": "string"},
            "params": {"type": "object"},
        },
        "additionalProperties": False,
    },
}


def validate_config(command: str, config: dict) -> dict:
    if command not in SCHEMAS:
        raise InvalidParameterError(f"no schema for command {command!r}")
    try:
        jsonschema.validate(config, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        raise InvalidParameterError(f"invalid {command} config: {exc.message}") from exc
    if command not in ("queue", "thermal"):
        return config
    defaults = QueueGenConfig() if command == "queue" else ThermalGenConfig()
    generator = config.get("generator", {})
    step = generator.get("step", defaults.step)
    # both applications cycle once a day: day boundaries (changepoints)
    # and the daily schedules must fall on step boundaries
    if not _whole_multiple(DAY_MINUTES, step):
        raise InvalidParameterError(
            f"invalid {command} config: generator.step {step:g} does not divide "
            f"the {DAY_MINUTES:g}-minute day"
        )
    if command == "thermal":
        # the heater holds its decision on whole minutes of the record
        if not float(step).is_integer():
            raise InvalidParameterError(
                f"invalid thermal config: generator.step {step:g} is not a whole "
                f"number of minutes"
            )
        intervals = {"track_meas_every": config.get("track_meas_every")}
    else:
        intervals = {
            f"generator.{key}": generator.get(key)
            for key in ("train_meas_every", "test_meas_every")
        }
    for key, every in intervals.items():
        if every is not None and not _whole_multiple(every, step):
            raise InvalidParameterError(
                f"invalid {command} config: {key} {every:g} is not a multiple "
                f"of generator.step {step:g}"
            )
    return config


def _whole_multiple(value: float, step: float) -> bool:
    ratio = value / step
    return round(ratio) >= 1 and math.isclose(ratio, round(ratio), rel_tol=1e-9)


def load_config(command: str, path: str | Path | None) -> dict:
    if path is None:
        return validate_config(command, {})
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"config is not valid JSON: {exc}") from exc
    return validate_config(command, doc)
