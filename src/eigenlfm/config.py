"""JSON run-configuration schemas.

Every CLI command validates its configuration document before doing any
work; unknown keys are rejected so typos fail loudly.

The schemas are JSON Schema (Draft 2020-12) dicts, checked by a short walker
that implements only the keywords they use: `type`, `enum` and a local
`$ref` (into `$defs`); `properties`, `required` and `additionalProperties`;
`items`, `prefixItems`, `minItems`, `maxItems` and `uniqueItems`; `minimum`,
`maximum`, `exclusiveMinimum` and `exclusiveMaximum`.  Any other keyword raises
`NotImplementedError`, so a schema edit cannot be silently ignored.  The
walker reports the first violation it meets, as "<key path>: <message>" in
the wording of the reference Python validator (which the tests compare it
with), and is stricter than JSON Schema in two ways:

- `integer` admits only an int (as there, never a bool), not an integral
  float such as 1.0, which the code reading the value would refuse with a
  traceback;
- no number anywhere in the document may be NaN or infinite (`json.load`
  reads both), even under a key with no schema of its own.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

from .apps.queueing import QUEUE_METHODS, QueueGenConfig
from .apps.synth import DAY_MINUTES
from .apps.thermal import THERMAL_METHODS, ThermalGenConfig
from .errors import InvalidParameterError

__all__ = ["load_config", "validate_config", "SCHEMAS", "KEYWORDS"]

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
_LIST = {"type": "array", "minItems": 1, "uniqueItems": True}  # a repeated item would run twice
_DAY_MINUTE = {"type": "number", "minimum": 0, "exclusiveMaximum": DAY_MINUTES}
_DAY_HOUR = {"type": "number", "minimum": 0, "maximum": 24}

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
            "items": {  # [start minute in the test day, service rate]
                "type": "array",
                "prefixItems": [_DAY_MINUTE, _POSITIVE],
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
        "day_start_h": _DAY_HOUR,
        "day_end_h": _DAY_HOUR,
        "step": _POSITIVE,
        "obs_noise": _POSITIVE,
        "n_basis_points": {"type": "integer", "minimum": 2},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "residual_scale": _POSITIVE,
    },
    "additionalProperties": False,
}


def _app_schema(generator: dict, methods, **extra) -> dict:
    """The config of an application: the keys every application reads, and
    the `extra` ones of its own."""
    return {
        "type": "object",
        "properties": {
            "generator": generator,
            "methods": {**_LIST, "items": {"enum": list(methods)}},
            "seeds": {**_LIST, "items": {"type": "integer", "minimum": 0}},
            "budget": {"type": "integer", "minimum": 4},
            "restarts": {"type": "integer", "minimum": 1},
            "fit_seed": {"type": "integer", "minimum": 0},
            "data_dir": {"type": "string"},
            "params": {"type": "object", "additionalProperties": False,
                       "properties": {m: {"type": "object"} for m in methods}},
            **extra,
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
                "type": "array", "items": {"type": "integer", "minimum": 1}, "uniqueItems": True,
            },
        },
        "additionalProperties": False,
    },
    "queue": _app_schema(_QUEUE_GENERATOR, QUEUE_METHODS),
    "thermal": _app_schema(
        _THERMAL_GENERATOR, THERMAL_METHODS,
        n_particles={"type": "integer", "minimum": 1},
        envelope={"type": "boolean"},
        track_meas_every=_POSITIVE,
    ),
}


KEYWORDS = frozenset({
    "type", "enum", "$ref", "$defs", "properties", "required", "additionalProperties",
    "items", "prefixItems", "minItems", "maxItems", "uniqueItems",
    "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
})

_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "number": (int, float), "integer": int,
}


def _is(doc, name: str) -> bool:
    # a bool is an int to Python, but only a JSON boolean to the schema
    return isinstance(doc, _TYPES[name]) and (name == "boolean" or not isinstance(doc, bool))


_BOUNDS = {  # keyword: (test that fails the bound, message)
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _violation(doc, schema: dict, root: dict, path: tuple = ()) -> tuple[tuple, str] | None:
    """(key path, message) of the first place where `doc` breaks `schema`, or
    None; a `$ref` resolves against `root`."""
    unknown = schema.keys() - KEYWORDS
    if unknown:
        raise NotImplementedError(f"schema keyword(s) {sorted(unknown)} not implemented")
    if isinstance(doc, float) and not math.isfinite(doc):
        return path, f"{doc!r} is not a finite number"
    if "$ref" in schema:  # "#/$defs/<name>"
        found = _violation(doc, root["$defs"][schema["$ref"].removeprefix("#/$defs/")], root, path)
        if found:
            return found
    if "type" in schema and not _is(doc, schema["type"]):
        return path, f"{doc!r} is not of type {schema['type']!r}"
    if "enum" in schema and doc not in schema["enum"]:
        return path, f"{doc!r} is not one of {schema['enum']!r}"
    children = []
    if isinstance(doc, dict):
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        for key in schema.get("required", ()):
            if key not in doc:
                return path, f"{key!r} is a required property"
        unexpected = sorted(doc.keys() - properties.keys())
        if extra is False and unexpected:
            names = ", ".join(map(repr, unexpected))
            verb = "was" if len(unexpected) == 1 else "were"
            return path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        children = [(k, v, properties.get(k, extra)) for k, v in doc.items()]
    elif isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            return path, f"{doc!r} " + ("should be non-empty" if schema["minItems"] == 1
                                        else "is too short")
        if len(doc) > schema.get("maxItems", len(doc)):
            return path, f"{doc!r} is too long"
        keyed = [(isinstance(v, bool), v) for v in doc]  # to JSON, true is not 1
        if schema.get("uniqueItems") and any(v in keyed[:i] for i, v in enumerate(keyed)):
            return path, f"{doc!r} has non-unique elements"
        prefix = schema.get("prefixItems", [])
        items = schema.get("items", {})
        children = [(i, v, prefix[i] if i < len(prefix) else items) for i, v in enumerate(doc)]
    elif _is(doc, "number"):
        for key, (fails, text) in _BOUNDS.items():
            if key in schema and fails(doc, schema[key]):
                return path, f"{doc!r} is {text} of {schema[key]!r}"
    for key, value, sub in children:
        # a key with no schema of its own is still walked for non-finite numbers
        found = _violation(value, sub, root, (*path, key))
        if found:
            return found
    return None


def validate_config(command: str, config: dict) -> dict:
    if command not in SCHEMAS:
        raise InvalidParameterError(f"no schema for command {command!r}")
    found = _violation(config, SCHEMAS[command], SCHEMAS[command])
    if found:
        keys, message = found
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        where = f"{path[1:]}: " if path else ""  # the failing key, e.g. generator.step
        raise InvalidParameterError(f"invalid {command} config: {where}{message}")
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
