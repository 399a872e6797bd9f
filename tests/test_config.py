"""The config walker against jsonschema, the reference implementation of
JSON Schema (a test-only dependency): on seeded mutations of valid configs
both accept or both refuse, except where the walker is stricter on purpose."""

import copy
import json
import math
import random
from collections import Counter
from dataclasses import asdict

import jsonschema
import pytest

from eigenlfm.apps.queueing import QueueGenConfig
from eigenlfm.apps.thermal import ThermalGenConfig
from eigenlfm.config import KEYWORDS, SCHEMAS, _violation

# one valid document per command, holding every key its schema names
VALID = {
    "eigenbasis": {
        "kernel": {
            "variant": "product", "params": {},
            "left": {"variant": "periodic", "params": {"sigma": 1.0, "ell": 0.5}},
            "right": {"variant": "matern32", "params": {"sigma": 1.0, "ell": 100.0}},
        },
        "n_points": 50, "period": 1440.0, "gamma": 0.01,
        "grid": {"start": 0.0, "stop": 1440.0, "count": 10},
    },
    "compare-bases": {
        "sigma": 1.0, "ell": 0.5, "window": 10.0, "n_points": 100, "n_basis": 10,
        "n_draws": 5, "measure_every": 1.0, "noise": 0.01, "grid_count": 50,
        "ssgpr_multipliers": [1, 2],
    },
    "queue": {
        "generator": {**asdict(QueueGenConfig()), "omega_test": [[0.0, 15.0], [300, 5]]},
        "methods": ["quasi-sqm", "hart"], "seeds": [0, 1], "budget": 8, "restarts": 1,
        "fit_seed": 0, "data_dir": "data", "params": {"hart": {"sigma_obs": 0.5}},
    },
    "thermal": {
        "generator": asdict(ThermalGenConfig()),
        "methods": ["quasi-sqm", "without"], "seeds": [3], "budget": 8, "restarts": 1,
        "fit_seed": 0, "n_particles": 8, "envelope": True, "track_meas_every": 10.0,
        "data_dir": "data", "params": {"without": {"sigma_obs": 0.05}},
    },
}

# replacement values: the bounds the schemas use, every JSON type, and the
# floats that JSON Schema admits and the walker refuses
VALUES = [
    0, 1, 2, 4, -1, 24, 1440, 0.0, 0.5, 1.0, 2.0, -0.5, 24.0, 1440.0, 1e300,
    True, False, None, "x", "quasi-sqm", "hart", "product", [], [0.0, 1.0], [[0.0, 1.0]],
    {}, {"variant": "periodic"}, math.nan, math.inf, -math.inf,
]
NAMES = ["bogus", "variant", "params", "left", "step", "seeds", "kind", "count", "sigma"]


def _nodes(doc, path=()):
    """Key path of every value in `doc`, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _value(rng):
    roll = rng.random()
    if roll < 0.2:
        return rng.uniform(-10.0, 2000.0)
    if roll < 0.3:
        return rng.randint(-3, 3000)
    return copy.deepcopy(rng.choice(VALUES))


def _mutate(doc, rng):
    """`doc` with one to three random edits: a value replaced, a key or an
    item deleted, or a key or an item added."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_nodes(doc)))
        target = _at(doc, path)
        edit = rng.random()
        if not path and edit < 0.02:
            return _value(rng)
        if edit < 0.6 and path:
            _at(doc, path[:-1])[path[-1]] = _value(rng)
        elif edit < 0.75 and path:
            del _at(doc, path[:-1])[path[-1]]
        elif isinstance(target, dict):
            target[rng.choice(NAMES + list(target))] = _value(rng)
        elif isinstance(target, list):
            target.append(copy.deepcopy(rng.choice(target)) if target and edit < 0.9
                          else _value(rng))
    return doc


def _stricter(doc, found) -> str | None:
    """Which of its two deliberate differences from JSON Schema made the
    walker refuse `doc`: a NaN or an infinity anywhere, or an integral float
    where an integer goes; None for any other refusal."""
    path, message = found
    value = _at(doc, path)
    if not isinstance(value, float):
        return None
    if not math.isfinite(value):
        return "non-finite"
    return "integral float" if message.endswith("is not of type 'integer'") else None


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_walker_agrees_with_jsonschema(command):
    schema = SCHEMAS[command]
    reference = jsonschema.Draft202012Validator(schema)
    assert reference.is_valid(VALID[command])
    assert _violation(VALID[command], schema, schema) is None
    rng = random.Random(f"config-walker:{command}")
    refused, stricter, repeats = 0, Counter(), 0
    for _ in range(2000):
        doc = _mutate(VALID[command], rng)
        found = _violation(doc, schema, schema)
        if reference.is_valid(doc):
            if found:  # a document jsonschema admits is refused only on purpose
                kind = _stricter(doc, found)
                assert kind, (json.dumps(doc), found)
                stricter[kind] += 1
        else:
            assert found, json.dumps(doc)
            refused += 1
            repeats += found[1].endswith("has non-unique elements")
    # the corpus holds both kinds of document, and both stricter cases
    assert 200 < refused < 1800
    assert set(stricter) == {"non-finite", "integral float"}
    # a mutation that repeats an item of a uniqueItems list reaches that branch
    assert (repeats > 0) == (command != "eigenbasis")


@pytest.mark.parametrize("command, key, items", [
    ("queue", "methods", ["hart", "quasi-sqm", "hart"]),
    ("thermal", "seeds", [3, 3]),
    ("compare-bases", "ssgpr_multipliers", [2, 1, 2]),
])
def test_a_repeated_item_is_refused_in_the_reference_wording(command, key, items):
    schema = SCHEMAS[command]
    [error] = jsonschema.Draft202012Validator(schema).iter_errors({key: items})
    assert error.validator == "uniqueItems"
    assert _violation({key: items}, schema, schema) == ((key,), error.message)


@pytest.mark.parametrize("items", [[1, 1.0], [0, False], [1, True], [True, True], ["a", "a"]])
def test_unique_items_compare_as_json_values(items):
    # 1 and 1.0 are one JSON number, but a boolean equals only a boolean
    schema = {"type": "array", "uniqueItems": True}
    found = _violation(items, schema, schema)
    assert (found is None) == jsonschema.Draft202012Validator(schema).is_valid(items)


def _keywords(schema: dict) -> set[str]:
    """Every keyword of every schema node under `schema`."""
    found = set(schema)
    subs = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
            *schema.get("prefixItems", [])]
    subs += [schema[k] for k in ("items", "additionalProperties")
             if isinstance(schema.get(k), dict)]
    for sub in subs:
        found |= _keywords(sub)
    return found


def test_the_walker_implements_exactly_the_keywords_the_schemas_use():
    # a keyword no schema uses is code to delete; one the walker lacks raises
    assert set().union(*map(_keywords, SCHEMAS.values())) == KEYWORDS
    with pytest.raises(NotImplementedError, match="pattern"):
        _violation("x", {"type": "string", "pattern": "^y"}, {})
    nested = {"properties": {"name": {"type": "string", "pattern": "^y"}}}
    assert _violation({}, nested, nested) is None  # raised when a document reaches it
    with pytest.raises(NotImplementedError, match="pattern"):
        _violation({"name": "x"}, nested, nested)
