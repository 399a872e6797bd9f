"""The synthetic generators are pinned bit for bit.

Every ndarray field of `QueueDataset` and `ThermalDataset` is hashed for a
few seeds and configs and compared with the recorded digests in
`generator_digests.json`.  Any change to the arithmetic of a generator,
however small, shows here; an intended change must re-record that file
(run this module as a script) and say why.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from eigenlfm.apps import queueing as qa
from eigenlfm.apps import thermal as ta

CONFIGS = {
    "queue-default": qa.QueueGenConfig(),
    "queue-cqm-omega": qa.QueueGenConfig(
        kind="quasi-cqm", omega_test=((0.0, 15.0), (300.0, 6.5), (720.0, 5.0))
    ),
    "queue-hart": qa.QueueGenConfig(kind="hart"),
    "thermal-default": ta.ThermalGenConfig(),
    "thermal-hart": ta.ThermalGenConfig(residual_kind="hart"),
    "thermal-cqm": ta.ThermalGenConfig(residual_kind="quasi-cqm"),
}
SEEDS = (0, 3, 7)
DIGESTS = Path(__file__).with_name("generator_digests.json")


def _digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def dataset_digests(name: str, seed: int) -> dict:
    config = CONFIGS[name]
    generate = qa.generate_queue_data if name.startswith("queue") else ta.generate_thermal_data
    dataset = generate(config, seed)
    return {
        f.name: _digest(getattr(dataset, f.name))
        for f in dataclasses.fields(dataset)
        if isinstance(getattr(dataset, f.name), np.ndarray)
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generator_output_is_bit_identical(name, seed):
    expected = json.loads(DIGESTS.read_text())[f"{name}-s{seed}"]
    assert dataset_digests(name, seed) == expected


if __name__ == "__main__":
    # prints the digests of the current generators in the layout of
    # generator_digests.json
    print(json.dumps(
        {f"{n}-s{s}": dataset_digests(n, s) for n in sorted(CONFIGS) for s in SEEDS},
        indent=1, sort_keys=True,
    ))
