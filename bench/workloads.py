"""Benchmark workloads: CLI configurations with fixed hyperparameters.

Every method runs with fixed hyperparameters inside its `_param_space`
bounds, so no Nelder-Mead path enters the timings. A workload seed picks the
dataset seed from a pool of `POOL_SIZE` seeds whose held-out-day rmse/ell
were recorded when the benchmark was added (`references.json`), so every run
can be checked against a stored reference.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

POOL_SIZE = 64
# Outputs must match the stored references to this relative tolerance
# (absolute below magnitude 1); later engine rewrites are gated at 1e-9.
REL_TOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references.json"

_QUEUE_BASE = {"sigma_obs": 0.5}
_QUEUE_PERIODIC = {"sigma_obs": 0.5, "sigma_p": 1.2, "ell_p": 0.5}  # J = 19
QUEUE_PARAMS = {
    "hart": {**_QUEUE_BASE, "sigma_f": 1.2, "ell_f": 120.0},
    "with": dict(_QUEUE_PERIODIC),
    "quasi-sqm": {**_QUEUE_PERIODIC, "ell_q": 2.0},
    "quasi-cqm": {**_QUEUE_PERIODIC, "ell_q": 2.0},
    "quasi-wqm": {**_QUEUE_PERIODIC, "xi": 4.0},
}

_THERMAL_BASE = {
    "alpha": 0.01, "beta": 0.12, "sigma_ext": 2.0, "ell_ext": 1200.0, "sigma_obs": 0.05,
}
_THERMAL_PERIODIC = {**_THERMAL_BASE, "sigma_r": 2.0, "ell_r": 0.4}  # J = 25
THERMAL_PARAMS = {
    "with": dict(_THERMAL_PERIODIC),
    "without": dict(_THERMAL_BASE),
    "quasi-sqm": {**_THERMAL_PERIODIC, "ell_q": 3.0},
    "quasi-cqm": {**_THERMAL_PERIODIC, "ell_q": 3.0},
    "quasi-wqm": {**_THERMAL_PERIODIC, "xi": 1.0},
    "hart": {**_THERMAL_BASE, "sigma_r": 2.0, "ell_r_min": 120.0},
    "resonator": {
        **_THERMAL_BASE, "decay": 1e-4, "diffusion": 1e-7,
        **{f"freq_{j}": (j + 1.0) / 1440.0 for j in range(6)},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    app: str                  # CLI group: "queue" or "thermal"
    command: str              # CLI subcommand
    methods: tuple[str, ...]
    params: dict
    options: dict = field(default_factory=dict)  # extra top-level config keys
    # small generator used by the quick mode (seconds, not minutes)
    quick_generator: dict = field(default_factory=dict)
    quick_options: dict = field(default_factory=dict)

    def dataset_seeds(self, seed: int) -> list[int]:
        """Dataset seeds of one pass, derived from the workload seed."""
        return [random.Random(f"{self.name}:{seed}").randrange(POOL_SIZE)]

    def config(self, dataset_seeds: list[int], quick: bool = False) -> dict:
        cfg = {
            "methods": list(self.methods),
            "seeds": list(dataset_seeds),
            "params": {m: self.params[m] for m in self.methods},
            **self.options,
        }
        if quick:
            cfg["generator"] = dict(self.quick_generator)
            cfg.update(self.quick_options)
        return cfg

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        return ["--config", str(config_path), "--out", str(out_dir), "--jobs", "1",
                self.app, self.command]

    def items(self, dataset_seeds: list[int]) -> list[tuple[str, str]]:
        """(dataset tag, method) pairs one pass must produce."""
        return [(f"{self.app}-s{s}", m) for s in dataset_seeds for m in self.methods]


WORKLOADS = {
    w.name: w
    for w in (
        # 4 days at a 2-minute step: kernel and eigenfunction rows, the queue's
        # own specialized filter and the RK4 generator; no Van Loan, no RBPF
        Workload(
            "queue-track", "queue", "track",
            ("hart", "with", "quasi-sqm", "quasi-cqm", "quasi-wqm"), QUEUE_PARAMS,
            quick_generator={"days": 2, "step": 4.0},
        ),
        # 5 days at a 10-minute step: dense predict, 2-dim Joseph update at every
        # training step, constant-weight transitions and per-step Van Loan (cqm)
        Workload(
            "thermal-track", "thermal", "track",
            ("with", "without", "quasi-sqm", "quasi-cqm", "quasi-wqm", "hart", "resonator"),
            THERMAL_PARAMS,
            quick_generator={"days": 2},
        ),
        # day-ahead RBPF over a bank of 2048 particle means; at the CLI default
        # of 64 particles the RBPF would be noise next to the training pass
        Workload(
            "thermal-predict", "thermal", "predict",
            ("with", "quasi-sqm", "quasi-cqm", "hart"), THERMAL_PARAMS,
            options={"n_particles": 2048},
            quick_generator={"days": 2},
            quick_options={"n_particles": 32},
        ),
    )
}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def check_record(record: dict | None, reference: dict | None) -> str | None:
    """Why one (dataset, method) output is wrong, or None when it is right."""
    if record is None:
        return "missing from metrics.json"
    values = {k: record.get(k) for k in ("rmse", "ell")}
    for key, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"non-finite {key}: {value!r}"
    if reference is None:
        return "no stored reference"
    for key, value in values.items():
        ref = reference[key]
        if abs(value - ref) > REL_TOL * max(1.0, abs(ref)):
            return f"{key} {value!r} differs from reference {ref!r}"
    return None
