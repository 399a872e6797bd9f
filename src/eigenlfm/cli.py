"""Command-line interface.

Subcommands: eigenbasis, compare-bases, queue simulate|fit|track, thermal
simulate|fit|predict|track.  Every command is deterministic given the
configuration document and seed; the only nondeterministic output field is
runtime_ms in the metrics records.

The queue and thermal commands share one seed worker, `_seed_work`; what
differs per application (generator settings, dataset generate/read/write,
fit, the scored pass of each command, default methods) is looked up in
`_APPS`.  A fit or pass option the config leaves out is not passed, so its
default lives only in the application function.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import eigenbasis as eb
from . import kernels
from .apps import io as app_io
from .apps import queueing, thermal
from .baselines.comparison import compare_linear_bases
from .config import load_config
from .errors import ContractViolationError, InvalidParameterError, NumericError

_PKG_ERRORS = (
    InvalidParameterError, ContractViolationError, NumericError, ValueError, KeyError, OSError,
)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON configuration document.")
@click.option("--seed", type=int, default=None, help="Override the config seeds.")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              help="Output directory.")
@click.option("--jobs", type=int, default=1, help="Worker processes for multi-seed runs.")
@click.pass_context
def main(ctx, config_path, seed, out_dir, jobs):
    """State-space inference for periodic latent force models."""
    ctx.obj = {
        "config_path": config_path,
        "seed": seed,
        "out": Path(out_dir),
        "jobs": max(1, jobs),
    }


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _seeds(ctx_obj, config) -> list[int]:
    if ctx_obj["seed"] is not None:
        return [ctx_obj["seed"]]
    return list(config.get("seeds", [0]))


@main.command("eigenbasis")
@click.pass_context
def cmd_eigenbasis(ctx):
    """Emit the eigenvalue spectrum and eigenfunction grids as CSV."""
    try:
        config = load_config("eigenbasis", ctx.obj["config_path"])
        if "kernel" not in config:
            raise InvalidParameterError("eigenbasis config requires a kernel")
        kernel = kernels.kernel_from_config(config["kernel"])
        period = float(config["period"])
        basis = eb.build(
            kernel,
            int(config.get("n_points", 100)),
            period,
            float(config.get("gamma", 0.01)),
        )
        grid_cfg = config.get("grid", {"start": 0.0, "stop": period, "count": 256})
        grid = np.linspace(grid_cfg["start"], grid_cfg["stop"], grid_cfg["count"])
        phi = eb.eigenfunction_matrix(basis, grid)
    except _PKG_ERRORS as exc:
        _fail(str(exc))

    out = ctx.obj["out"]
    _write_csv(
        out / "spectrum.csv", ["j", "mu_scaled"],
        [(int(j), f"{v:.12g}") for j, v in eb.spectrum_table(basis)],
    )
    header = ["t"] + [f"phi_{int(j) + 1}" for j in basis.selected]
    rows = [[f"{t:.10g}"] + [f"{v:.12g}" for v in row] for t, row in zip(grid, phi)]
    _write_csv(out / "eigenfunctions.csv", header, rows)
    click.echo(f"wrote {basis.n_selected} eigenfunctions to {out}")


@main.command("compare-bases")
@click.pass_context
def cmd_compare_bases(ctx):
    """Eigenfunction vs sparse-spectrum comparison; emits a metrics CSV."""
    try:
        config = load_config("compare-bases", ctx.obj["config_path"])
        seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else 0
        rows = compare_linear_bases(
            sigma=config.get("sigma", 1.0),
            ell=config.get("ell", 10.0),
            window=config.get("window", 120.0),
            n_points=config.get("n_points", 100),
            n_basis=config.get("n_basis", 22),
            n_draws=config.get("n_draws", 20),
            measure_every=config.get("measure_every", 10.0),
            noise=config.get("noise", 1e-10),
            grid_count=config.get("grid_count", 200),
            ssgpr_multipliers=tuple(config.get("ssgpr_multipliers", [1, 4])),
            seed=seed,
        )
    except _PKG_ERRORS as exc:
        _fail(str(exc))

    out = ctx.obj["out"]
    _write_csv(
        out / "compare_bases.csv",
        ["method", "basis_count", "max_cov_error", "rmse", "ell"],
        [
            (r["method"], r["basis_count"], f"{r['max_cov_error']:.12g}",
             f"{r['rmse']:.12g}", f"{r['ell']:.12g}")
            for r in rows
        ],
    )
    click.echo(f"wrote comparison for {len(rows)} methods to {out}")


# ---------------------------------------------------------------------------
# queue and thermal: one seed worker; what differs per application is in _APPS
# ---------------------------------------------------------------------------


def _queue_config(**gen) -> queueing.QueueGenConfig:
    if "omega_test" in gen:
        gen["omega_test"] = tuple(tuple(p) for p in gen["omega_test"])
    return queueing.QueueGenConfig(**gen)


def _given(config: dict, keys: dict) -> dict:
    """Keyword arguments for those `keys` (config key -> keyword) that the
    config sets; the called function's own default stands for the rest."""
    return {kw: config[key] for key, kw in keys.items() if key in config}


_FIT_KEYS = {"budget": "budget", "restarts": "restarts", "fit_seed": "seed"}
_ENVELOPE = {"envelope": "envelope"}


@dataclass(frozen=True)
class _App:
    """What differs per application.  Each function is a lambda that looks
    its target up on the module at call time, so a binding patched there (as
    bench/tracing.py does) is the one that runs."""

    gen_config: Callable  # **config["generator"] -> generator settings
    generate: Callable    # (settings, seed) -> dataset
    read: Callable        # (data_dir, settings) -> dataset
    write: Callable       # (directory, dataset)
    fit: Callable         # (dataset, method, config) -> FitResult
    passes: dict          # command -> (dataset, method, params, config, seed) -> scores
    methods: tuple        # roster when the config names none


_APPS = {
    "queue": _App(
        gen_config=_queue_config,
        generate=lambda gen, seed: queueing.generate_queue_data(gen, seed),
        read=lambda path, gen: app_io.read_queue_dataset(path, gen),
        write=lambda path, ds: app_io.write_queue_dataset(path, ds),
        fit=lambda ds, m, config: queueing.queue_fit(ds, m, **_given(config, _FIT_KEYS)),
        passes={"track": lambda ds, m, p, config, seed: queueing.queue_track(ds, m, p)},
        methods=("quasi-sqm", "hart"),
    ),
    "thermal": _App(
        gen_config=lambda **gen: thermal.ThermalGenConfig(**gen),
        generate=lambda gen, seed: thermal.generate_thermal_data(gen, seed),
        read=lambda path, gen: app_io.read_thermal_dataset(path, gen),
        write=lambda path, ds: app_io.write_thermal_dataset(path, ds),
        fit=lambda ds, m, config: thermal.thermal_fit(
            ds, m, **_given(config, {**_FIT_KEYS, **_ENVELOPE})
        ),
        passes={
            "track": lambda ds, m, p, config, seed: thermal.thermal_track_day(
                ds, m, p, **_given(config, {"track_meas_every": "measure_every", **_ENVELOPE})
            ),
            "predict": lambda ds, m, p, config, seed: thermal.thermal_predict_day(
                ds, m, p, seed=seed, **_given(config, {"n_particles": "n_particles", **_ENVELOPE})
            ),
        },
        methods=("quasi-sqm", "without", "hart"),
    ),
}


def _seed_work(args) -> list[dict]:
    """Simulate, fit or run a scored pass of every method on one dataset seed."""
    app_name, config, seed, out_str, command = args
    app = _APPS[app_name]
    gen_config = app.gen_config(**config.get("generator", {}))
    if "data_dir" in config:
        dataset = app.read(config["data_dir"], gen_config)
    else:
        dataset = app.generate(gen_config, seed)
    tag = f"{app_name}-s{seed}"
    out = Path(out_str) / tag
    if command == "simulate":
        app.write(out, dataset)
        return []
    records = []
    for method in config.get("methods", app.methods):
        started = time.perf_counter()
        params = config.get("params", {}).get(method)
        if params is None:
            fit = app.fit(dataset, method, config)
            params = fit.params
            out.mkdir(parents=True, exist_ok=True)
            (out / f"fit-{method}.json").write_text(fit.to_json() + "\n")
        if command == "fit":
            continue
        result = app.passes[command](dataset, method, dict(params), config, seed)
        columns = (result[k] for k in ("times", "mean", "var", "truth"))
        _write_csv(
            out / f"{command}-{method}.csv", ["time_min", "pred_mean", "pred_var", "truth"],
            [[f"{v:.10g}" for v in row] for row in zip(*columns)],
        )
        records.append({
            "method": method, "dataset": tag, "day": gen_config.days - 1,
            "rmse": result["rmse"], "ell": result["ell"], "n_basis": result["n_basis"],
            "runtime_ms": round(1000.0 * (time.perf_counter() - started), 3),
        })
    return records


def _run_seeds(app_name, config, ctx_obj, command) -> list[dict]:
    seeds = _seeds(ctx_obj, config)
    jobs = min(ctx_obj["jobs"], len(seeds))
    args = [(app_name, config, s, str(ctx_obj["out"]), command) for s in seeds]
    if jobs > 1:
        # imported here: the process pool costs about 65 ms of import time,
        # which a --jobs 1 run would pay for nothing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_seed_work, args))
    else:
        results = [_seed_work(a) for a in args]
    records = [r for chunk in results for r in chunk]
    return sorted(records, key=lambda r: (r["dataset"], r["method"]))


def _app_entry(ctx, app_name, command) -> None:
    """Run one application command over the config's seeds; write the
    metrics of a scored pass."""
    try:
        config = load_config(app_name, ctx.obj["config_path"])
        records = _run_seeds(app_name, config, ctx.obj, command)
    except _PKG_ERRORS as exc:
        _fail(str(exc))
    out = ctx.obj["out"]
    if not records:
        click.echo(f"outputs written to {out}")
        return
    for r in records:
        if not all(np.isfinite(v) for v in (r["rmse"], r["ell"])):
            _fail(f"non-finite metrics for {r['dataset']}/{r['method']}")
    _write_json(out / "metrics.json", records)
    click.echo(f"wrote {len(records)} metric records to {out / 'metrics.json'}")


@main.group()
def queue():
    """Queue tracking with quasi-periodic arrival rates."""


@queue.command("simulate")
@click.pass_context
def queue_simulate_cmd(ctx):
    """Write synthetic arrival/queue CSV datasets."""
    _app_entry(ctx, "queue", "simulate")


@queue.command("fit")
@click.pass_context
def queue_fit_cmd(ctx):
    """Fit hyperparameters; write one fit report per method."""
    _app_entry(ctx, "queue", "fit")


@queue.command("track")
@click.pass_context
def queue_track_cmd(ctx):
    """Fit, track the held-out day, and write metrics."""
    _app_entry(ctx, "queue", "track")


@main.group()
def thermal_group():
    """Home-thermal tracking and day-ahead prediction."""


main.add_command(thermal_group, name="thermal")


@thermal_group.command("simulate")
@click.pass_context
def thermal_simulate_cmd(ctx):
    """Write a synthetic thermal CSV dataset."""
    _app_entry(ctx, "thermal", "simulate")


@thermal_group.command("fit")
@click.pass_context
def thermal_fit_cmd(ctx):
    """Fit thermal and residual parameters; write fit reports."""
    _app_entry(ctx, "thermal", "fit")


@thermal_group.command("predict")
@click.pass_context
def thermal_predict_cmd(ctx):
    """Day-ahead prediction with the particle filter; write metrics."""
    _app_entry(ctx, "thermal", "predict")


@thermal_group.command("track")
@click.pass_context
def thermal_track_cmd(ctx):
    """Day-ahead tracking with sparse measurements; write metrics."""
    _app_entry(ctx, "thermal", "track")


if __name__ == "__main__":
    main()
