"""Command-line interface.

Commands: eigenbasis, compare-bases and one group per application of
`_APPS`, whose entry declares the group's subcommands and their help lines.
Every command is deterministic given the configuration document and seed at
a fixed BLAS thread count; the only nondeterministic output field is
runtime_ms in the metrics records.

The application subcommands share one seed worker, `_seed_work`; what
differs per application (generator settings, dataset generate/read/write,
fit, the scored pass of each subcommand, default methods) is looked up in
`_APPS`.  An option the config leaves out is not passed, so its default
lives only in the function called (the application's, `eb.build`,
`compare_linear_bases`).
"""

from __future__ import annotations

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
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              help="Worker processes for multi-seed runs.")
@click.pass_context
def main(ctx, config_path, seed, out_dir, jobs):
    """State-space inference for periodic latent force models."""
    ctx.obj = {
        "config_path": config_path,
        "seed": seed,
        "out": Path(out_dir),
        "jobs": jobs,
    }


@main.command("eigenbasis")
@click.pass_context
def cmd_eigenbasis(ctx):
    """Emit the eigenvalue spectrum and eigenfunction grids as CSV."""
    try:
        config = load_config("eigenbasis", ctx.obj["config_path"])
        kernel = kernels.kernel_from_config(config["kernel"])
        period = float(config["period"])
        basis = eb.build(
            kernel, int(config.get("n_points", 100)), period, **_given(config, {"gamma": "gamma"})
        )
        grid_cfg = config.get("grid", {"start": 0.0, "stop": period, "count": 256})
        grid = np.linspace(grid_cfg["start"], grid_cfg["stop"], grid_cfg["count"])
        phi = eb.eigenfunction_matrix(basis, grid)
    except _PKG_ERRORS as exc:
        _fail(str(exc))

    out = ctx.obj["out"]
    app_io.write_csv(
        out / "spectrum.csv", ["j", "mu_scaled"],
        [(int(j), f"{v:.12g}") for j, v in eb.spectrum_table(basis)],
    )
    header = ["t"] + [f"phi_{int(j) + 1}" for j in basis.selected]
    rows = [[f"{t:.10g}"] + [f"{v:.12g}" for v in row] for t, row in zip(grid, phi)]
    app_io.write_csv(out / "eigenfunctions.csv", header, rows)
    click.echo(f"wrote {basis.n_selected} eigenfunctions to {out}")


@main.command("compare-bases")
@click.pass_context
def cmd_compare_bases(ctx):
    """Eigenfunction vs sparse-spectrum comparison; emits a metrics CSV."""
    try:
        config = load_config("compare-bases", ctx.obj["config_path"])
        seed = ctx.obj["seed"] if ctx.obj["seed"] is not None else 0
        # the schema's keys are the function's keywords
        rows = compare_linear_bases(**config, seed=seed)
    except _PKG_ERRORS as exc:
        _fail(str(exc))

    out = ctx.obj["out"]
    app_io.write_csv(
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

    help: str             # the CLI group's help line
    gen_config: Callable  # **config["generator"] -> generator settings
    generate: Callable    # (settings, seed) -> dataset
    read: Callable        # (data_dir, settings) -> dataset
    write: Callable       # (directory, dataset)
    fit: Callable         # (dataset, method, config) -> FitResult
    # subcommand -> (help line, scored pass or None); a scored pass maps
    # (dataset, method, params, config, seed) -> scores
    commands: dict
    methods: tuple        # roster when the config names none


_APPS = {
    "queue": _App(
        help="Queue tracking with quasi-periodic arrival rates.",
        gen_config=_queue_config,
        generate=lambda gen, seed: queueing.generate_queue_data(gen, seed),
        read=lambda path, gen: app_io.read_queue_dataset(path, gen),
        write=lambda path, ds: app_io.write_queue_dataset(path, ds),
        fit=lambda ds, m, config: queueing.queue_fit(ds, m, **_given(config, _FIT_KEYS)),
        commands={
            "simulate": ("Write synthetic arrival/queue CSV datasets.", None),
            "fit": ("Fit hyperparameters; write one fit report per method.", None),
            "track": (
                "Fit, track the held-out day, and write metrics.",
                lambda ds, m, p, config, seed: queueing.queue_track(ds, m, p),
            ),
        },
        methods=("quasi-sqm", "hart"),
    ),
    "thermal": _App(
        help="Home-thermal tracking and day-ahead prediction.",
        gen_config=lambda **gen: thermal.ThermalGenConfig(**gen),
        generate=lambda gen, seed: thermal.generate_thermal_data(gen, seed),
        read=lambda path, gen: app_io.read_thermal_dataset(path, gen),
        write=lambda path, ds: app_io.write_thermal_dataset(path, ds),
        fit=lambda ds, m, config: thermal.thermal_fit(
            ds, m, **_given(config, {**_FIT_KEYS, **_ENVELOPE})
        ),
        commands={
            "simulate": ("Write a synthetic thermal CSV dataset.", None),
            "fit": ("Fit thermal and residual parameters; write fit reports.", None),
            "predict": (
                "Day-ahead prediction with the particle filter; write metrics.",
                lambda ds, m, p, config, seed: thermal.thermal_predict_day(
                    ds, m, p, seed=seed,
                    **_given(config, {"n_particles": "n_particles", **_ENVELOPE}),
                ),
            ),
            "track": (
                "Day-ahead tracking with sparse measurements; write metrics.",
                lambda ds, m, p, config, seed: thermal.thermal_track_day(
                    ds, m, p, **_given(config, {"track_meas_every": "measure_every", **_ENVELOPE})
                ),
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
        # the files, not the seed, made this dataset: tag it by its directory
        dataset = app.read(config["data_dir"], gen_config)
        tag = Path(config["data_dir"]).resolve().name
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
        result = app.commands[command][1](dataset, method, dict(params), config, seed)
        app_io.write_columns(
            out / f"{command}-{method}.csv", ["time_min", "pred_mean", "pred_var", "truth"],
            [result[k] for k in ("times", "mean", "var", "truth")],
        )
        records.append({
            "method": method, "dataset": tag, "day": dataset.config.days - 1,
            "rmse": result["rmse"], "ell": result["ell"], "n_basis": result["n_basis"],
            "runtime_ms": round(1000.0 * (time.perf_counter() - started), 3),
        })
    return records


def _run_seeds(app_name, config, ctx_obj, command) -> list[dict]:
    seeds = [ctx_obj["seed"]] if ctx_obj["seed"] is not None else config.get("seeds", [0])
    if "data_dir" in config and len(seeds) > 1:
        raise InvalidParameterError(f"data_dir holds one dataset, but seeds lists "
                                    f"{len(seeds)}: give one seed (or --seed)")
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
    # each record's CSV is written under `out`, so the directory exists
    (out / "metrics.json").write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {len(records)} metric records to {out / 'metrics.json'}")


def _register(app_name: str, app: _App) -> None:
    """Add the application's CLI group, with one subcommand per entry of
    `app.commands`, to `main`."""
    group = click.Group(app_name, help=app.help)
    for command, (help_line, _) in app.commands.items():
        group.add_command(click.Command(command, help=help_line, callback=click.pass_context(
            lambda ctx, command=command: _app_entry(ctx, app_name, command)
        )))
    main.add_command(group)


for _name, _app in _APPS.items():
    _register(_name, _app)


if __name__ == "__main__":
    main()
