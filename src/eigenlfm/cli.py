"""Command-line interface.

Subcommands: eigenbasis, compare-bases, queue simulate|fit|track, thermal
simulate|fit|predict|track.  Every command is deterministic given the
configuration document and seed; the only nondeterministic output field is
runtime_ms in the metrics records.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

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
# queue
# ---------------------------------------------------------------------------


def _queue_config(config) -> queueing.QueueGenConfig:
    gen = dict(config.get("generator", {}))
    if "omega_test" in gen:
        gen["omega_test"] = tuple(tuple(p) for p in gen["omega_test"])
    return queueing.QueueGenConfig(**gen)


def _queue_dataset(config, gen_config, seed):
    if "data_dir" in config:
        return app_io.read_queue_dataset(config["data_dir"], gen_config)
    return queueing.generate_queue_data(gen_config, seed)


def _queue_seed_work(args) -> list[dict]:
    config, seed, out_str, command = args
    out = Path(out_str)
    gen_config = _queue_config(config)
    dataset = _queue_dataset(config, gen_config, seed)
    tag = f"queue-s{seed}"
    if command == "simulate":
        app_io.write_queue_dataset(out / tag, dataset)
        return []
    records = []
    for method in config.get("methods", ["quasi-sqm", "hart"]):
        started = time.perf_counter()
        given = config.get("params", {}).get(method)
        if given is None:
            fit = queueing.queue_fit(
                dataset, method,
                budget=config.get("budget", 60),
                seed=config.get("fit_seed", 0),
                restarts=config.get("restarts", 1),
            )
            params = fit.params
            (out / tag).mkdir(parents=True, exist_ok=True)
            (out / tag / f"fit-{method}.json").write_text(fit.to_json() + "\n")
        else:
            params = dict(given)
        if command == "fit":
            continue
        result = queueing.queue_track(dataset, method, params)
        _write_csv(
            out / tag / f"track-{method}.csv",
            ["time_min", "pred_mean", "pred_var", "truth"],
            [
                (f"{t:.10g}", f"{m:.10g}", f"{v:.10g}", f"{tr:.10g}")
                for t, m, v, tr in zip(
                    result["pred_times"], result["pred_mean"], result["pred_var"],
                    np.interp(result["pred_times"], dataset.times,
                              dataset.truth_queue),
                )
            ],
        )
        records.append({
            "method": method,
            "dataset": tag,
            "day": gen_config.days - 1,
            "rmse": result["rmse"],
            "ell": result["ell"],
            "n_basis": result["n_basis"],
            "runtime_ms": round(1000.0 * (time.perf_counter() - started), 3),
        })
    return records


def _run_seeds(work_fn, config, ctx_obj, command) -> list[dict]:
    seeds = _seeds(ctx_obj, config)
    jobs = min(ctx_obj["jobs"], len(seeds))
    args = [(config, s, str(ctx_obj["out"]), command) for s in seeds]
    if jobs > 1:
        # imported here: the process pool costs about 65 ms of import time,
        # which a --jobs 1 run would pay for nothing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work_fn, args))
    else:
        results = [work_fn(a) for a in args]
    records = [r for chunk in results for r in chunk]
    return sorted(records, key=lambda r: (r["dataset"], r["method"]))


def _finish_metrics(ctx, records) -> None:
    out = ctx.obj["out"]
    if records:
        for r in records:
            if not all(np.isfinite(v) for v in (r["rmse"], r["ell"])):
                _fail(f"non-finite metrics for {r['dataset']}/{r['method']}")
        _write_json(out / "metrics.json", records)
        click.echo(f"wrote {len(records)} metric records to {out / 'metrics.json'}")
    else:
        click.echo(f"outputs written to {out}")


@main.group()
def queue():
    """Queue tracking with quasi-periodic arrival rates."""


def _queue_entry(ctx, command):
    try:
        config = load_config("queue", ctx.obj["config_path"])
        records = _run_seeds(_queue_seed_work, config, ctx.obj, command)
    except _PKG_ERRORS as exc:
        _fail(str(exc))
    _finish_metrics(ctx, records)


@queue.command("simulate")
@click.pass_context
def queue_simulate_cmd(ctx):
    """Write synthetic arrival/queue CSV datasets."""
    _queue_entry(ctx, "simulate")


@queue.command("fit")
@click.pass_context
def queue_fit_cmd(ctx):
    """Fit hyperparameters; write one fit report per method."""
    _queue_entry(ctx, "fit")


@queue.command("track")
@click.pass_context
def queue_track_cmd(ctx):
    """Fit, track the held-out day, and write metrics."""
    _queue_entry(ctx, "track")


# ---------------------------------------------------------------------------
# thermal
# ---------------------------------------------------------------------------


def _thermal_seed_work(args) -> list[dict]:
    config, seed, out_str, command = args
    out = Path(out_str)
    gen_config = thermal.ThermalGenConfig(**config.get("generator", {}))
    if "data_dir" in config:
        dataset = app_io.read_thermal_dataset(config["data_dir"], gen_config)
    else:
        dataset = thermal.generate_thermal_data(gen_config, seed)
    tag = f"thermal-s{seed}"
    if command == "simulate":
        app_io.write_thermal_dataset(out / tag, dataset)
        return []
    envelope = bool(config.get("envelope", False))
    records = []
    for method in config.get("methods", ["quasi-sqm", "without", "hart"]):
        started = time.perf_counter()
        given = config.get("params", {}).get(method)
        if given is None:
            fit = thermal.thermal_fit(
                dataset, method,
                budget=config.get("budget", 120),
                seed=config.get("fit_seed", 0),
                restarts=config.get("restarts", 1),
                envelope=envelope,
            )
            params = fit.params
            (out / tag).mkdir(parents=True, exist_ok=True)
            (out / tag / f"fit-{method}.json").write_text(fit.to_json() + "\n")
        else:
            params = dict(given)
        if command == "fit":
            continue
        if command == "predict":
            result = thermal.thermal_predict_day(
                dataset, method, params,
                n_particles=config.get("n_particles", 64),
                seed=seed, envelope=envelope,
            )
        else:
            result = thermal.thermal_track_day(
                dataset, method, params,
                measure_every=config.get("track_meas_every", 100.0),
                envelope=envelope,
            )
        _write_csv(
            out / tag / f"{command}-{method}.csv",
            ["time_min", "pred_mean", "pred_var", "truth"],
            [
                (f"{t:.10g}", f"{m:.10g}", f"{v:.10g}", f"{tr:.10g}")
                for t, m, v, tr in zip(
                    result["times"], result["mean"], result["var"],
                    np.interp(result["times"], dataset.minutes, dataset.t_int),
                )
            ],
        )
        records.append({
            "method": method,
            "dataset": tag,
            "day": gen_config.days - 1,
            "rmse": result["rmse"],
            "ell": result["ell"],
            "n_basis": result["n_basis"],
            "runtime_ms": round(1000.0 * (time.perf_counter() - started), 3),
        })
    return records


@main.group()
def thermal_group():
    """Home-thermal tracking and day-ahead prediction."""


main.add_command(thermal_group, name="thermal")


def _thermal_entry(ctx, command):
    try:
        config = load_config("thermal", ctx.obj["config_path"])
        records = _run_seeds(_thermal_seed_work, config, ctx.obj, command)
    except _PKG_ERRORS as exc:
        _fail(str(exc))
    _finish_metrics(ctx, records)


@thermal_group.command("simulate")
@click.pass_context
def thermal_simulate_cmd(ctx):
    """Write a synthetic thermal CSV dataset."""
    _thermal_entry(ctx, "simulate")


@thermal_group.command("fit")
@click.pass_context
def thermal_fit_cmd(ctx):
    """Fit thermal and residual parameters; write fit reports."""
    _thermal_entry(ctx, "fit")


@thermal_group.command("predict")
@click.pass_context
def thermal_predict_cmd(ctx):
    """Day-ahead prediction with the particle filter; write metrics."""
    _thermal_entry(ctx, "predict")


@thermal_group.command("track")
@click.pass_context
def thermal_track_cmd(ctx):
    """Day-ahead tracking with sparse measurements; write metrics."""
    _thermal_entry(ctx, "track")


if __name__ == "__main__":
    main()
