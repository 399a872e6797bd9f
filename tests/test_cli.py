import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from eigenlfm.cli import main
from eigenlfm.config import validate_config
from eigenlfm.errors import InvalidParameterError

_THERMAL_BASE = {
    "alpha": 0.01, "beta": 0.12, "sigma_ext": 2.0, "ell_ext": 1200.0, "sigma_obs": 0.05,
}
QUEUE_CONFIG = {
    "generator": {"days": 2, "step": 4.0},
    "methods": ["quasi-sqm", "hart"],
    "seeds": [0, 1],
    "params": {
        "quasi-sqm": {"sigma_obs": 0.5, "sigma_p": 1.2, "ell_p": 0.5, "ell_q": 2.0},
        "hart": {"sigma_obs": 0.5, "sigma_f": 1.2, "ell_f": 120.0},
    },
}
THERMAL_CONFIG = {
    "generator": {"days": 2},
    "methods": ["quasi-sqm", "without"],
    "seeds": [0, 1],
    "n_particles": 8,
    "params": {
        "quasi-sqm": {**_THERMAL_BASE, "sigma_r": 2.0, "ell_r": 0.4, "ell_q": 3.0},
        "without": dict(_THERMAL_BASE),
    },
}


def _invoke(tmp_path, config, *args):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(path), "--out", str(out), *args])
    return result, out


@pytest.mark.parametrize(
    "config, command",
    [(QUEUE_CONFIG, ["queue", "track"]), (THERMAL_CONFIG, ["thermal", "predict"])],
)
def test_metrics_do_not_depend_on_jobs(tmp_path, config, command):
    metrics = []
    for jobs in ("1", "2"):
        result, out = _invoke(tmp_path / jobs, config, "--jobs", jobs, *command)
        assert result.exit_code == 0, result.output
        records = json.loads((out / "metrics.json").read_text())
        for r in records:
            del r["runtime_ms"]
        metrics.append(records)
    assert len(metrics[0]) == 4  # two seeds x two methods
    assert metrics[0] == metrics[1]


@pytest.mark.parametrize("app", ["queue", "thermal"])
def test_step_must_divide_the_day(tmp_path, app):
    config = {"generator": {"days": 2, "step": 7.0}}
    result, _ = _invoke(tmp_path, config, app, "track")
    assert result.exit_code == 1
    assert "generator.step" in result.output
    with pytest.raises(InvalidParameterError, match="generator.step"):
        validate_config(app, config)
    assert validate_config(app, {"generator": {"step": 8.0}})


@pytest.mark.parametrize(
    "config, command, method",
    [
        (QUEUE_CONFIG, ["queue", "track"], "hart"),
        (THERMAL_CONFIG, ["thermal", "track"], "quasi-sqm"),
    ],
)
def test_params_missing_a_key_fail_with_its_name(tmp_path, config, command, method):
    params = {m: dict(p) for m, p in config["params"].items()}
    del params[method]["sigma_obs"]
    result, _ = _invoke(tmp_path, {**config, "seeds": [0], "params": params}, *command)
    assert result.exit_code == 1
    assert f"params for method '{method}' lack sigma_obs" in result.output


def _fails_cleanly(result, text):
    # a package error ends in one "error: ..." line and exit 1, not a traceback
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error:" in result.output and text in result.output


@pytest.mark.parametrize(
    "config, command, text",
    [
        ({**QUEUE_CONFIG, "generator": {"days": 2, "step": 4.0, "gamma": 0.0005}},
         ["queue", "track"], "periodic roster exceeded 30 basis functions"),
        ({**THERMAL_CONFIG, "generator": {"days": 2, "gamma": 0.0005}},
         ["thermal", "track"], "periodic roster exceeded 30 basis functions"),
        ({**THERMAL_CONFIG, "params": {
            **THERMAL_CONFIG["params"],
            "quasi-sqm": {**THERMAL_CONFIG["params"]["quasi-sqm"], "ell_r": 0.1}}},
         ["thermal", "track"], "ell_r = 0.1 lies outside [0.35, 1.5]"),
    ],
)
def test_package_errors_end_in_an_error_line(tmp_path, config, command, text):
    result, _ = _invoke(tmp_path, {**config, "seeds": [0]}, *command)
    _fails_cleanly(result, text)


def test_track_meas_every_must_be_a_multiple_of_the_step(tmp_path):
    result, _ = _invoke(tmp_path, {**THERMAL_CONFIG, "track_meas_every": 25.0},
                        "thermal", "track")
    _fails_cleanly(result, "track_meas_every 25 is not a multiple of generator.step 10")


def test_thermal_step_must_be_whole_minutes(tmp_path):
    # 7.5 divides the day, but the heater holds on whole minutes of the record
    config = {**THERMAL_CONFIG, "generator": {"days": 2, "step": 7.5},
              "track_meas_every": 15.0}
    result, _ = _invoke(tmp_path, config, "thermal", "track")
    _fails_cleanly(result, "generator.step 7.5 is not a whole number of minutes")
    with pytest.raises(InvalidParameterError, match="generator.step"):
        validate_config("thermal", config)
    assert validate_config("queue", {"generator": {"step": 7.5}})


def test_queue_meas_every_must_be_a_multiple_of_the_step(tmp_path):
    for key in ("train_meas_every", "test_meas_every"):
        generator = {"days": 2, "step": 8.0, key: 180.0}
        result, _ = _invoke(tmp_path / key, {**QUEUE_CONFIG, "generator": generator},
                            "queue", "track")
        _fails_cleanly(result, f"generator.{key} 180 is not a multiple of generator.step 8")
        with pytest.raises(InvalidParameterError, match=f"generator.{key}"):
            validate_config("queue", {"generator": generator})
    # left at its default, the off-grid interval fails in the pass
    result, _ = _invoke(tmp_path / "default", {**QUEUE_CONFIG, "generator": {"days": 2, "step": 8.0}},
                        "queue", "track")
    _fails_cleanly(result, "measurement at 1620 is not on the step grid")


def test_eigenbasis_writes_spectrum_and_eigenfunctions(tmp_path):
    config = {
        "kernel": {"variant": "periodic_matern",
                   "params": {"nu": 0.5, "sigma": 1.0, "ell": 0.5, "period": 24.0}},
        "period": 24.0,
        "n_points": 40,
        "grid": {"start": 0.0, "stop": 24.0, "count": 9},
    }
    result, out = _invoke(tmp_path, config, "eigenbasis")
    assert result.exit_code == 0, result.output
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    grid = (out / "eigenfunctions.csv").read_text().splitlines()
    assert spectrum[0] == "j,mu_scaled" and len(spectrum) > 2
    assert len(grid) == 10 and len(grid[0].split(",")) == len(spectrum)


def test_compare_bases_writes_one_row_per_method(tmp_path):
    config = {"n_points": 40, "n_basis": 6, "n_draws": 2, "grid_count": 60,
              "ssgpr_multipliers": [1]}
    result, out = _invoke(tmp_path, config, "compare-bases")
    assert result.exit_code == 0, result.output
    rows = (out / "compare_bases.csv").read_text().splitlines()
    assert rows[0] == "method,basis_count,max_cov_error,rmse,ell"
    assert len(rows) >= 3


@pytest.mark.parametrize(
    "app, files",
    [
        ("queue", ["arrivals.csv", "queue_truth.csv", "queue_meas.csv"]),
        ("thermal", ["thermal.csv", "thermal_meas.csv"]),
    ],
)
def test_simulate_writes_the_dataset(tmp_path, app, files):
    config = {"generator": {"days": 2}, "seeds": [3]}
    result, out = _invoke(tmp_path, config, app, "simulate")
    assert result.exit_code == 0, result.output
    for name in files:
        assert len((out / f"{app}-s3" / name).read_text().splitlines()) > 2


@pytest.mark.parametrize(
    "config, app, method",
    [(QUEUE_CONFIG, "queue", "hart"), (THERMAL_CONFIG, "thermal", "without")],
)
def test_fit_writes_a_fit_report(tmp_path, config, app, method):
    fit_config = {"generator": config["generator"], "methods": [method], "seeds": [0],
                  "budget": 8}
    result, out = _invoke(tmp_path, fit_config, app, "fit")
    assert result.exit_code == 0, result.output
    report = json.loads((out / f"{app}-s0" / f"fit-{method}.json").read_text())
    assert report["evaluations"] <= 8
    assert set(config["params"][method]) == set(report["params"])
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("config, app", [(QUEUE_CONFIG, "queue"), (THERMAL_CONFIG, "thermal")])
def test_track_reads_a_simulated_data_dir(tmp_path, config, app):
    # tracking the simulated CSV files scores as tracking the generated data,
    # up to the 10 significant digits the files keep
    config = {**config, "seeds": [0]}
    result, sim = _invoke(tmp_path / "simulate", config, app, "simulate")
    assert result.exit_code == 0, result.output
    runs = []
    for name, cfg in [("generated", config),
                      ("read", {**config, "data_dir": str(sim / f"{app}-s0")})]:
        result, out = _invoke(tmp_path / name, cfg, app, "track")
        assert result.exit_code == 0, result.output
        runs.append(json.loads((out / "metrics.json").read_text()))
    generated, read = runs
    assert len(generated) == len(read) == 2
    for a, b in zip(generated, read):
        for key in ("rmse", "ell"):
            assert b.pop(key) == pytest.approx(a.pop(key), rel=1e-8)
        del a["runtime_ms"], b["runtime_ms"]
        assert a == b


def test_cli_import_leaves_out_the_optimizer_and_the_process_pool():
    # only a fit needs scipy.optimize and only --jobs > 1 a process pool;
    # neither may cost every command its import time
    probe = (
        "import sys, eigenlfm.cli; "
        "print([m for m in ('scipy.optimize', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
