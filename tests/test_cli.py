import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from eigenlfm.apps.io import write_queue_dataset, write_thermal_dataset
from eigenlfm.apps.queueing import QueueGenConfig, generate_queue_data
from eigenlfm.apps.thermal import ThermalGenConfig, generate_thermal_data
from eigenlfm.cli import _APPS, main
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_fail_and_name_the_option(tmp_path, jobs):
    # a worker count below 1 used to run one worker without a word
    result, out = _invoke(tmp_path, {**QUEUE_CONFIG, "seeds": [0]}, "--jobs", jobs,
                          "queue", "track")
    assert result.exit_code == 2, result.output
    assert "--jobs" in result.output
    assert not out.exists()


@pytest.mark.parametrize("app", ["queue", "thermal"])
def test_step_must_divide_the_day(tmp_path, app):
    config = {"generator": {"days": 2, "step": 7.0}}
    result, _ = _invoke(tmp_path, config, app, "track")
    assert result.exit_code == 1
    assert "generator.step" in result.output
    with pytest.raises(InvalidParameterError, match="generator.step"):
        validate_config(app, config)
    assert validate_config(app, {"generator": {"step": 8.0}})


@pytest.mark.parametrize("rate", [0.0, -5.0])
def test_queue_service_rates_must_be_positive(rate):
    assert validate_config("queue", {"generator": {"omega_test": [[0.0, 15.0], [300.0, 5.0]]}})
    with pytest.raises(InvalidParameterError, match="less than or equal to the minimum of 0"):
        validate_config("queue", {"generator": {"omega_test": [[0.0, 15.0], [300.0, rate]]}})


def test_schema_errors_name_the_failing_key():
    with pytest.raises(InvalidParameterError) as info:
        validate_config("queue", {"generator": {"omega_test": [[0, 15], [300, 0]]}})
    assert str(info.value) == (
        "invalid queue config: generator.omega_test[1][1]: 0 is less than or equal to "
        "the minimum of 0"
    )
    # a violation of the top-level object has no key to name
    with pytest.raises(InvalidParameterError, match=r"config: Additional properties"):
        validate_config("queue", {"bogus": 1})


@pytest.mark.parametrize(
    "config, command, text",
    [
        ({**QUEUE_CONFIG, "seeds": [1.0]}, ["queue", "track"],
         "invalid queue config: seeds[0]: 1.0 is not of type 'integer'"),
        ({**THERMAL_CONFIG, "seeds": [0], "n_particles": 8.0}, ["thermal", "predict"],
         "invalid thermal config: n_particles: 8.0 is not of type 'integer'"),
    ],
    ids=["seeds", "n-particles"],
)
def test_integer_keys_refuse_integral_floats(tmp_path, config, command, text):
    # JSON Schema's integer admits 1.0, which the seed sequence and the
    # particle bank then refused with a traceback
    result, out = _invoke(tmp_path, config, *command)
    _fails_cleanly(result, text)
    assert not out.exists()


@pytest.mark.parametrize(
    "patch, text",
    [
        ({"generator": {"days": 2, "step": math.nan}}, "generator.step: nan"),
        ({"generator": {"days": 2, "step": 4.0, "obs_noise": math.nan}},
         "generator.obs_noise: nan"),
        ({"generator": {"days": 2, "step": 4.0, "mean_peak": math.inf}},
         "generator.mean_peak: inf"),
        # a key with no schema of its own is walked too
        ({"params": {**QUEUE_CONFIG["params"],
                     "hart": {**QUEUE_CONFIG["params"]["hart"], "sigma_obs": -math.inf}}},
         "params.hart.sigma_obs: -inf"),
    ],
    ids=["step", "obs-noise", "mean-peak", "params"],
)
def test_non_finite_numbers_are_refused_by_key(tmp_path, patch, text):
    # json reads NaN and Infinity; in the generator they used to fail later,
    # under another key's name or under none
    result, out = _invoke(tmp_path, {**QUEUE_CONFIG, "seeds": [0], **patch}, "queue", "track")
    _fails_cleanly(result, f"invalid queue config: {text} is not a finite number")
    assert not out.exists()


@pytest.mark.parametrize(
    "app, generator, key",
    [
        ("queue", {"omega_test": [[2000, 40]]}, "generator.omega_test[0][0]"),
        ("queue", {"omega_test": [[-1, 40]]}, "generator.omega_test[0][0]"),
        ("thermal", {"day_start_h": 25}, "generator.day_start_h"),
        ("thermal", {"day_end_h": -2}, "generator.day_end_h"),
    ],
    ids=["omega-start-late", "omega-start-negative", "day-start", "day-end"],
)
def test_in_day_values_must_lie_in_the_day(app, generator, key):
    with pytest.raises(InvalidParameterError, match=re.escape(f"invalid {app} config: {key}: ")):
        validate_config(app, {"generator": generator})


def test_thermal_day_hours_must_be_in_order(tmp_path):
    # each hour lies in the day, but the day would end before it starts
    config = {**THERMAL_CONFIG, "generator": {"days": 2, "day_start_h": 23, "day_end_h": 6}}
    result, _ = _invoke(tmp_path, {**config, "seeds": [0]}, "thermal", "track")
    _fails_cleanly(result, "day_start_h 23 and day_end_h 6 must satisfy")


def test_fit_budget_error_names_its_numbers(tmp_path):
    # the schema admits budget 8, but a 13-parameter fit needs 15 evaluations
    config = {**THERMAL_CONFIG, "methods": ["resonator"], "seeds": [0], "budget": 8}
    result, _ = _invoke(tmp_path, config, "thermal", "fit")
    _fails_cleanly(
        result,
        "budget 8 is below 15 = 13 parameters (alpha, beta, sigma_ext, ell_ext, sigma_obs, "
        "decay, diffusion, freq_0, freq_1, freq_2, freq_3, freq_4, freq_5) + 2",
    )


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
        ({**QUEUE_CONFIG, "params": {
            **QUEUE_CONFIG["params"],
            "hart": {**QUEUE_CONFIG["params"]["hart"], "sigma_obs": True}}},
         ["queue", "track"],
         "params for method 'hart': sigma_obs = True is a bool, not a real number"),
        ({**QUEUE_CONFIG, "params": {
            **QUEUE_CONFIG["params"],
            "hart": {**QUEUE_CONFIG["params"]["hart"], "sigma_obs": "0.5"}}},
         ["queue", "track"],
         "params for method 'hart': sigma_obs = '0.5' is a str, not a real number"),
        # a name the method does not have used to pass without a word
        ({**QUEUE_CONFIG, "params": {
            **QUEUE_CONFIG["params"],
            "hart": {**QUEUE_CONFIG["params"]["hart"], "bogus": 3}}},
         ["queue", "track"],
         "params for method 'hart' name bogus, which it does not have; its parameters are "
         "sigma_obs, sigma_f, ell_f"),
        # params under a name that is not a method would be ignored, and the
        # method fitted instead
        ({**QUEUE_CONFIG, "methods": ["hart"],
          "params": {"Hart": QUEUE_CONFIG["params"]["hart"]}},
         ["queue", "track"],
         "invalid queue config: params: Additional properties are not allowed "
         "('Hart' was unexpected)"),
        # a repeated method used to run twice and write its CSV twice
        ({**THERMAL_CONFIG, "methods": ["without", "without"]}, ["thermal", "track"],
         "invalid thermal config: methods: ['without', 'without'] has non-unique elements"),
        # a repeated measurement minute used to keep only its last value
        ({**QUEUE_CONFIG, "methods": ["hart"], "data_dir": "repeated"}, ["queue", "track"],
         "measurements repeat minute 120"),
        # a NaN measurement ended in "sigma_f: initial point must be interior"
        ({**QUEUE_CONFIG, "methods": ["hart"], "data_dir": "queue-nan"}, ["queue", "track"],
         "queue_meas.csv: data row 3 has queue_len = nan; every value must be finite"),
        # a NaN measurement ended in "non-finite metrics for <dataset>/without"
        ({**THERMAL_CONFIG, "methods": ["without"], "data_dir": "thermal-nan"},
         ["thermal", "predict"], "thermal_meas.csv: data row 121 has t_int = nan"),
        # a NaN time passed the step-grid check, and without a measurement
        # file the track ran to exit 0
        ({**THERMAL_CONFIG, "methods": ["without"], "data_dir": "thermal-nan-time"},
         ["thermal", "track"], "thermal.csv: data row 121 has time_min = nan"),
        # a short row ended in numpy's "inhomogeneous shape" error
        ({**QUEUE_CONFIG, "methods": ["hart"], "data_dir": "short-row"}, ["queue", "track"],
         "queue_meas.csv: data row 3 has a cell count of 1, not 2 (time_min, queue_len)"),
        # a cell that is not a number ended in "could not convert string to float: 'abc'"
        ({**QUEUE_CONFIG, "methods": ["hart"], "data_dir": "not-a-number"}, ["queue", "track"],
         "queue_meas.csv: data row 3 has queue_len = 'abc'; every value must be a number"),
    ],
)
def test_package_errors_end_in_an_error_line(tmp_path, config, command, text):
    if "data_dir" in config:
        config = {**config, "data_dir": str(_edited_data_dir(tmp_path / "data",
                                                             config["data_dir"]))}
    result, _ = _invoke(tmp_path, {**config, "seeds": [0]}, *command)
    _fails_cleanly(result, text)


@pytest.mark.parametrize(
    "config, command, text",
    [
        # ended in "IndexError: index 149 is out of bounds for axis 0 with size 100"
        ({"n_points": 100, "n_basis": 150}, ["compare-bases"],
         "n_basis = 150 exceeds the count of positive eigenvalues of the n_points = 100 Gram"),
        # ended in "gamma must lie in (0, 1]", which names no key of this config:
        # the 100th eigenvalue of the SE Gram is not positive
        ({"n_points": 100, "n_basis": 100}, ["compare-bases"],
         "n_basis = 100 exceeds the count of positive eigenvalues of the n_points = 100 Gram"),
        # ended in "error: 'right'", the repr of a KeyError
        ({"kernel": {"variant": "product",
                     "left": {"variant": "se", "params": {"sigma": 1.0, "ell": 0.2}}},
          "period": 1.0}, ["eigenbasis"], "product kernel config lacks 'right'"),
    ],
    ids=["n-basis-beyond-points", "n-basis-beyond-positive", "product-without-right"],
)
def test_basis_config_errors_end_in_an_error_line(tmp_path, config, command, text):
    result, out = _invoke(tmp_path, config, *command)
    _fails_cleanly(result, text)
    assert not out.exists()


# data directory edits: (file, the line of minute 120 -> its new text, file to drop)
_DATA_EDITS = {
    "repeated": ("queue_meas.csv", lambda line: f"{line}\n120,50", None),
    "queue-nan": ("queue_meas.csv", lambda line: "120,nan", None),
    "thermal-nan": ("thermal_meas.csv", lambda line: "120,nan," + line.split(",")[2], None),
    "thermal-nan-time": ("thermal.csv", lambda line: "nan" + line.removeprefix("120"),
                         "thermal_meas.csv"),
    "short-row": ("queue_meas.csv", lambda line: "120", None),
    "not-a-number": ("queue_meas.csv", lambda line: "120,abc", None),
}


def _edited_data_dir(data_dir, edit):
    """A generated dataset directory with the line of minute 120 in one file
    rewritten (and one file dropped) as `_DATA_EDITS[edit]` says."""
    name, rewrite, dropped = _DATA_EDITS[edit]
    if name.startswith("queue"):
        dataset = generate_queue_data(QueueGenConfig(days=2, step=4.0), seed=0)
        write_queue_dataset(data_dir, dataset)
    else:
        write_thermal_dataset(data_dir, generate_thermal_data(ThermalGenConfig(days=2), seed=0))
    if dropped:
        (data_dir / dropped).unlink()
    path = data_dir / name
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("120,"))
    lines[row] = rewrite(lines[row])
    path.write_text("\n".join(lines) + "\n")
    return data_dir


@pytest.mark.parametrize(
    "config, command, text",
    [
        ({**THERMAL_CONFIG, "methods": ["without"], "seeds": [3, 3]}, ["thermal", "track"],
         "invalid thermal config: seeds: [3, 3] has non-unique elements"),
        ({"ssgpr_multipliers": [2, 2]}, ["compare-bases"],
         "invalid compare-bases config: ssgpr_multipliers: [2, 2] has non-unique elements"),
    ],
    ids=["seeds", "ssgpr-multipliers"],
)
def test_repeated_list_items_are_refused(tmp_path, config, command, text):
    # a repeated seed wrote the same record and CSV twice (at once under
    # --jobs 2), and a repeated multiplier wrote two identical rows
    result, out = _invoke(tmp_path, config, *command)
    _fails_cleanly(result, text)
    assert not out.exists()


def test_methods_predicted_together_match_methods_predicted_alone(tmp_path):
    # the methods predicted on one dataset share its block of particle draws;
    # sharing it must leave each method's outputs as a run of that method alone
    config = {**THERMAL_CONFIG, "seeds": [3]}
    outputs = {}
    for methods in (["quasi-sqm", "without"], ["quasi-sqm"], ["without"]):
        result, out = _invoke(tmp_path / "+".join(methods), {**config, "methods": methods},
                              "thermal", "predict")
        assert result.exit_code == 0, result.output
        for r in json.loads((out / "metrics.json").read_text()):
            del r["runtime_ms"]
            csv = (out / r["dataset"] / f"predict-{r['method']}.csv").read_bytes()
            outputs.setdefault(r["method"], []).append((r, csv))
    assert sorted(outputs) == ["quasi-sqm", "without"]
    for method, ((together, csv), (alone, alone_csv)) in outputs.items():
        assert together == alone, method
        assert csv == alone_csv, method


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


@pytest.mark.parametrize("config, app", [(QUEUE_CONFIG, "queue"), (THERMAL_CONFIG, "thermal")],
                         ids=["queue", "thermal"])
def test_data_dir_day_comes_from_the_files(tmp_path, config, app):
    # the files hold 3 days, so the held-out day is day 2 whatever the
    # config's generator says
    simulated = {**config, "seeds": [0], "generator": {**config["generator"], "days": 3}}
    result, sim = _invoke(tmp_path / "simulate", simulated, app, "simulate")
    assert result.exit_code == 0, result.output
    assert config["generator"]["days"] == 2
    tracked = {**config, "seeds": [0], "data_dir": str(sim / f"{app}-s0")}
    result, out = _invoke(tmp_path / "track", tracked, app, "track")
    assert result.exit_code == 0, result.output
    records = json.loads((out / "metrics.json").read_text())
    assert [r["day"] for r in records] == [2, 2]


def test_data_dir_run_takes_one_seed(tmp_path):
    # a data_dir holds one dataset: two seeds would score copies of it under
    # two tags, so the run fails before any work; --seed leaves one seed
    result, sim = _invoke(tmp_path / "simulate", {**QUEUE_CONFIG, "seeds": [0]},
                          "queue", "simulate")
    assert result.exit_code == 0, result.output
    config = {**QUEUE_CONFIG, "data_dir": str(sim / "queue-s0")}
    assert len(config["seeds"]) == 2
    result, out = _invoke(tmp_path / "two", config, "queue", "track")
    _fails_cleanly(result, "data_dir holds one dataset, but seeds lists 2")
    assert not out.exists()
    result, out = _invoke(tmp_path / "one", config, "--seed", "1", "queue", "track")
    assert result.exit_code == 0, result.output
    records = json.loads((out / "metrics.json").read_text())
    # --seed seeds the run, but the records are tagged by the data's directory
    assert [r["dataset"] for r in records] == ["queue-s0", "queue-s0"]


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


# each command's help line as `--help` lists it; the application groups and
# their subcommands are registered from `cli._APPS`
COMMAND_TREE = {
    (): {
        "compare-bases": "Eigenfunction vs sparse-spectrum comparison; emits a...",
        "eigenbasis": "Emit the eigenvalue spectrum and eigenfunction grids as CSV.",
        "queue": "Queue tracking with quasi-periodic arrival rates.",
        "thermal": "Home-thermal tracking and day-ahead prediction.",
    },
    ("queue",): {
        "fit": "Fit hyperparameters; write one fit report per method.",
        "simulate": "Write synthetic arrival/queue CSV datasets.",
        "track": "Fit, track the held-out day, and write metrics.",
    },
    ("thermal",): {
        "fit": "Fit thermal and residual parameters; write fit reports.",
        "predict": "Day-ahead prediction with the particle filter; write metrics.",
        "simulate": "Write a synthetic thermal CSV dataset.",
        "track": "Day-ahead tracking with sparse measurements; write metrics.",
    },
}


@pytest.mark.parametrize("group", sorted(COMMAND_TREE), ids=lambda g: "-".join(g) or "main")
def test_each_group_lists_exactly_its_commands(group):
    commands = COMMAND_TREE[group]
    result = CliRunner().invoke(main, [*group, "--help"], prog_name="eigenlfm")
    assert result.exit_code == 0, result.output
    listing = result.output.split("\nCommands:\n")[1].splitlines()
    assert dict(line.split(None, 1) for line in listing) == commands
    if group:
        assert set(_APPS[group[0]].commands) == set(commands)
    for name, help_line in commands.items():
        result = CliRunner().invoke(main, [*group, name, "--help"], prog_name="eigenlfm")
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"Usage: eigenlfm {' '.join((*group, name))} [OPTIONS]")
        if not help_line.endswith("..."):
            assert f"\n  {help_line}\n" in result.output
