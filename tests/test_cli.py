import json

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
