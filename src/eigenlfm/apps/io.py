"""CSV dataset files shared by the CLI and the ingestion path.

Formats:
  queue arrivals      time_min,arrival_rate     (5-minute grid)
  queue truth/meas    time_min,queue_len
  thermal record      time_min,t_int,t_ext,setpoint,heater   (1-minute grid)
  thermal meas        time_min,t_int,t_ext
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import InvalidParameterError
from .queueing import QueueDataset, QueueGenConfig, _omega_profile
from .synth import DAY_MINUTES
from .thermal import ThermalDataset, ThermalGenConfig

__all__ = [
    "write_queue_dataset",
    "read_queue_dataset",
    "write_thermal_dataset",
    "read_thermal_dataset",
]


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{v:.10g}" for v in row])


def _read_csv(path: Path, expected: list[str]) -> list[np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != expected:
            raise InvalidParameterError(
                f"{path.name}: expected columns {expected}, found {header}"
            )
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise InvalidParameterError(f"{path.name} is empty")
    return [data[:, i] for i in range(data.shape[1])]


def write_queue_dataset(out_dir, dataset: QueueDataset) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "arrivals.csv", out / "queue_truth.csv", out / "queue_meas.csv"]
    _write_csv(paths[0], ["time_min", "arrival_rate"],
               [dataset.rate_times, dataset.rate_values])
    _write_csv(paths[1], ["time_min", "queue_len"],
               [dataset.times, dataset.truth_queue])
    _write_csv(paths[2], ["time_min", "queue_len"],
               [dataset.meas_times, dataset.meas_values])
    return paths


def read_queue_dataset(data_dir, config: QueueGenConfig) -> QueueDataset:
    """Rebuild a queue dataset from CSV files (synthetic or real)."""
    data = Path(data_dir)
    rate_t, rate_v = _read_csv(data / "arrivals.csv", ["time_min", "arrival_rate"])
    truth_t, truth_v = _read_csv(data / "queue_truth.csv", ["time_min", "queue_len"])
    meas_t, meas_v = _read_csv(data / "queue_meas.csv", ["time_min", "queue_len"])
    days = int(round(truth_t[-1] / DAY_MINUTES))
    config = QueueGenConfig(**{**config.__dict__, "days": max(days, 2)})
    return QueueDataset(
        times=truth_t,
        truth_queue=truth_v,
        rate_times=rate_t,
        rate_values=rate_v,
        meas_times=meas_t,
        meas_values=meas_v,
        test_start=(config.days - 1) * DAY_MINUTES,
        omega=_omega_profile(config),
        config=config,
    )


def write_thermal_dataset(out_dir, dataset: ThermalDataset) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "thermal.csv", out / "thermal_meas.csv"]
    _write_csv(
        paths[0],
        ["time_min", "t_int", "t_ext", "setpoint", "heater"],
        [dataset.minutes, dataset.t_int, dataset.t_ext, dataset.setpoint,
         dataset.heater],
    )
    _write_csv(paths[1], ["time_min", "t_int", "t_ext"],
               [dataset.minutes, dataset.meas_int, dataset.meas_ext])
    return paths


def read_thermal_dataset(data_dir, config: ThermalGenConfig) -> ThermalDataset:
    """Rebuild a thermal dataset from CSV files; if the measurement file is
    absent the recorded temperatures serve as the measurements."""
    data = Path(data_dir)
    cols = _read_csv(data / "thermal.csv",
                     ["time_min", "t_int", "t_ext", "setpoint", "heater"])
    minutes, t_int, t_ext, setpoint, heater = cols
    if not np.isin(heater, (0.0, 1.0)).all():
        raise InvalidParameterError("thermal.csv: the heater column must be 0 or 1")
    meas_path = data / "thermal_meas.csv"
    if meas_path.exists():
        _, meas_int, meas_ext = _read_csv(meas_path, ["time_min", "t_int", "t_ext"])
    else:
        meas_int, meas_ext = t_int.copy(), t_ext.copy()
    days = int(round(minutes[-1] / DAY_MINUTES))
    config = ThermalGenConfig(**{**config.__dict__, "days": max(days, 2)})
    return ThermalDataset(
        minutes=minutes,
        t_int=t_int,
        t_ext=t_ext,
        setpoint=setpoint,
        heater=heater,
        meas_int=meas_int,
        meas_ext=meas_ext,
        residual=np.zeros_like(minutes),
        test_start=(config.days - 1) * DAY_MINUTES,
        config=config,
    )
