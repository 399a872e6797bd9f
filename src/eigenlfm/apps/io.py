"""CSV dataset files shared by the CLI and the ingestion path.

Formats:
  queue arrivals      time_min,arrival_rate     (5-minute grid)
  queue truth/meas    time_min,queue_len        (truth on the generator.step grid)
  thermal record      time_min,t_int,t_ext,setpoint,heater   (1-minute grid)
  thermal meas        time_min,t_int,t_ext                   (1-minute grid)

Every dataset and pass CSV is written by `write_columns` in one dialect,
without the csv module: comma-separated cells, `\r\n` line ends, each value
formatted `%.10g` and never quoted, since a formatted number holds no comma
or quote.  These are the bytes `csv.writer` writes for the same cells.
`write_csv` writes rows of cells that are already strings.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import InvalidParameterError
from .queueing import QueueDataset, QueueGenConfig
from .synth import DAY_MINUTES
from .thermal import ThermalDataset, ThermalGenConfig

__all__ = [
    "write_queue_dataset",
    "read_queue_dataset",
    "write_thermal_dataset",
    "read_thermal_dataset",
    "write_csv",
    "write_columns",
]


def write_csv(path: Path, header, rows) -> None:
    """Write the header and the rows of formatted cells, making the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns(path: Path, header, columns) -> None:
    """Write the rows of `columns` (equal-length sequences), each value to 10
    significant digits: the one precision of every dataset and pass CSV."""
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%.10g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % values for values in zip(*(np.asarray(c).tolist() for c in columns)))


def _row_values(path: Path, expected: list[str], n: int, row: list[str]) -> list[float]:
    """The numbers of data row `n`; a row of another length than `expected`
    or a cell that is not a number raises, naming the row (and column)."""
    if len(row) != len(expected):
        raise InvalidParameterError(f"{path.name}: data row {n} has a cell count of "
                                    f"{len(row)}, not {len(expected)} ({', '.join(expected)})")
    values = []
    for name, cell in zip(expected, row):
        try:
            values.append(float(cell))
        except ValueError:
            raise InvalidParameterError(f"{path.name}: data row {n} has {name} = {cell!r}; "
                                        "every value must be a number") from None
    return values


def _read_csv(path: Path, expected: list[str], step: float | None = None) -> list[np.ndarray]:
    """The columns of a CSV file with the `expected` header.  A row of another
    length, or a cell that is not a finite number, raises, naming its data
    row (and column).  Given a `step`, the file is read by row position, so
    its times (first column) must run t0, t0 + step, ...: a file off that
    grid raises, naming the spacing."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != expected:
            raise InvalidParameterError(
                f"{path.name}: expected columns {expected}, found {header}"
            )
        rows = [row for row in reader if row]
    data = np.array([_row_values(path, expected, i + 1, row) for i, row in enumerate(rows)])
    if data.size == 0:
        raise InvalidParameterError(f"{path.name} is empty")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise InvalidParameterError(f"{path.name}: data row {i + 1} has {expected[j]} = "
                                    f"{data[i, j]:g}; every value must be finite")
    if step is not None:
        times = data[:, 0]
        grid = times[0] + step * np.arange(times.size)
        off = np.flatnonzero(np.abs(times - grid) > 1e-9 * np.maximum(1.0, np.abs(grid)))
        if off.size:
            k = off[0]
            raise InvalidParameterError(f"{path.name}: time step {times[k] - times[k - 1]:g} "
                                        f"found at {times[k - 1]:g}, {step:g} expected")
    return [data[:, i] for i in range(data.shape[1])]


def _whole_days(path: Path, times: np.ndarray) -> int:
    """The number of days in a record whose `times` run from minute 0, where
    every pass and the daily cycle start: a whole number, at least two
    (training days plus the held-out day), to the `lfm.grid_steps`
    tolerance; another first minute or span raises, naming the file."""
    first, last = times[0], times[-1]
    if abs(first) > 1e-9:
        raise InvalidParameterError(
            f"{path.name}: the record starts at minute {first:g}; it must start at minute 0"
        )
    days = int(round(last / DAY_MINUTES))
    if days < 2 or abs(days * DAY_MINUTES - last) > 1e-9 * max(1.0, last):
        raise InvalidParameterError(
            f"{path.name}: the record ends at minute {last:g} ({last / DAY_MINUTES:.4g} days); "
            "it must span a whole number of days, at least two"
        )
    return days


def write_queue_dataset(out_dir, dataset: QueueDataset) -> list[Path]:
    out = Path(out_dir)
    paths = [out / "arrivals.csv", out / "queue_truth.csv", out / "queue_meas.csv"]
    write_columns(paths[0], ["time_min", "arrival_rate"], [dataset.rate_times, dataset.rate_values])
    write_columns(paths[1], ["time_min", "queue_len"], [dataset.times, dataset.truth_queue])
    write_columns(paths[2], ["time_min", "queue_len"], [dataset.meas_times, dataset.meas_values])
    return paths


def read_queue_dataset(data_dir, config: QueueGenConfig) -> QueueDataset:
    """Rebuild a queue dataset from CSV files (synthetic or real).  The
    filter steps along queue_truth.csv, so it must be on the `config.step`
    grid, and every measurement must fall in one of its steps: after the
    first time and at or before the last."""
    data = Path(data_dir)
    rate_t, rate_v = _read_csv(data / "arrivals.csv", ["time_min", "arrival_rate"])
    truth_t, truth_v = _read_csv(data / "queue_truth.csv", ["time_min", "queue_len"], config.step)
    meas_t, meas_v = _read_csv(data / "queue_meas.csv", ["time_min", "queue_len"])
    days = _whole_days(data / "queue_truth.csv", truth_t)
    outside = np.flatnonzero((meas_t <= truth_t[0]) | (meas_t > truth_t[-1]))
    if outside.size:
        raise InvalidParameterError(
            f"queue_meas.csv: measurement at minute {meas_t[outside[0]]:g} lies outside the "
            f"record, which runs after minute {truth_t[0]:g} up to minute {truth_t[-1]:g}"
        )
    return QueueDataset(
        times=truth_t,
        truth_queue=truth_v,
        rate_times=rate_t,
        rate_values=rate_v,
        meas_times=meas_t,
        meas_values=meas_v,
        config=QueueGenConfig(**{**config.__dict__, "days": days}),
    )


def write_thermal_dataset(out_dir, dataset: ThermalDataset) -> list[Path]:
    out = Path(out_dir)
    paths = [out / "thermal.csv", out / "thermal_meas.csv"]
    write_columns(
        paths[0], ["time_min", "t_int", "t_ext", "setpoint", "heater"],
        [dataset.minutes, dataset.t_int, dataset.t_ext, dataset.setpoint, dataset.heater],
    )
    write_columns(paths[1], ["time_min", "t_int", "t_ext"],
                  [dataset.minutes, dataset.meas_int, dataset.meas_ext])
    return paths


def read_thermal_dataset(data_dir, config: ThermalGenConfig) -> ThermalDataset:
    """Rebuild a thermal dataset from CSV files; if the measurement file is
    absent the recorded temperatures serve as the measurements.  The pass
    reads both files by minute index, so both must be on a 1-minute grid
    and hold the same minutes."""
    data = Path(data_dir)
    cols = _read_csv(data / "thermal.csv",
                     ["time_min", "t_int", "t_ext", "setpoint", "heater"], 1.0)
    minutes, t_int, t_ext, setpoint, heater = cols
    if not np.isin(heater, (0.0, 1.0)).all():
        raise InvalidParameterError("thermal.csv: the heater column must be 0 or 1")
    days = _whole_days(data / "thermal.csv", minutes)
    meas_path = data / "thermal_meas.csv"
    if meas_path.exists():
        meas_min, meas_int, meas_ext = _read_csv(meas_path, ["time_min", "t_int", "t_ext"], 1.0)
        if meas_min[0] != minutes[0] or meas_min.size != minutes.size:
            raise InvalidParameterError(
                f"thermal_meas.csv: holds minutes {meas_min[0]:g} to {meas_min[-1]:g}, but "
                f"thermal.csv holds minutes {minutes[0]:g} to {minutes[-1]:g}"
            )
    else:
        meas_int, meas_ext = t_int.copy(), t_ext.copy()
    return ThermalDataset(
        minutes=minutes,
        t_int=t_int,
        t_ext=t_ext,
        setpoint=setpoint,
        heater=heater,
        meas_int=meas_int,
        meas_ext=meas_ext,
        residual=np.zeros_like(minutes),
        config=ThermalGenConfig(**{**config.__dict__, "days": days}),
    )
