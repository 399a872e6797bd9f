import csv
import io
import math

import numpy as np

from eigenlfm.apps import io as app_io


def _csv_writer_bytes(header, columns) -> bytes:
    """The file `csv.writer` writes for the same cells, each value formatted
    `f"{v:.10g}"`: the reference for `write_columns`' own dialect."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([f"{v:.10g}" for v in row] for row in zip(*columns))
    return out.getvalue().encode()


def test_write_columns_writes_the_csv_writer_bytes(tmp_path):
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, -2.5])
    ints = [0, -7, 123456789012, 2**40 + 1, 5, 1, 10**10, 42]
    columns = [floats, np.arange(8), ints, floats[::-1].copy()]
    header = ["time_min", "count", "big", "reversed"]
    path = tmp_path / "nested" / "columns.csv"
    app_io.write_columns(path, header, columns)
    written = path.read_bytes()
    assert written == _csv_writer_bytes(header, columns)
    assert written.count(b"\r\n") == 9 and b'"' not in written
