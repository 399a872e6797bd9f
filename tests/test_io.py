import csv
import io
import math

import numpy as np

from eigenlfm.apps import io as app_io


def _csv_writer_bytes(header, columns, cells) -> bytes:
    """The file `csv.writer` writes for the same values, each column's cells
    made by its function of `cells`: the reference for `write_columns`' own
    dialect."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([cell(v) for cell, v in zip(cells, row)] for row in zip(*columns))
    return out.getvalue().encode()


def test_write_columns_writes_the_csv_writer_bytes(tmp_path):
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, -2.5])
    ints = [0, -7, 123456789012, 2**40 + 1, 5, 1, 10**10, 42]
    names = ["kpca", "ssgpr_x1", "ssgpr_x2", "ssgpr_x4", "a", "b-c", "x_10", "z"]
    cases = [
        # the default: every value to 10 significant digits
        (["time_min", "count", "big", "reversed"],
         [floats, np.arange(8), ints, floats[::-1].copy()], None, ["{:.10g}".format] * 4),
        # the basis files' formats: indices, names and 12-digit values beside 10-digit times
        (["j", "big", "method", "t", "value"],
         [np.arange(8), ints, names, floats, floats[::-1].copy()],
         ["%d", "%d", "%s", "%.10g", "%.12g"], [str, str, str, "{:.10g}".format, "{:.12g}".format]),
    ]
    for header, columns, formats, cells in cases:
        path = tmp_path / "nested" / "columns.csv"
        app_io.write_columns(path, header, columns, formats)
        written = path.read_bytes()
        assert written == _csv_writer_bytes(header, columns, cells)
        assert written.count(b"\r\n") == 9 and b'"' not in written
