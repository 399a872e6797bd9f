"""Machine-speed calibration for the benchmark's timings.

On a shared 2-vCPU virtual machine (OpenBLAS 0.3.31, Haswell kernels) the
speed of one core swung by up to 2x within a second and drifted by 40% over
minutes, so raw times from different runs could not be compared. Each timed
step is followed by `calibrate()` in the same process, and its time is
rescaled to the reference speed: the step's time on a machine where the
kernel takes `REFERENCE_S` seconds.
"""

import time

import numpy

REFERENCE_S = 0.2
_STEPS = 12000
_rng = numpy.random.default_rng(0)
_G = 0.999 * numpy.linalg.qr(_rng.standard_normal((25, 25)))[0]
_Q = 1e-3 * numpy.eye(25)
_M = _rng.standard_normal(25)
del _rng


def calibrate() -> float:
    """Seconds for a fixed mix of 25x25 matrix products and interpreter work,
    the kind of work one filter step does."""
    start = time.perf_counter()
    m, p, total = _M, _Q, 0.0
    for _ in range(_STEPS):
        m = _G @ m
        p = _G @ p @ _G.T + _Q
        p = 0.5 * (p + p.T)
        total += float(m[0])
    return time.perf_counter() - start


def scaled(raw_s: float, calibration_s: float) -> float:
    """raw_s rescaled to the reference speed."""
    return raw_s * REFERENCE_S / calibration_s
