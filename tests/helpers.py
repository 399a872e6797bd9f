"""Shared test helpers."""

import numpy as np


def one_step(build, model, t0, t1):
    """(G, Q) of the one step [t0, t1] from a step builder
    `build(model, starts, dt)`."""
    g, q = build(model, np.array([t0]), t1 - t0)
    return g[0], q[0]
