"""The resonator baseline (Särkkä 2012; Hartikainen 2012): second-order
resonators psi'' = A psi + B psi' (+ white noise) as non-periodic `lfm`
forces.  `resonator_block` is one resonator; `resonator_bank` is a
constant-coefficient bank plus a bias.  Thermal's "resonator" roster entry
adds the bank to its target model, and `thermal_fit` fits its frequencies,
so the baseline is stepped and filtered by the engine like every other
model.
"""

from __future__ import annotations

import numpy as np

from .. import lfm, lti
from ..errors import InvalidParameterError
# unused here: bench/test_bench.py::test_tracer_patches_every_binding lists this
# binding; ROADMAP item 2 drops it from that list, and then this import
from ..filtering import update  # noqa: F401

__all__ = [
    "resonator_block",
    "resonator_bank",
]


def resonator_block(frequency: float, decay: float, diffusion: float) -> lti.LtiSde:
    """LTI block of one resonator: state (psi, dpsi/dt)."""
    if decay > 0.0:
        raise InvalidParameterError("decay coefficient must be <= 0")
    return lti.LtiSde(
        drift=np.array([[0.0, 1.0], [-((2.0 * np.pi * frequency) ** 2), decay]]),
        noise=np.array([[0.0], [1.0]]),
        diffusion=diffusion,
        extract=np.array([1.0, 0.0]),
    )


def resonator_bank(freqs, decays, diffusion: float, coupling) -> list[lfm.NonPeriodicForce]:
    """Resonator bank as `lfm` forces: one `resonator_block` per (frequency,
    decay) pair, then the constant bias block, each feeding the target
    through `coupling`."""
    forces = [
        lfm.NonPeriodicForce(resonator_block(f, b, diffusion), coupling)
        for f, b in zip(freqs, decays)
    ]
    forces.append(lfm.NonPeriodicForce(lti.constant_block(), coupling))
    return forces
