"""Matrix exponential by scaling and squaring with Padé approximants
(Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), in numpy alone.

The degree m in {3, 5, 7, 9, 13} is the lowest whose 1-norm bound theta_m
covers ||A||_1; above theta_13, A is scaled by 2^-s into it and the degree-13
approximant squared s times.  The approximant r_m = (V - U)^-1 (V + U), with U
the odd and V the even part of the Padé numerator, is solved, not inverted.
A matrix with a non-finite entry has no exponential: the result is all NaN.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm"]

# Padé numerator coefficients b_0 .. b_m, by degree m
_COEFFICIENTS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# the largest ||A||_1 at which degree m meets double precision (Higham 2005, Table 2.3)
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152e0


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The degree-m Padé approximant of exp(a)."""
    b = _COEFFICIENTS[m]
    ident = np.eye(a.shape[0])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
        v += b[0] * ident
    else:
        powers = [ident, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """exp(a) of a square float matrix."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0  # a force-only z_a is 0 x 0
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    for m, theta in _THETA:
        if norm <= theta:
            return _pade(a, m)
    squarings = max(0, math.ceil(math.log2(norm / _THETA_13)))
    r = _pade(np.ldexp(a, -squarings), 13)
    for _ in range(squarings):
        r = r @ r
    return r
