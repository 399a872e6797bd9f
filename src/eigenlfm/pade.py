"""Matrix exponential by scaling and squaring with the degree-13 Padé
approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), in numpy alone:
A is scaled by 2^-s, s = max(0, ceil(log2(||A||_1 / theta_13))), and the
approximant r = (V - U)^-1 (V + U), U and V the odd and even parts of the
Padé numerator, is solved, not inverted, and squared s times.  The zero
matrix gives the identity exactly, and a non-finite one all NaN.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expm"]

# Padé numerator coefficients b_0 .. b_13
_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
      33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152  # the largest ||A||_1 it meets double precision at (Table 2.3)


def _pade(a: np.ndarray) -> np.ndarray:
    """The degree-13 Padé approximant of exp(a)."""
    b, ident = _B, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    v += b[0] * ident
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """exp(a) of a square float matrix."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0  # a force-only z_a is 0 x 0
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    if norm == 0.0:  # degree 13 alone leaves 1 - 2^-53 on the diagonal
        return np.eye(a.shape[0])
    squarings = max(0, math.ceil(math.log2(norm / _THETA_13)))
    r = _pade(np.ldexp(a, -squarings))
    for _ in range(squarings):
        r = r @ r
    return r
