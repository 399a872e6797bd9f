"""Nystrom eigenfunction bases for (quasi-)periodic kernels.

A basis is built from a Gram matrix on N equally spaced quadrature points
spanning one period (or, for non-periodic kernels, the modelling window).
Eigenfunctions are extended off the sample grid by the Nystrom rule

    phi_j(t) = (sqrt(N) / mu_j) K(t, S) v_j,

and the kernel is resynthesized from the significant eigenpairs as
sum_j (mu_j / N) phi_j(t) phi_j(t').  `eigenfunction_matrix` evaluates
K(t, S) in blocks of at most `BLOCK_ENTRIES` kernel entries, so rows at
any number of points cost the memory of the (len(t), J) result, not of an
(len(t), N) kernel block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InvalidParameterError, NumericError

__all__ = ["EigenBasis", "build", "eigenfunction_matrix", "reconstruct"]

# kernel entries K(t_i, s_j) evaluated per block of eigenfunction rows
BLOCK_ENTRIES = 2**14


@dataclass(frozen=True)
class EigenBasis:
    """Gram eigenvalues plus the significance selection.  Of the
    eigenvectors only the selected ones are kept, privately, for the
    Nystrom rule: `eigenfunction_matrix` at `sample_points` gives them
    times sqrt(N).

    Attributes
    ----------
    kernel : kernel variant or callable
    sample_points : (N,) strictly increasing quadrature grid
    eigenvalues : (N,) Gram eigenvalues, descending
    selected : indices j with eigenvalues[j] >= gamma * eigenvalues[0],
        for the significance fraction gamma passed to `build`
    period : length of the sampled window
    """

    kernel: kernels.KernelLike
    sample_points: np.ndarray
    eigenvalues: np.ndarray
    selected: np.ndarray
    period: float
    _v_selected: np.ndarray = field(repr=False, default=None)
    _scale_selected: np.ndarray = field(repr=False, default=None)

    @property
    def n_points(self) -> int:
        return self.sample_points.size

    @property
    def n_selected(self) -> int:
        return self.selected.size

    def scaled_eigenvalues(self) -> np.ndarray:
        """Weight-prior variances mu_j / N for the selected eigenpairs."""
        return self.eigenvalues[self.selected] / self.n_points


def build(
    kernel: kernels.KernelLike,
    n_points: int,
    period: float,
    gamma: float = 0.01,
) -> EigenBasis:
    """Build the Nystrom basis of `kernel` sampled on one window.

    Sample points are i * period / n_points for i = 0 .. n_points-1
    (left-closed so a periodic wrap does not duplicate a point).  The Gram
    matrix is symmetrized before the self-adjoint eigendecomposition, the
    eigenvector signs are fixed by making each largest-magnitude entry
    positive, and eigenpairs with mu_j >= gamma * mu_1 are selected.
    """
    if n_points < 2:
        raise InvalidParameterError("n_points must be >= 2")
    if not np.isfinite(period) or period <= 0.0:
        raise InvalidParameterError("period must be finite and > 0")
    if not (0.0 < gamma <= 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1]")

    points = period * np.arange(n_points) / n_points
    gram = kernels.eval_matrix(kernel, points, points)
    if not np.all(np.isfinite(gram)):
        raise NumericError("kernel produced non-finite Gram entries")
    gram = 0.5 * (gram + gram.T)

    try:
        eigvals, eigvecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram eigendecomposition failed: {exc}") from exc

    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # deterministic sign: largest-magnitude entry of each eigenvector positive
    anchor = np.argmax(np.abs(eigvecs), axis=0)
    signs = np.sign(eigvecs[anchor, np.arange(n_points)])
    signs[signs == 0.0] = 1.0
    eigvecs = eigvecs * signs

    if eigvals[0] <= 0.0:
        raise NumericError("leading Gram eigenvalue is not positive")
    selected = np.flatnonzero(eigvals >= gamma * eigvals[0])

    return EigenBasis(
        kernel=kernel,
        sample_points=points,
        eigenvalues=eigvals,
        selected=selected,
        period=period,
        _v_selected=eigvecs[:, selected],
        _scale_selected=np.sqrt(n_points) / eigvals[selected],
    )


def eigenfunction_matrix(basis: EigenBasis, t) -> np.ndarray:
    """Matrix of all selected eigenfunctions at t: shape (len(t), J).

    K(t, S) is evaluated in the fewest equal blocks of at most
    `BLOCK_ENTRIES // N` points, so for any len(t) the memory is the result
    plus a transient of a few arrays of at most `BLOCK_ENTRIES` entries.  A
    row equals the one-shot (K(t, S) @ V) * scale bit for bit when BLAS
    multiplies each block with the kernel it takes for the whole product;
    for a thin block (few rows times few eigenfunctions) it may take
    another, which sums in another order.  Equal blocks keep the last block
    from being thinner than the rest.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size == 0:
        raise InvalidParameterError("eigenfunction points must be non-empty")
    out = np.empty((t.size, basis.n_selected))
    n_blocks = -(-t.size // max(1, BLOCK_ENTRIES // basis.n_points))
    bounds = (np.arange(n_blocks + 1) * t.size // n_blocks).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        rows = kernels.eval_matrix(basis.kernel, t[lo:hi], basis.sample_points)
        block = out[lo:hi]
        np.matmul(rows, basis._v_selected, out=block)
        block *= basis._scale_selected
    return out


def reconstruct(basis: EigenBasis, t, tp):
    """Kernel resynthesis sum_j (mu_j / N) phi_j(t) phi_j(t')."""
    pt = eigenfunction_matrix(basis, t)
    ptp = eigenfunction_matrix(basis, tp)
    out = (pt * basis.scaled_eigenvalues()) @ ptp.T
    if np.ndim(t) == 0 and np.ndim(tp) == 0:
        return float(out[0, 0])
    return out
