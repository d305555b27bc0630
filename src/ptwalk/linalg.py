"""Dense complex-matrix kernels over one matrix or a stack (..., n, n):
eigenpairs with biorthonormal left vectors (``eig``) and the trace norm.

The toy study is the only program caller of ``eig``. No code in the program
forms a matrix square root: the walk reads its axes from the metric weights
and the toy its frames from one SVD per metric. Everything here is a pure
function of plain complex ``numpy`` arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairing, ShapeMismatch

# Eigenvalue gap (and left/right overlap) below which left vectors are refused.
PAIRING_GAP = 1e-9


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition A r_i = w_i r_i with biorthonormal left eigenvectors.

    ``right[..., :, i]`` is the right eigenvector for ``values[..., i]``, for
    one matrix or each of a stack (..., n, n), and ``left[..., :, i]``
    satisfies A† l_i = conj(w_i) l_i with <l_i|r_j> = delta_ij.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray


def _square(a: np.ndarray, stack: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def eig(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of one matrix or a stack (..., n, n), with left vectors.

    The left vectors are the columns of inv(R)†, R the right eigenvectors,
    so <l_i|r_j> = delta_ij by construction. DegeneratePairing is raised,
    naming the first offending block of a stack, when two eigenvalues are
    closer than PAIRING_GAP (checked before inverting, so a defective block
    is refused rather than inverted) or when a left/right overlap
    |<l~_i|r_i>| of unit eigenvectors is below PAIRING_GAP; R has unit
    columns, so that overlap is 1/|l_i|.
    """
    a = _square(a, stack=True)
    values, right = np.linalg.eig(a)
    n = a.shape[-1]
    gap = np.abs(values[..., :, None] - values[..., None, :]) + np.diag(np.full(n, np.inf))
    close = gap.min(axis=(-2, -1)) < PAIRING_GAP
    # a block refused for its gap is not inverted
    left = np.linalg.inv(np.where(close[..., None, None], np.eye(n), right))
    left = left.conj().swapaxes(-1, -2)
    overlap = 1.0 / np.linalg.norm(left, axis=-2).max(axis=-1)
    bad = np.flatnonzero(close | (overlap < PAIRING_GAP))
    if bad.size:
        b = np.unravel_index(bad[0], close.shape)
        where = f"block {bad[0]}: " if a.ndim > 2 else ""
        if close[b]:
            raise DegeneratePairing(f"{where}eigenvalue gap {gap[b].min():.2e} below {PAIRING_GAP}")
        raise DegeneratePairing(f"{where}left/right overlap {overlap[b]:.2e} below {PAIRING_GAP}")
    return EigenSystem(values, right, left)


def trace_norm(a: np.ndarray) -> float:
    """Schatten 1-norm: sum of singular values."""
    a = _square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())
