"""Dense complex-matrix kernels: eigenpairs, Hermitian matrix functions,
partial trace and trace norm.

Everything here is a pure function of its inputs. Matrices are plain
``numpy`` arrays of complex dtype; no wrapper classes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BranchAmbiguity, DegeneratePairing, NotPositive, ShapeMismatch

# Eigenvalue gap below which left/right pairing is refused.
PAIRING_GAP = 1e-9
# Negative eigenvalue magnitude tolerated (and clamped) in PSD inputs.
PSD_CLAMP = 1e-12
PSD_FAIL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition A v_i = w_i v_i, optionally with left eigenvectors.

    ``right[:, i]`` is the right eigenvector for ``values[i]``. When present,
    ``left[:, i]`` satisfies A† l_i = conj(w_i) l_i and the sets are
    biorthonormal: <l_i|r_j> = delta_ij.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray | None = None


def _square(a: np.ndarray, stack: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def eig(a: np.ndarray, want_left: bool = False) -> EigenSystem:
    """Eigendecomposition with optional biorthonormal left eigenvectors.

    Left eigenvectors are computed as right eigenvectors of A†, paired to the
    right set by conjugate eigenvalue (greedy nearest match) and rescaled so
    that <l_i|r_j> = delta_ij. Raises DegeneratePairing when two eigenvalues
    of A are closer than 1e-9, since the pairing is then ambiguous.
    """
    a = _square(a)
    values, right = np.linalg.eig(a)
    if not want_left:
        return EigenSystem(values, right)

    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) < PAIRING_GAP:
                raise DegeneratePairing(
                    f"eigenvalues {values[i]} and {values[j]} within {PAIRING_GAP}"
                )
    lvals, lvecs = np.linalg.eig(a.conj().T)
    left = np.empty_like(right)
    taken: set[int] = set()
    for i in range(n):
        dists = [
            (abs(np.conj(lvals[j]) - values[i]), j) for j in range(n) if j not in taken
        ]
        _, j = min(dists)
        taken.add(j)
        overlap = np.vdot(lvecs[:, j], right[:, i])
        if abs(overlap) < PAIRING_GAP:
            raise DegeneratePairing(
                f"left/right overlap {abs(overlap):.2e} too small at eigenvalue {values[i]}"
            )
        left[:, i] = lvecs[:, j] / np.conj(overlap)
    return EigenSystem(values, right, left)


def herm_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique positive square root of a Hermitian PSD matrix, or of each in a stack (..., n, n).

    Eigenvalues in [-1e-8, 0) are clamped to zero (floating-point dust left
    by similarity transforms); anything below -1e-8 raises NotPositive.
    """
    a = _square(a, stack=True)
    if np.abs(a - a.conj().swapaxes(-1, -2)).max() > 1e-10:
        raise ValueError("input is not Hermitian to 1e-10")
    w, v = np.linalg.eigh(a)
    if w.min() < -PSD_FAIL:
        raise NotPositive(f"minimum eigenvalue {w.min():.3e} below -{PSD_FAIL}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def sqrt_and_inv(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive square root of a positive-definite metric, its inverse, and its eigenvalues.

    ``g`` is one (n, n) matrix or a stack (..., n, n). It is symmetrized as
    (g + g†)/2 and diagonalized by one ``eigh``; with eigenpairs (w, V) the
    roots are V sqrt(w) V† and V w^{-1/2} V†, and w comes back ascending,
    shape (..., n). Nothing is clamped (compare ``herm_sqrt``): an eigenvalue
    <= 0 raises NotPositive, naming the first offending block of a stack.
    """
    w, v = np.linalg.eigh((g + g.conj().swapaxes(-1, -2)) / 2.0)
    bad = np.flatnonzero(w[..., 0] <= 0)
    if bad.size:
        where = f" block {bad[0]}" if w.ndim > 1 else ""
        raise NotPositive(f"metric{where} not positive definite")
    v_h = v.conj().swapaxes(-1, -2)
    root = np.sqrt(w)[..., None, :]
    return (v * root) @ v_h, (v / root) @ v_h, w


def unitary_log(a: np.ndarray, points=None) -> np.ndarray:
    """Generator H with exp(-i H) = a, eigenvalue phases on the principal branch.

    For a diagonalizable ``a`` with spectrum on (or near) the unit circle this
    is the effective Hamiltonian of the one-step evolution ``a``. Phases are
    taken in (-pi, pi]; a phase within 1e-9 of the cut at +-pi raises
    BranchAmbiguity rather than silently choosing a sheet, and a zero
    eigenvalue raises ValueError. ``a`` may also be a stack (m, n, n), taken
    in one batched eigendecomposition; a refusal then names the first
    offending block, as a per-block loop would meet it, by its label in
    ``points`` (e.g. its momentum) when given, else by its index.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    values, right = np.linalg.eig(a)
    singular = (np.abs(values) == 0.0).reshape(-1, a.shape[-1]).any(axis=1)
    cut = (np.pi - np.abs(np.angle(values)) < 1e-9).reshape(-1, a.shape[-1]).any(axis=1)
    offending = np.flatnonzero(singular | cut)
    if offending.size:
        i = int(offending[0])
        if singular[i]:
            error, message = ValueError, "matrix is singular; no logarithm"
        else:
            error = BranchAmbiguity
            message = "eigenvalue phase within 1e-9 of the branch cut at +-pi"
        if a.ndim == 3:
            message = f"{f'block {i}' if points is None else f'k = {points[i]:.6f}'}: {message}"
        raise error(message)
    h_values = 1j * np.log(values)
    return (right * h_values[..., None, :]) @ np.linalg.inv(right)


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of an operator on H_A (x) H_B.

    ``keep='A'`` traces out B and returns a dA x dA matrix; ``keep='B'``
    traces out A. Preserves trace and Hermiticity.
    """
    da, db = dims
    rho = _square(rho)
    if rho.shape[0] != da * db:
        raise ShapeMismatch(f"matrix of size {rho.shape[0]} != {da}*{db}")
    r = rho.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", r)
    if keep == "B":
        return np.einsum("ijik->jk", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def trace_norm(a: np.ndarray) -> float:
    """Schatten 1-norm: sum of singular values."""
    a = _square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())
