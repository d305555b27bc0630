"""Dense complex-matrix kernels: eigenpairs, the metric root (closed form
for 2x2 blocks), metric transports and the trace norm.

Everything here is a pure function of its inputs. Matrices are plain
``numpy`` arrays of complex dtype; no wrapper classes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairing, NotPositive, ShapeMismatch

# Eigenvalue gap (and left/right overlap) below which left vectors are refused.
PAIRING_GAP = 1e-9


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition A v_i = w_i v_i, optionally with left eigenvectors.

    ``right[..., :, i]`` is the right eigenvector for ``values[..., i]``, for
    one matrix or each of a stack (..., n, n). When present,
    ``left[..., :, i]`` satisfies A† l_i = conj(w_i) l_i and the sets are
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
    """Eigendecomposition of one matrix or a stack (..., n, n), optionally with left vectors.

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
    if not want_left:
        return EigenSystem(values, right)

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


def sqrt_and_inv(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive square root of a positive-definite metric, its inverse, and its eigenvalues.

    ``g`` is one (n, n) matrix or a stack (..., n, n), taken as (g + g†)/2;
    eigenvalues come back ascending, shape (..., n). A 2x2 block [[a, b], [b*, d]]
    has a closed form (Levinger, Math. Mag. 53, 222 (1980)): with s = sqrt(det G)
    and t = sqrt(tr G + 2s), eta = (G + sI)/t, eta^-1 = (adj G + sI)/(st),
    lambda_+ = tr G/2 + sqrt(((a - d)/2)^2 + |b|^2) and lambda_- = det G/lambda_+.
    Larger blocks take one stacked ``eigh``, with roots V w^{+-1/2} V†. Nothing is
    clamped: a block not positive definite raises NotPositive, naming the first.
    """
    if g.shape[-1] == 2:
        a, d = g[..., 0, 0].real, g[..., 1, 1].real
        b = (g[..., 0, 1] + g[..., 1, 0].conj()) / 2.0
        det = a * d - (b.real**2 + b.imag**2)
        hi = (a + d) / 2.0 + np.sqrt(((a - d) / 2.0) ** 2 + b.real**2 + b.imag**2)
        # lambda_- refuses a block unless it is > 0; it is +-0 wherever lambda_+ <= 0
        w = np.stack([det / np.where(hi > 0, hi, np.inf), hi], axis=-1)
    else:
        w, v = np.linalg.eigh((g + g.conj().swapaxes(-1, -2)) / 2.0)
    bad = np.flatnonzero(~(w[..., 0] > 0))
    if bad.size:
        where = f" block {bad[0]}" if w.ndim > 1 else ""
        raise NotPositive(f"metric{where} not positive definite")
    if g.shape[-1] == 2:
        s = np.sqrt(det)
        t = np.sqrt(a + d + 2.0 * s)[..., None, None]
        root = np.stack([a + s, b, b.conj(), d + s], axis=-1).reshape(g.shape)
        inverse = np.stack([d + s, -b, -b.conj(), a + s], axis=-1).reshape(g.shape)
        return root / t, inverse / (s[..., None, None] * t), w
    v_h = v.conj().swapaxes(-1, -2)
    root = np.sqrt(w)[..., None, :]
    return (v * root) @ v_h, (v / root) @ v_h, w


def transport(
    g: np.ndarray, g_new: np.ndarray, h: np.ndarray, sys: EigenSystem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral transport between two metrics compatible with one Hamiltonian.

    ``sys`` holds the biorthonormal eigenpairs (R, L) of ``h``. With the
    weights w_i = <r_i|G|r_i> and w'_i = <r_i|G'|r_i>, the transport is
    T = R diag(sqrt(w'/w)) L†, which commutes with H and pulls G' back to G
    (T† G T = G'), and U = eta' T^-1 eta^-1 is unitary with eta' = U eta T.
    Every argument may be a stack (..., n, n), broadcast together. Returns
    (T, U, residuals), the residuals of shape (..., 4) holding the Frobenius
    norms of [T, H], U†U - I, T† G T - G' and eta' - U eta T per block; a
    non-positive-definite metric raises NotPositive.
    """
    eta, eta_inv, _ = sqrt_and_inv(g)
    eta_new, _, _ = sqrt_and_inv(g_new)
    r, left_h = sys.right, sys.left.conj().swapaxes(-1, -2)
    w = np.einsum("...ji,...jk,...ki->...i", r.conj(), g, r).real
    w_new = np.einsum("...ji,...jk,...ki->...i", r.conj(), g_new, r).real
    ratio = np.sqrt(w_new / w)[..., None, :]
    t = (r * ratio) @ left_h
    u = eta_new @ ((r / ratio) @ left_h) @ eta_inv
    checks = (
        t @ h - h @ t,
        u.conj().swapaxes(-1, -2) @ u - np.eye(h.shape[-1]),
        t.conj().swapaxes(-1, -2) @ g @ t - g_new,
        eta_new - u @ eta @ t,
    )
    residuals = np.stack([np.linalg.norm(c, axis=(-2, -1)) for c in checks], axis=-1)
    return t, u, residuals


def trace_norm(a: np.ndarray) -> float:
    """Schatten 1-norm: sum of singular values."""
    a = _square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())
