"""4x4 channel-matrix and Choi-matrix path, kept as a test oracle.

The library scores CP-indivisibility, backflow and entropy on the real 3x3
Bloch matrices M(t): the intermediate maps come from one batched solve and
their Choi trace norms from signed singular values. This module keeps the
generic path those replaced. The t-step map is represented by a 4x4 matrix
L(t, 0) acting on row-major vectorized coin states, with columns
vec(map(E_ij)) over the matrix units in the order E11, E12, E21, E22; it is
diag(1, M(t)) in the Pauli basis. The intermediate map is
L(t+1, t) = L(t+1, 0) L(t, 0)^{-1}, and its Choi matrix is

    C = devec[ U23 (L (x) I4) U23 vec(|Phi><Phi|) ],

where |Phi> = (|00> + |11>)/sqrt(2) and U23 swaps the middle two tensor
factors of the four-qubit index. g(t) is the trace norm of C minus one,
read from a 4x4 singular value decomposition one step at a time.

The state-level quantities the library reads off Bloch vectors instead live
here too: ``bloch_state`` (the coin state of a Bloch vector),
``reduced_coin_state`` (a 2x2 coin state after t steps, validated by
``_check_state``), the generic ``partial_trace`` of the dense lattice
oracle, ``trace_distance`` of two density matrices and the
``von_neumann_entropy`` of one, with the Pauli-basis vectorization ``_PAULI``.
``_square`` checks a matrix argument, raising this module's own
``ShapeMismatch`` (the library has none). ``signed_singular_choi_norms`` is
the 3x3 Choi norm with the sign of the smallest singular value read from the
singular vectors, where the library reads it from det A.
"""

from dataclasses import dataclass

import numpy as np

from ptwalk.channel import (
    ILL_CONDITION_LIMIT,
    PINV_RCOND,
    _bloch_matrices,
    _check_horizon,
    bloch_matrix_series,
    trace_norm,
)
from ptwalk.errors import PTWalkError
from ptwalk.measures import G_CLAMP, MeasureSeries, _check_bloch, _entropy_bits


class ShapeMismatch(PTWalkError):
    """Input array has the wrong shape for a reference helper."""


def _square(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """``a`` as a complex square matrix, or a stack (..., n, n) of them; ShapeMismatch or ValueError (non-finite) otherwise."""
    a = np.asarray(a, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a

# Row-major vec of I, sigma_x, sigma_y, sigma_z, as columns: vec(rho) =
# _PAULI (1, r) / 2 for rho = (I + r . sigma)/2, and _PAULI† _PAULI = 2 I.
_PAULI = np.array(
    [[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]], dtype=complex
)
# _PAULI_OUTER[i, j] = p_i p_j† / 2 for the columns p of _PAULI, so that
# L(t, 0) = _PAULI_OUTER[0, 0] + sum_ij M_ij(t) _PAULI_OUTER[i+1, j+1].
_PAULI_OUTER = np.einsum("ai,bj->ijab", _PAULI, _PAULI.conj()) / 2.0

_SWAP23 = np.kron(
    np.eye(2),
    np.kron(
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
        np.eye(2),
    ),
)
_PHI = np.zeros(4, dtype=complex)
_PHI[0] = _PHI[3] = 1.0 / np.sqrt(2.0)
_VEC_PHI = np.outer(_PHI, _PHI.conj()).reshape(16)


def bloch_state(r) -> np.ndarray:
    """Qubit state (I + r . sigma)/2 for a Bloch vector with |r| <= 1."""
    r = _check_bloch(r)
    return 0.5 * np.array(
        [[1.0 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1.0 - r[2]]]
    )


def _check_state(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"coin state must be 2x2, got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError(f"coin state trace {np.trace(rho)} != 1")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("coin state not Hermitian")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("coin state not positive semidefinite")
    return rho


def reduced_coin_state(ew, rho0: np.ndarray, t: int) -> np.ndarray:
    """Reduced coin state bloch_state(M(t) r0) after t steps, r0 the Bloch vector of ``rho0``.

    M(t) is evaluated directly, as the start of a one-step block, so it
    checks the rows ``bloch_matrix_series`` steps to by angle addition.
    """
    rho0 = _check_state(rho0)
    _check_horizon(ew, t)
    r0 = (_PAULI.conj().T @ rho0.reshape(4)).real[1:]
    return bloch_state(_bloch_matrices(ew, t, 1)[0, 0] @ r0)


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


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho, sigma) = ||rho - sigma||_1 / 2 for density matrices."""
    return 0.5 * trace_norm(np.asarray(rho, complex) - np.asarray(sigma, complex))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum p log2 p of the spectrum, eigenvalue dust clamped at 1e-12."""
    return float(_entropy_bits(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))))


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization: vec([[a,b],[c,d]]) = (a, b, c, d)."""
    m = _square(m)
    return m.reshape(-1)


def devec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`; length must be a perfect square."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ShapeMismatch(f"length {v.size} is not a perfect square")
    return v.reshape(n, n)


@dataclass(frozen=True)
class ChannelMatrix:
    """4x4 representation of the reduced map from step t_from to t_to."""

    t_from: int
    t_to: int
    matrix: np.ndarray
    condition_number: float
    ill_conditioned: bool = False


def _channels(bloch: np.ndarray, steps: np.ndarray) -> list[ChannelMatrix]:
    """4x4 matrices L(t, 0) = diag(1, M(t)) in the Pauli basis, with condition numbers."""
    stack = (bloch.reshape(-1, 9) @ _PAULI_OUTER[1:, 1:].reshape(9, 16)).reshape(-1, 4, 4)
    stack += _PAULI_OUTER[0, 0]
    sv = np.linalg.svd(stack, compute_uv=False)
    return [
        ChannelMatrix(0, int(t), matrix, float(s[0] / s[-1]) if s[-1] > 0 else np.inf)
        for t, matrix, s in zip(steps, stack, sv)
    ]


def channel_matrix(ew, t: int) -> ChannelMatrix:
    """Matrix L(t, 0) of the t-step reduced map on vectorized coin states."""
    _check_horizon(ew, t)
    return _channels(_bloch_matrices(ew, t, 1)[0], np.array([t]))[0]


def channel_matrix_series(ew, t_max: int) -> list[ChannelMatrix]:
    """L(t, 0) for t = 0..t_max, each diag(1, M(t)) in the Pauli basis."""
    return _channels(bloch_matrix_series(ew, t_max)[0], np.arange(t_max + 1))


def intermediate_from(l_from: ChannelMatrix, l_to: ChannelMatrix) -> ChannelMatrix:
    """L(t+1, t) from L(t, 0) and L(t+1, 0); pseudo-inverse fallback when near-singular."""
    cond = l_from.condition_number
    flagged = not np.isfinite(cond) or cond > ILL_CONDITION_LIMIT
    if flagged:
        inv = np.linalg.pinv(l_from.matrix, rcond=PINV_RCOND)
        matrix = l_to.matrix @ inv
    else:
        matrix = np.linalg.solve(l_from.matrix.conj().T, l_to.matrix.conj().T).conj().T
    return ChannelMatrix(l_from.t_to, l_to.t_to, matrix, cond, flagged)


def intermediate_map(ew, t: int) -> ChannelMatrix:
    """One-step map L(t+1, t) = L(t+1, 0) L(t, 0)^{-1}.

    The recorded condition number is that of L(t, 0); above 1e12 the inverse
    is replaced by a cutoff pseudo-inverse and the result is flagged.
    """
    series = channel_matrix_series(ew, t + 1)
    return intermediate_from(series[t], series[t + 1])


def choi_matrix(lmat) -> np.ndarray:
    """Choi matrix of the channel with 4x4 matrix representation ``lmat``.

    Accepts a ChannelMatrix or a raw 4x4 array. For a completely positive
    trace-preserving map the result is PSD with unit trace norm; trace-norm
    excess over 1 witnesses failure of complete positivity.
    """
    m = lmat.matrix if isinstance(lmat, ChannelMatrix) else np.asarray(lmat, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"channel matrix must be 4x4, got {m.shape}")
    v = _SWAP23 @ (np.kron(m, np.eye(4)) @ (_SWAP23 @ _VEC_PHI))
    return devec(v)


def signed_singular_choi_norms(maps: np.ndarray) -> np.ndarray:
    """Choi trace norms of unital qubit maps from their (..., 3, 3) Bloch matrices, sign from the singular vectors.

    The recipe the library's ``choi_trace_norms`` replaced: a full SVD
    A = U diag(l) V^T, the smallest singular value carrying det(U) det(V^T),
    then the four unit-trace Choi eigenvalues of the Pauli channel
    diag(l1, l2, l3).
    """
    u, lam, vt = np.linalg.svd(maps)
    lam[..., -1] *= np.sign(np.linalg.det(u) * np.linalg.det(vt))
    l1, l2, l3 = np.moveaxis(lam, -1, 0)
    mu = np.stack([1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3])
    return np.abs(mu / 4.0).sum(axis=0)


def rhp_from_channels(channels: list[ChannelMatrix]) -> MeasureSeries:
    """CP-indivisibility series from an already-built L(t, 0) family."""
    t_max = len(channels) - 1
    g = np.zeros(t_max + 1)
    flags = [""] * (t_max + 1)
    for t in range(1, t_max + 1):
        step = intermediate_from(channels[t - 1], channels[t])
        gt = trace_norm(choi_matrix(step)) - 1.0
        if gt < -G_CLAMP:
            flags[t] = f"g_negative({gt:.3e})"
        if step.ill_conditioned:
            flags[t] = (flags[t] + ";" if flags[t] else "") + f"ill_conditioned({step.condition_number:.3e})"
        g[t] = max(gt, 0.0)
    rhp = np.concatenate([[0.0], np.cumsum(g[1:])])
    return MeasureSeries(steps=np.arange(t_max + 1), g=g, rhp=rhp, flags=flags)


def _distance_series(stack: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Trace distances D(t) along a channel-matrix stack, t = 0..t_max.

    The evolved difference is Hermitian and traceless, so its trace norm is
    twice sqrt(x^2 + |z|^2) read from the difference's vectorized form.
    """
    x0 = vec(np.asarray(rho, complex) - np.asarray(sigma, complex))
    y = stack @ x0
    x = 0.5 * (y[:, 0] - y[:, 3]).real
    z = 0.5 * (y[:, 1] + np.conj(y[:, 2]))
    return np.sqrt(x**2 + np.abs(z) ** 2)


def _series_stack(channels: list[ChannelMatrix]) -> np.ndarray:
    return np.stack([c.matrix for c in channels])
