"""Reduced coin dynamics in the unitary frame: a momentum average of Bloch rotations.

The similarity W_eta(k) = eta(k) W_c(k) eta(k)^{-1} is unitary in the
unbroken regime and has unit determinant, so every block is an SU(2)
rotation

    W_eta(k) = cos(eps_k) I - i sin(eps_k) (n_k . sigma),    cos(eps_k) = a(k).

Starting the walker at the origin with coin state rho_c = (I + r . sigma)/2,
the reduced coin state after t steps is the momentum average

    rho_c(t) = (1/L) sum_k W_eta(k)^t rho_c W_eta(k)†^t = (I + (M(t) r) . sigma)/2,

and the real 3x3 Bloch matrix M(t) has the closed form

    M(t) = (1/L) sum_k [ n_k n_k^T + cos(2t eps_k)(I - n_k n_k^T) + sin(2t eps_k) [n_k]_x ],

evaluated as I - (1/L) sum_k 2 sin^2(t eps_k)(I - n_k n_k^T) + (1/L) sum_k
sin(2t eps_k) [n_k]_x, which is exactly I at t = 0. No block powers are taken.
The steps run in blocks t = t0 + j, j < chunk, and the phases are stepped,
not recomputed: sin and cos of j eps_k are tabulated once, sin and cos of
t0 eps_k are evaluated directly once per block, and the angle-addition
identity e^{i(t0+j)eps} = e^{i t0 eps} e^{i j eps} combines them in real
arithmetic. That takes about (chunk + T/chunk) L transcendentals for T steps
instead of T L. Every block start is evaluated directly, so the roundoff
does not accumulate from block to block, and the first block (t0 = 0)
equals the direct evaluation bit for bit.

The metric picks only the axes n_k. The angles are read from a(k)
(``spectral_a``), not from the trace of W_eta(k): they are then
bit-identical across metrics, so in the Hermitian limit the reduced maps of
different metrics differ only by roundoff in the axes, and the inversions
behind the CP-indivisibility measure do not amplify a metric-dependent angle
error. Where |a(k)| = 1, which only a unitary walk under the flat metric
admits, the block is +-I up to roundoff: its angle is read from the block,
and the axis is arbitrary where the rotation is exactly the identity. A
block of steps holds at most BLOCK_ELEMENTS (step, momentum) entries, so the
phase table and the cos/sin temporaries stay bounded at any horizon.

A step from t-1 to t is the map A(t) = M(t) M(t-1)^{-1}, again unital. The
Choi matrix of a unital qubit map has a closed-form spectrum (King & Ruskai,
IEEE TIT 47, 192 (2001)): with the singular values l1 >= l2 >= l3 of A, the
smallest carrying the sign det(U) det(V^T) of its singular vectors, A is a
Pauli channel diag(l1, l2, l3) up to rotations before and after, which leave
the Choi spectrum unchanged, and the unit-trace Choi eigenvalues are

    mu = (1 + l1 + l2 + l3)/4, (1 + l1 - l2 - l3)/4,
         (1 - l1 + l2 - l3)/4, (1 - l1 - l2 + l3)/4.

Their absolute sum is the Choi trace norm: 1 for a completely positive step,
2 for the transpose map diag(1, -1, 1). In the Pauli basis (I, sigma_x,
sigma_y, sigma_z)/sqrt(2) the 4x4 map on vectorized coin states is
diag(1, M(t)), so the conditioning of an inversion is that of diag(1, M).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrokenRegime, LightConeViolation
from .linalg import _mul2, sqrt_and_inv
from .metric import MetricSpec, build_metric
from .walk import (
    UNBROKEN_MARGIN,
    BlockOperator,
    WalkParams,
    is_unbroken,
    spectral_a,
    walk_operator,
)

# Condition number beyond which the intermediate-map inversion is flagged
# and a cutoff pseudo-inverse is used instead of a direct solve.
ILL_CONDITION_LIMIT = 1e12
PINV_RCOND = 1e-12
# Cap on the (steps x momenta) entries of a block of the closed form: it
# bounds the sin/cos table of the in-block phases and the temporaries.
BLOCK_ELEMENTS = 1 << 14

# Row-major vec of I, sigma_x, sigma_y, sigma_z, as columns: vec(rho) =
# _PAULI (1, r) / 2 for rho = (I + r . sigma)/2, and _PAULI† _PAULI = 2 I.
_PAULI = np.array(
    [[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]], dtype=complex
)


@dataclass(frozen=True)
class EuclideanWalk:
    """Walk mapped to the unitary frame of a chosen metric.

    ``ep_gap`` is min_k (1 - |a(k)|), the distance of the grid spectrum from
    the exceptional point; ``metric_condition_max`` is the largest
    lambda_max / lambda_min over the metric blocks.
    """

    params: WalkParams
    spec: MetricSpec
    metric: BlockOperator
    eta_blocks: BlockOperator
    eta_inv_blocks: BlockOperator
    w_eta_blocks: BlockOperator
    unitarity_residual: float
    ep_gap: float
    metric_condition_max: float


def build_euclidean_walk(p: WalkParams, spec: MetricSpec) -> EuclideanWalk:
    """Construct the metric, its square root and the unitary blocks W_eta(k).

    eta = sqrt(G) is the closed-form 2x2 root (``linalg.sqrt_and_inv``); W_eta =
    eta W_c eta^{-1} and W_eta† W_eta - I are explicit 2x2 products over the grid.
    """
    if not is_unbroken(p) and not (p.gamma == 0.0 and spec.kind == "g1_flat"):
        raise BrokenRegime("walk is at or beyond its exceptional point")
    g = build_metric(p, spec)
    w = walk_operator(p)
    etas, eta_invs, vals = sqrt_and_inv(g.blocks)
    w_etas = _mul2(_mul2(etas, w.blocks), eta_invs)
    residual = float(np.abs(_mul2(w_etas.conj().swapaxes(1, 2), w_etas) - np.eye(2)).max())
    return EuclideanWalk(
        params=p,
        spec=spec,
        metric=g,
        eta_blocks=BlockOperator(g.points, etas),
        eta_inv_blocks=BlockOperator(g.points, eta_invs),
        w_eta_blocks=BlockOperator(g.points, w_etas),
        unitarity_residual=residual,
        ep_gap=float((1.0 - np.abs(spectral_a(g.points, p))).min()),
        metric_condition_max=float((vals[:, 1] / vals[:, 0]).max()),
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


def _check_horizon(ew: EuclideanWalk, t: int) -> None:
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if ew.params.lattice_size < 2 * t + 1:
        raise LightConeViolation(
            f"lattice size {ew.params.lattice_size} < 2*{t}+1 needed for the light cone"
        )


def _rotations(ew: EuclideanWalk) -> tuple[np.ndarray, np.ndarray]:
    """Angles eps_k, shape (L,), and unit axes n_k, shape (L, 3), of the blocks."""
    w = ew.w_eta_blocks.blocks
    # sin(eps) n read off W = cos(eps) I - i sin(eps) (n . sigma)
    v = np.stack(
        [
            (0.5j * (w[:, 0, 1] + w[:, 1, 0])).real,
            (0.5 * (w[:, 1, 0] - w[:, 0, 1])).real,
            (0.5j * (w[:, 0, 0] - w[:, 1, 1])).real,
        ],
        axis=1,
    )
    sin_eps = np.linalg.norm(v, axis=1)
    a = spectral_a(ew.w_eta_blocks.points, ew.params)
    # |a| = 1 only for a unitary walk under the flat metric, where the block
    # is +-I up to roundoff: acos(a) would amplify that roundoff, atan2 does not
    degenerate = np.abs(a) >= 1.0 - UNBROKEN_MARGIN
    eps = np.where(
        degenerate,
        np.arctan2(sin_eps, 0.5 * np.trace(w, axis1=1, axis2=2).real),
        np.arccos(np.clip(a, -1.0, 1.0)),
    )
    axes = np.zeros_like(v)
    axes[:, 2] = 1.0  # any axis will do where the rotation is the identity
    turning = sin_eps > 0.0
    axes[turning] = v[turning] / sin_eps[turning, None]
    return eps, axes


def _bloch_matrices(ew: EuclideanWalk, start: int, count: int) -> np.ndarray:
    """M(t) for t = start..start+count-1, shape (count, 3, 3), in closed form."""
    eps, n = _rotations(ew)
    size = len(eps)
    transverse = (np.eye(3) - n[:, :, None] * n[:, None, :]).reshape(size, 9) / size
    cross = np.zeros((size, 3, 3))
    cross[:, 0, 1], cross[:, 0, 2] = -n[:, 2], n[:, 1]
    cross[:, 1, 0], cross[:, 1, 2] = n[:, 2], -n[:, 0]
    cross[:, 2, 0], cross[:, 2, 1] = -n[:, 1], n[:, 0]
    cross = cross.reshape(size, 9) / size
    chunk = min(count, max(1, BLOCK_ELEMENTS // size))
    # phases j eps of the steps within a block, j < chunk
    sin_j = np.multiply.outer(np.arange(chunk), eps)
    cos_j = np.cos(sin_j)
    np.sin(sin_j, out=sin_j)
    out = np.empty((count, 9))
    for lo in range(0, count, chunk):
        rows = min(chunk, count - lo)
        # the block start t0 eps, evaluated directly; (t0 + j) eps by angle addition
        phase = (start + lo) * eps
        sin_0, cos_0 = np.sin(phase), np.cos(phase)
        sin = sin_j[:rows] * cos_0
        sin += cos_j[:rows] * sin_0
        cos = cos_j[:rows] * cos_0
        cos -= sin_j[:rows] * sin_0
        cos *= sin  # sin(t eps) cos(t eps)
        sin *= sin  # sin^2(t eps)
        out[lo : lo + rows] = 2.0 * (cos @ cross - sin @ transverse)
    out += np.eye(3).reshape(9)
    return out.reshape(-1, 3, 3)


def bloch_matrix_series(ew: EuclideanWalk, t_max: int) -> np.ndarray:
    """Real 3x3 Bloch matrices M(t) of the reduced maps, t = 0..t_max.

    The t-step map sends the Bloch vector r of a coin state to M(t) r; see
    the module docstring for the closed form.
    """
    _check_horizon(ew, t_max)
    return _bloch_matrices(ew, 0, t_max + 1)


def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    return (_PAULI.conj().T @ rho.reshape(4)).real[1:]


def reduced_coin_state(ew: EuclideanWalk, rho0: np.ndarray, t: int) -> np.ndarray:
    """Reduced coin state (I + (M(t) r0) . sigma)/2 after t steps of the unitary-frame walk."""
    rho0 = _check_state(rho0)
    _check_horizon(ew, t)
    r = _bloch_matrices(ew, t, 1)[0] @ _bloch_vector(rho0)
    return (np.concatenate([[1.0], r]) @ _PAULI.T / 2.0).reshape(2, 2)


def intermediate_maps(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step maps A(t) = M(t) M(t-1)^{-1}, t = 1..t_max, from the stack M(0..t_max).

    Returns the (t_max, 3, 3) maps, the condition number of each inverted
    map L(t-1, 0) = diag(1, M(t-1)), which is max(1, s_max) / min(1, s_min)
    over the singular values s of M(t-1), and a mask of the steps where it
    exceeds ILL_CONDITION_LIMIT. Those steps use the cutoff pseudo-inverse of
    L(t-1, 0) instead of the inverse; all others share one batched solve.
    """
    prev, cur = bloch[:-1], bloch[1:]
    sv = np.linalg.svd(prev, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = np.maximum(sv[:, 0], 1.0) / np.minimum(sv[:, -1], 1.0)
    flagged = ~(cond <= ILL_CONDITION_LIMIT)
    maps = np.empty_like(cur)
    solved = ~flagged
    # A M(t-1) = M(t) is solved as M(t-1)^T A^T = M(t)^T
    maps[solved] = np.linalg.solve(
        prev[solved].swapaxes(1, 2), cur[solved].swapaxes(1, 2)
    ).swapaxes(1, 2)
    for i in np.flatnonzero(flagged):
        # numpy's pinv cutoff, relative to the largest singular value of diag(1, M)
        u, s, vt = np.linalg.svd(prev[i])
        keep = s > PINV_RCOND * max(1.0, s[0])
        maps[i] = cur[i] @ (vt[keep].T / s[keep]) @ u[:, keep].T
    return maps, cond, flagged


def choi_trace_norms(maps: np.ndarray) -> np.ndarray:
    """Trace norms of the Choi matrices of unital qubit maps, from their Bloch matrices.

    ``maps`` has shape (..., 3, 3); see the module docstring for the
    signed-singular-value recipe. The result is 1 for a completely positive
    map and exceeds 1 otherwise.
    """
    u, lam, vt = np.linalg.svd(maps)
    lam[..., -1] *= np.sign(np.linalg.det(u) * np.linalg.det(vt))
    l1, l2, l3 = np.moveaxis(lam, -1, 0)
    mu = np.stack([1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3])
    return np.abs(mu / 4.0).sum(axis=0)
