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

The metric picks only the axes n_k. The angles are read from a(k)
(``spectral_a``), not from the trace of W_eta(k): they are then
bit-identical across metrics, so in the Hermitian limit the reduced maps of
different metrics differ only by roundoff in the axes, and the inversions
behind the CP-indivisibility measure do not amplify a metric-dependent angle
error. Where |a(k)| = 1, which only a unitary walk under the flat metric
admits, the block is +-I up to roundoff: its angle is read from the block,
and the axis is arbitrary where the rotation is exactly the identity. The
sums over k run in blocks of steps holding at most BLOCK_ELEMENTS
(step, momentum) entries, so the cos/sin temporaries stay bounded at any
horizon.

The t-step map is also represented by a 4x4 matrix L(t, 0) acting on
row-major vectorized coin states, with columns vec(map(E_ij)) over the
matrix units in the order E11, E12, E21, E22. The maps are unital, so
L(t, 0) is diag(1, M(t)) in the Pauli basis (I, sigma_x, sigma_y,
sigma_z)/sqrt(2). Map composition is matrix multiplication, so the one-step
intermediate map is L(t+1, t) = L(t+1, 0) L(t, 0)^{-1}, and its Choi matrix is

    C = devec[ U23 (L (x) I4) U23 vec(|Phi><Phi|) ],

where |Phi> = (|00> + |11>)/sqrt(2) and U23 swaps the middle two tensor
factors of the four-qubit index.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrokenRegime, LightConeViolation, NotPositive
from .linalg import devec
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
# Cap on the (steps x momenta) cos/sin temporaries of the closed form.
BLOCK_ELEMENTS = 1 << 14

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


@dataclass(frozen=True)
class CoinTrajectory:
    """Reduced coin states rho_c(0..t_max); states has shape (t_max+1, 2, 2)."""

    steps: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class ChannelMatrix:
    """4x4 representation of the reduced map from step t_from to t_to."""

    t_from: int
    t_to: int
    matrix: np.ndarray
    condition_number: float
    ill_conditioned: bool = False


def build_euclidean_walk(p: WalkParams, spec: MetricSpec) -> EuclideanWalk:
    """Construct the metric, its square root and the unitary blocks W_eta(k).

    One stacked ``eigh`` of the (L, 2, 2) metric gives eta = sqrt(G), its
    inverse and the blocks W_eta = eta W_c eta^{-1} for the whole grid.
    """
    if not is_unbroken(p) and not (p.gamma == 0.0 and spec.kind == "g1_flat"):
        raise BrokenRegime("walk is at or beyond its exceptional point")
    g = build_metric(p, spec)
    w = walk_operator(p)
    vals, vecs = np.linalg.eigh(g.blocks)
    bad = np.flatnonzero(vals[:, 0] <= 0)
    if bad.size:
        raise NotPositive(f"metric block {bad[0]} not positive definite")
    vecs_h = vecs.conj().swapaxes(1, 2)
    root = np.sqrt(vals)[:, None, :]
    etas = (vecs * root) @ vecs_h
    eta_invs = (vecs / root) @ vecs_h
    w_etas = etas @ w.blocks @ eta_invs
    residual = float(np.abs(w_etas.conj().swapaxes(1, 2) @ w_etas - np.eye(2)).max())
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


def _bloch_matrices(ew: EuclideanWalk, steps: np.ndarray) -> np.ndarray:
    """M(t) for every t of ``steps``, shape (len(steps), 3, 3), in closed form."""
    eps, n = _rotations(ew)
    size = len(eps)
    transverse = (np.eye(3) - n[:, :, None] * n[:, None, :]).reshape(size, 9) / size
    cross = np.zeros((size, 3, 3))
    cross[:, 0, 1], cross[:, 0, 2] = -n[:, 2], n[:, 1]
    cross[:, 1, 0], cross[:, 1, 2] = n[:, 2], -n[:, 0]
    cross[:, 2, 0], cross[:, 2, 1] = -n[:, 1], n[:, 0]
    cross = cross.reshape(size, 9) / size
    out = np.empty((len(steps), 9))
    chunk = max(1, BLOCK_ELEMENTS // size)
    for lo in range(0, len(steps), chunk):
        # two (chunk, L) temporaries: sin(t eps) cos(t eps) and sin^2(t eps)
        sin_cos = np.multiply.outer(steps[lo : lo + chunk], eps)
        sin_sq = np.sin(sin_cos)
        np.cos(sin_cos, out=sin_cos)
        sin_cos *= sin_sq
        sin_sq *= sin_sq
        out[lo : lo + chunk] = 2.0 * (sin_cos @ cross - sin_sq @ transverse)
    out += np.eye(3).reshape(9)
    return out.reshape(-1, 3, 3)


def bloch_matrix_series(ew: EuclideanWalk, t_max: int) -> np.ndarray:
    """Real 3x3 Bloch matrices M(t) of the reduced maps, t = 0..t_max.

    The t-step map sends the Bloch vector r of a coin state to M(t) r; see
    the module docstring for the closed form.
    """
    _check_horizon(ew, t_max)
    return _bloch_matrices(ew, np.arange(t_max + 1))


def _bloch_vector(rho: np.ndarray) -> np.ndarray:
    return (_PAULI.conj().T @ rho.reshape(4)).real[1:]


def _coin_states(r: np.ndarray) -> np.ndarray:
    """States (I + r . sigma)/2 for the rows of the (n, 3) Bloch vectors ``r``."""
    ones = np.ones((len(r), 1))
    return (np.concatenate([ones, r], axis=1) @ _PAULI.T / 2.0).reshape(-1, 2, 2)


def reduced_coin_state(ew: EuclideanWalk, rho0: np.ndarray, t: int) -> np.ndarray:
    """Reduced coin state after t steps of the unitary-frame walk."""
    rho0 = _check_state(rho0)
    _check_horizon(ew, t)
    return _coin_states(_bloch_matrices(ew, np.array([t])) @ _bloch_vector(rho0))[0]


def coin_trajectory(ew: EuclideanWalk, rho0: np.ndarray, t_max: int) -> CoinTrajectory:
    """Reduced coin states for every step 0..t_max.

    rho_c(t) = (I + (M(t) r0) . sigma)/2, with M(t) from the closed form.
    """
    rho0 = _check_state(rho0)
    return CoinTrajectory(
        np.arange(t_max + 1), _coin_states(bloch_matrix_series(ew, t_max) @ _bloch_vector(rho0))
    )


def _channels(bloch: np.ndarray, steps: np.ndarray) -> list[ChannelMatrix]:
    """4x4 matrices L(t, 0) = diag(1, M(t)) in the Pauli basis, with condition numbers."""
    stack = (bloch.reshape(-1, 9) @ _PAULI_OUTER[1:, 1:].reshape(9, 16)).reshape(-1, 4, 4)
    stack += _PAULI_OUTER[0, 0]
    sv = np.linalg.svd(stack, compute_uv=False)
    return [
        ChannelMatrix(0, int(t), matrix, float(s[0] / s[-1]) if s[-1] > 0 else np.inf)
        for t, matrix, s in zip(steps, stack, sv)
    ]


def channel_matrix(ew: EuclideanWalk, t: int) -> ChannelMatrix:
    """Matrix L(t, 0) of the t-step reduced map on vectorized coin states."""
    _check_horizon(ew, t)
    steps = np.array([t])
    return _channels(_bloch_matrices(ew, steps), steps)[0]


def channel_matrix_series(ew: EuclideanWalk, t_max: int) -> list[ChannelMatrix]:
    """L(t, 0) for t = 0..t_max, each diag(1, M(t)) in the Pauli basis.

    All M(t) come from one closed-form evaluation (:func:`bloch_matrix_series`);
    no block powers are taken.
    """
    return _channels(bloch_matrix_series(ew, t_max), np.arange(t_max + 1))


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


def intermediate_map(ew: EuclideanWalk, t: int) -> ChannelMatrix:
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


def channel_to_json_dict(cm: ChannelMatrix) -> dict:
    """JSON-friendly export of a channel matrix for external verification."""
    return {
        "t_from": cm.t_from,
        "t_to": cm.t_to,
        "condition_number": cm.condition_number,
        "ill_conditioned": cm.ill_conditioned,
        "matrix_re": cm.matrix.real.tolist(),
        "matrix_im": cm.matrix.imag.tolist(),
    }


def channel_from_json_dict(d: dict) -> ChannelMatrix:
    matrix = np.asarray(d["matrix_re"], dtype=float) + 1j * np.asarray(
        d["matrix_im"], dtype=float
    )
    return ChannelMatrix(
        d["t_from"], d["t_to"], matrix, d["condition_number"], d["ill_conditioned"]
    )


def write_trajectory_csv(traj: CoinTrajectory, path) -> None:
    """CSV export: one row per step with re/im of the four coin-state entries."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "re_r11", "im_r11", "re_r12", "im_r12", "re_r21", "im_r21", "re_r22", "im_r22"]
        )
        for t, state in zip(traj.steps, traj.states):
            row = [int(t)]
            for entry in state.reshape(-1):
                row += [repr(float(entry.real)), repr(float(entry.imag))]
            writer.writerow(row)
