"""Per-momentum and per-step loops, kept unchanged as test oracles.

These are the original implementations of the walk, metric and reduced-map
builders: every momentum block is built on its own, and the reduced map is
advanced one step at a time by multiplying 2x2 block powers. The library
builds all blocks at once and evaluates the reduced map in closed form as an
average of Bloch rotations; these loops check it through an independent path.
"""

import numpy as np

from ptwalk.channel import ChannelMatrix, CoinTrajectory, _check_horizon, _check_state
from ptwalk.errors import DegenerateAtK, NotPositive
from ptwalk.metric import _weights
from ptwalk.walk import UNBROKEN_MARGIN, coin, gain_loss, momentum_grid, spectral_a

# ------------------------------------------------------------------- walk


def walk_block(k: float, p) -> np.ndarray:
    """One-step coin operation W_c(k), one 2x2 product at a time."""
    half = coin(p.theta1 / 2.0)
    s = np.diag([np.exp(1j * k), np.exp(-1j * k)])
    return (
        half
        @ s
        @ gain_loss(-p.gamma)
        @ coin(p.theta2)
        @ s
        @ gain_loss(p.gamma)
        @ half
    )


def walk_blocks(p) -> np.ndarray:
    return np.stack([walk_block(k, p) for k in momentum_grid(p.lattice_size)])


# ----------------------------------------------------------------- metric


def _pick(form_a: np.ndarray, form_b: np.ndarray) -> np.ndarray:
    v = form_a if np.linalg.norm(form_a) >= np.linalg.norm(form_b) else form_b
    v = v / np.linalg.norm(v)
    lead = v[np.argmax(np.abs(v))]
    return v if lead > 0 else -v


def left_eigvecs(k: float, p) -> tuple[np.ndarray, np.ndarray, float]:
    """(r_plus, r_minus, eps_k) of H_c(k)† at one momentum."""
    a = float(spectral_a(k, p))
    if abs(a) >= 1.0 - UNBROKEN_MARGIN:
        raise DegenerateAtK(f"|a({k:.6f})| = {abs(a):.15f} at or beyond coalescence")
    d1 = np.cosh(2 * p.gamma) * np.cos(p.theta1) * np.sin(p.theta2) + np.sin(
        p.theta1
    ) * np.cos(p.theta2) * np.cos(2 * k)
    d2 = -np.sin(p.theta2) * np.sinh(2 * p.gamma)
    d3 = np.cos(p.theta2) * np.sin(2 * k)
    eps = np.arccos(a)
    s = np.sin(eps)
    r_plus = _pick(np.array([d1 - d2, -d3 - s]), np.array([d3 - s, d1 + d2]))
    r_minus = _pick(np.array([d1 - d2, -d3 + s]), np.array([d3 + s, d1 + d2]))
    return r_plus.astype(complex), r_minus.astype(complex), eps


def metric_blocks(p, spec) -> np.ndarray:
    """Metric blocks of the unbroken regime (no flat-Hermitian shortcut)."""
    ks = momentum_grid(p.lattice_size)
    w = _weights(spec, len(ks))
    blocks = np.empty((len(ks), 2, 2), dtype=complex)
    for i, k in enumerate(ks):
        r_plus, r_minus, _ = left_eigvecs(k, p)
        g = w[i, 0] * (np.outer(r_plus, r_plus.conj()) + w[i, 1] * np.outer(r_minus, r_minus.conj()))
        g = (g + g.conj().T) / 2.0
        blocks[i] = g / np.trace(g).real
    return blocks


def unitary_frame(metric: np.ndarray, walk: np.ndarray):
    """(eta, eta^-1, W_eta, unitarity residual), one block at a time."""
    etas = np.empty_like(metric)
    eta_invs = np.empty_like(metric)
    w_etas = np.empty_like(metric)
    for i, block in enumerate(metric):
        vals, vecs = np.linalg.eigh(block)
        if vals.min() <= 0:
            raise NotPositive(f"metric block {i} not positive definite")
        etas[i] = (vecs * np.sqrt(vals)) @ vecs.conj().T
        eta_invs[i] = (vecs / np.sqrt(vals)) @ vecs.conj().T
        w_etas[i] = etas[i] @ walk[i] @ eta_invs[i]
    residual = max(float(np.abs(b.conj().T @ b - np.eye(2)).max()) for b in w_etas)
    return etas, eta_invs, w_etas, residual


# ---------------------------------------------------------------- channel

_MATRIX_UNITS = np.zeros((4, 2, 2), dtype=complex)
for _i in range(2):
    for _j in range(2):
        _MATRIX_UNITS[2 * _i + _j, _i, _j] = 1.0


def coin_trajectory(ew, rho0: np.ndarray, t_max: int) -> CoinTrajectory:
    """Reduced coin states for every step 0..t_max (incremental block powers)."""
    rho0 = _check_state(rho0)
    _check_horizon(ew, t_max)
    w = ew.w_eta_blocks.blocks
    n = len(ew.w_eta_blocks)
    states = np.empty((t_max + 1, 2, 2), dtype=complex)
    states[0] = rho0
    acc = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    for t in range(1, t_max + 1):
        acc = np.einsum("kab,kbc->kac", w, acc)
        rho = np.einsum("kab,bc,kdc->ad", acc, rho0, acc.conj()) / n
        states[t] = (rho + rho.conj().T) / 2.0
    return CoinTrajectory(np.arange(t_max + 1), states)


def _channel_from_powers(powers: np.ndarray, t: int) -> ChannelMatrix:
    mapped = np.einsum("kab,xbc,kdc->xad", powers, _MATRIX_UNITS, powers.conj())
    mapped /= powers.shape[0]
    matrix = np.stack([mapped[x].reshape(4) for x in range(4)], axis=1)
    sv = np.linalg.svd(matrix, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return ChannelMatrix(0, t, matrix, cond)


def channel_matrix_series(ew, t_max: int) -> list[ChannelMatrix]:
    """L(t, 0) for t = 0..t_max, sharing the incremental block powers."""
    _check_horizon(ew, t_max)
    w = ew.w_eta_blocks.blocks
    acc = np.tile(np.eye(2, dtype=complex), (len(ew.w_eta_blocks), 1, 1))
    out = [_channel_from_powers(acc, 0)]
    for t in range(1, t_max + 1):
        acc = np.einsum("kab,kbc->kac", w, acc)
        out.append(_channel_from_powers(acc, t))
    return out
