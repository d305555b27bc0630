"""Split-step PT-symmetric walk operator in momentum space.

The one-step coin operation at momentum k is

    W_c(k) = C(theta1/2) S(k) G(-gamma) C(theta2) S(k) G(gamma) C(theta1/2)

with coin C(t) = [[cos t, i sin t], [i sin t, cos t]], shift
S(k) = diag(e^{ik}, e^{-ik}) and gain/loss G(g) = diag(e^g, e^{-g}).
Every factor has unit determinant, and complex conjugation inverts W_c,
which is the PT condition for this family.

The walk spectrum is governed by the scalar

    a(k) = cos(2k) cos(theta1) cos(theta2) - cosh(2 gamma) sin(theta1) sin(theta2)

with walk eigenvalues a +- sqrt(a^2 - 1) and quasi-energies -+acos(a).
|a(k)| < 1 on the whole grid is the unbroken regime; a = 1 is the
exceptional point, reached at k = 0 when gamma hits gamma_pt.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BrokenRegime, NoBreaking
from .linalg import unitary_log

# Guard band on |a(k)| < 1: the matrix log and the eigenvector formulas
# degrade as eigenvalues coalesce, so refuse rather than return garbage.
UNBROKEN_MARGIN = 1e-12


@dataclass(frozen=True)
class WalkParams:
    """Angles, non-Hermiticity and lattice size defining one walk family."""

    theta1: float
    theta2: float
    gamma: float
    lattice_size: int

    def __post_init__(self):
        for name in ("theta1", "theta2", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        size = self.lattice_size
        if size < 1 or size % 2 == 0:
            raise ValueError(f"lattice_size must be odd and positive, got {size}")


def momentum_grid(lattice_size: int) -> np.ndarray:
    """Uniform grid k_n = -pi + 2 pi n / L for n = 0..L-1."""
    return -np.pi + 2.0 * np.pi * np.arange(lattice_size) / lattice_size


@dataclass(frozen=True)
class BlockOperator:
    """Operator diagonal in momentum: one 2x2 block per grid point."""

    points: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        if self.blocks.shape != (len(self.points), 2, 2):
            raise ValueError(
                f"blocks shape {self.blocks.shape} does not match grid of "
                f"{len(self.points)} points"
            )

    def __len__(self) -> int:
        return len(self.points)


def coin(theta: float) -> np.ndarray:
    """SU(2) coin rotation C(theta); symmetric, unitary, det 1."""
    c, s = np.cos(theta), 1j * np.sin(theta)
    return np.array([[c, s], [s, c]])


def shift_block(k) -> np.ndarray:
    """Momentum-space conditional shift S(k) = diag(e^{ik}, e^{-ik}).

    An array of momenta gives the stack of blocks, shape k.shape + (2, 2).
    """
    k = np.asarray(k, dtype=float)
    s = np.zeros(k.shape + (2, 2), dtype=complex)
    s[..., 0, 0] = np.exp(1j * k)
    s[..., 1, 1] = np.exp(-1j * k)
    return s


def gain_loss(gamma: float) -> np.ndarray:
    """Balanced gain/loss G(gamma) = diag(e^gamma, e^{-gamma})."""
    return np.diag([np.exp(gamma), np.exp(-gamma)]).astype(complex)


def _walk_blocks(ks: np.ndarray, p: WalkParams) -> np.ndarray:
    """W_c(k) for every momentum of ``ks``: the factor product, broadcast over k."""
    half = coin(p.theta1 / 2.0)
    s = shift_block(ks)
    return half @ s @ gain_loss(-p.gamma) @ coin(p.theta2) @ s @ gain_loss(p.gamma) @ half


def walk_block(k: float, p: WalkParams) -> np.ndarray:
    """One-step coin operation W_c(k) for the given walk family.

    A one-point call of the batched product, so it equals the matching block
    of :func:`walk_operator` exactly.
    """
    return _walk_blocks(np.array([k], dtype=float), p)[0]


def spectral_a(k, p: WalkParams):
    """Spectral scalar a(k); accepts a scalar or an array of momenta."""
    return np.cos(2.0 * np.asarray(k)) * np.cos(p.theta1) * np.cos(p.theta2) - np.cosh(
        2.0 * p.gamma
    ) * np.sin(p.theta1) * np.sin(p.theta2)


def gamma_pt(theta1: float, theta2: float) -> float:
    """Symmetry-breaking threshold gamma_pt for the given coin angles.

    gamma_pt = (1/2) acosh((cos theta1 cos theta2 - 1) / (sin theta1 sin theta2)),
    defined only when the acosh argument is >= 1, which requires theta1 and
    theta2 of opposite sign.
    """
    denom = math.sin(theta1) * math.sin(theta2)
    if denom == 0.0:
        raise NoBreaking("sin(theta1) sin(theta2) = 0: no finite threshold")
    arg = (math.cos(theta1) * math.cos(theta2) - 1.0) / denom
    if arg < 1.0 - 1e-12:
        raise NoBreaking(f"acosh argument {arg:.6f} < 1: symmetry never breaks")
    return 0.5 * math.acosh(max(arg, 1.0))


def is_unbroken(p: WalkParams) -> bool:
    """True when |a(k)| < 1 - 1e-12 at every grid momentum."""
    a = spectral_a(momentum_grid(p.lattice_size), p)
    return bool(np.all(np.abs(a) < 1.0 - UNBROKEN_MARGIN))


def walk_operator(p: WalkParams) -> BlockOperator:
    """All momentum blocks W_c(k_n), n = 0..L-1, in grid order.

    Built as one (L, 2, 2) product: the shift factors S(k) are stacked over
    the grid and the k-independent coin and gain/loss factors broadcast.
    """
    ks = momentum_grid(p.lattice_size)
    return BlockOperator(ks, _walk_blocks(ks, p))


def hamiltonian(p: WalkParams) -> BlockOperator:
    """Blockwise effective Hamiltonian H_c(k) with exp(-i H_c(k)) = W_c(k).

    Computed from the 2x2 blocks, never from the full lattice matrix; the
    quasi-energies are -+acos(a(k)), real throughout the unbroken regime.
    """
    if not is_unbroken(p):
        raise BrokenRegime("spectrum not real on the whole grid; no Hamiltonian")
    w = walk_operator(p)
    return BlockOperator(w.points, np.stack([unitary_log(b) for b in w.blocks]))
