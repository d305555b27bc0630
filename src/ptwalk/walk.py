"""Split-step PT-symmetric walk in momentum space: parameters, grid, spectrum and threshold.

The one-step coin operation at momentum k is

    W_c(k) = C(theta1/2) S(k) G(-gamma) C(theta2) S(k) G(gamma) C(theta1/2)

with coin C(t) = [[cos t, i sin t], [i sin t, cos t]], shift
S(k) = diag(e^{ik}, e^{-ik}) and gain/loss G(g) = diag(e^g, e^{-g}).
Every factor has unit determinant, and complex conjugation inverts W_c,
which is the PT condition for this family. The library never forms that
product: ``channel`` reads W_c(k) = a(k) I - i sin H_c(k) in closed form.

The walk spectrum is governed by the scalar

    a(k) = cos(2k) cos(theta1) cos(theta2) - cosh(2 gamma) sin(theta1) sin(theta2)

with walk eigenvalues a +- sqrt(a^2 - 1) and quasi-energies -+acos(a).
|a(k)| < 1 on the whole grid is the unbroken regime; a = 1 is the
exceptional point, reached at k = 0 when gamma hits gamma_pt.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBreaking

# Guard band on |a(k)| < 1: the eigenvector formulas and the metric
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
    """Uniform grid k_n = -pi + 2 pi n / L for n = 0..L-1, evaluated as pi (2n - L) / L.

    That form makes the grid exactly antisymmetric in floating point:
    k_0 = -pi and k_{L-n} = -k_n bitwise, since 2n - L and L - 2n are exact
    and rounding is sign-symmetric. Every function of cos 2k, the angles
    eps_k among them, is then bitwise equal at k and -k, which
    ``channel`` uses to sum each +-k pair once.
    """
    return np.pi * ((2 * np.arange(lattice_size) - lattice_size) / lattice_size)


def spectral_a(k, p: WalkParams):
    """Spectral scalar a(k); accepts a scalar or an array of momenta."""
    return np.cos(2.0 * np.asarray(k)) * np.cos(p.theta1) * np.cos(p.theta2) - np.cosh(
        2.0 * p.gamma
    ) * np.sin(p.theta1) * np.sin(p.theta2)


def gamma_pt(theta1: float, theta2: float) -> float:
    """Symmetry-breaking threshold gamma_pt for the given coin angles.

    gamma_pt = (1/2) acosh((cos theta1 cos theta2 - 1) / (sin theta1 sin theta2)),
    defined only when the acosh argument is >= 1, which requires theta1 and
    theta2 of opposite sign. A non-finite angle raises ValueError naming it.
    """
    WalkParams(theta1, theta2, 0.0, 1)  # for its check of the angles
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
