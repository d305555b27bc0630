"""Two-qubit toy study: product versus non-product metrics.

The Hamiltonian is a tensor product H = h_A (x) h_B of 2x2 blocks with real
spectrum, and the whole study is read in its biorthonormal eigenbasis
(Mostafazadeh, J. Math. Phys. 43, 205 (2002)). One stacked ``eig`` of the
two factors gives the eigenvalues lambda of H and its right and left vectors
R = r_A (x) r_B and L = l_A (x) l_B = inv(R)†. Every metric compatible with H
is G = L diag(w) L† with positive weights w, so R† G R = diag(w):

- 'product1' and 'product2' are G_A (x) G_B, with the weights w_A (x) w_B;
- 'nonproduct' is T† G_1 T with T = exp(s H), which mixes the factors; its
  weights are e^{2 s lambda} w_1, so no matrix exponential is formed.

Each metric's frame V = sqrt(G) R diag(w)^{-1/2} is unitary and carries H to
eta H eta^-1 = V diag(lambda) V†, so the maximally entangled state
c = (e_00 + e_11)/sqrt 2 of the local eigenbases, taken in the frame of G_1,
evolves under metric m as psi_m(t) = V_m e^{-i lambda t} c; the transport
between the frames is U_m = V_m V_1†. S(t) is the entropy of the Schmidt
weights of psi_m(t). Product metrics keep the evolution locally generated,
so S stays at one bit; the non-product metric starts it below one bit and
makes it move.

The eigenpairs are put in a gauge the program fixes, not LAPACK: each
factor's pairs ascend in eigenvalue (the metric weights are listed in that
order), and each unit right vector is rephased so that its lead component,
the first at least half the largest in magnitude, is real and positive; the
left vectors take the same phases. The components of a PT-symmetric block's
eigenvectors have equal magnitude, so the lead is not simply the larger one.

Two parameter variants are provided. 'pt_phase' uses complex PT-symmetric
blocks (diagonals e^{+-i a}) whose spectrum is real while the blocks are
genuinely non-Hermitian; this is the variant that exhibits the dichotomy.
'real' uses real-symmetric blocks (diagonals e^{+-a}); those are Hermitian,
every admissible metric then commutes with H, the unitary-frame data is
metric-independent, and all three entropy curves stay flat at one bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import ConfigInvalid, SpectrumNotReal
from .linalg import eig, metric_root
from .measures import _entropy_bits

REAL_SPECTRUM_TOL = 1e-10
METRICS = ("product1", "product2", "nonproduct")


def toy_hamiltonians(variant: str = "pt_phase") -> tuple[np.ndarray, np.ndarray]:
    """The two 2x2 blocks, with diagonals e^{+-1.2}/e^{+-2.3} real or phased."""
    if variant == "pt_phase":
        h_a = np.array([[np.exp(1.2j), 1.2], [1.2, np.exp(-1.2j)]])
        h_b = np.array([[np.exp(2.3j), 1.4], [1.4, np.exp(-2.3j)]])
    elif variant == "real":
        h_a = np.array([[np.exp(1.2), 1.2], [1.2, np.exp(-1.2)]], dtype=complex)
        h_b = np.array([[np.exp(2.3), 1.4], [1.4, np.exp(-2.3)]], dtype=complex)
    else:
        raise ValueError(f"unknown toy variant {variant!r}")
    return h_a, h_b


Block = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class ToyConfig(Config):
    """Hamiltonian blocks, metric weights and the evolution window.

    Custom blocks ``h_a``, ``h_b``, given as any 2x2 arrays, are kept as rows of complex numbers.
    """

    variant: str = "pt_phase"
    h_a: Block | None = None
    h_b: Block | None = None
    weights_a1: tuple[float, float] = (1.0, 1.0)
    weights_b1: tuple[float, float] = (1.0, 1.0)
    weights_a2: tuple[float, float] = (0.5, 1.7)
    weights_b2: tuple[float, float] = (1.3, 0.4)
    mixing_strength: float = 0.25
    t_max: float = 10.0
    dt: float = 0.05

    def __post_init__(self):
        errors = []
        for name in ("h_a", "h_b"):
            if (h := getattr(self, name)) is not None:
                if np.shape(h) != (2, 2):
                    errors.append(("toy", f"{name} must be a 2x2 matrix, got shape {np.shape(h)}"))
                elif not np.all(np.isfinite(np.asarray(h, complex))):
                    errors.append(("toy", f"{name} must have finite entries"))
                object.__setattr__(self, name, tuple(map(tuple, np.asarray(h, complex).tolist())))
        if (self.h_a is None) != (self.h_b is None):
            errors.append(("toy", "custom h_a and h_b must be given together"))
        elif self.h_a is None and self.variant not in ("pt_phase", "real"):
            errors.append(("toy", f"unknown variant {self.variant!r}"))
        if not 0 < self.dt < math.inf:
            errors.append(("toy", f"dt must be positive and finite, got {self.dt}"))
        if not 0 <= self.t_max < math.inf:
            errors.append(("toy", f"t_max must be >= 0 and finite, got {self.t_max}"))
        if not math.isfinite(self.mixing_strength):
            errors.append(("toy", f"mixing_strength must be finite, got {self.mixing_strength}"))
        for name in ("weights_a1", "weights_b1", "weights_a2", "weights_b2"):
            if not all(0 < w < math.inf for w in getattr(self, name)):
                errors.append(("toy", f"{name} must be positive and finite"))
        if errors:
            raise ConfigInvalid(errors)

    def hamiltonians(self) -> tuple[np.ndarray, np.ndarray]:
        if self.h_a is not None:
            return np.asarray(self.h_a, complex), np.asarray(self.h_b, complex)
        return toy_hamiltonians(self.variant)


@dataclass(frozen=True)
class ToyResult:
    """Entropy curves per metric plus product-form and transport (||U†U - I||_F) diagnostics."""

    times: np.ndarray
    entropy: dict[str, np.ndarray]
    product_defects: dict[str, float]
    transport_residuals: dict[str, float]
    meta: dict = field(default_factory=dict)


def metric_from_weights(left: np.ndarray, weights) -> np.ndarray:
    """Positive metric sum_i w_i |l_i><l_i| over the left eigenvectors ``left[..., :, i]``.

    ``left`` is one (n, n) set of vectors or a stack (..., n, n), with
    weights of shape (..., n).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.min() <= 0:
        raise ValueError("metric weights must be positive")
    g = (left * weights[..., None, :]) @ left.conj().swapaxes(-1, -2)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def product_defect(g: np.ndarray, dims: tuple[int, int] = (2, 2)) -> float:
    """How far an operator on A (x) B is from a single tensor product.

    Realigns G_{(i j),(i' j')} into R_{(i i'),(j j')}; a tensor product has
    rank-one realignment, so the ratio of the second to the largest singular
    value vanishes exactly for product operators.
    """
    da, db = dims
    r = (
        np.asarray(g, complex)
        .reshape(da, db, da, db)
        .transpose(0, 2, 1, 3)
        .reshape(da * da, db * db)
    )
    sv = np.linalg.svd(r, compute_uv=False)
    return float(sv[1] / sv[0])


def _gauge(right: np.ndarray) -> np.ndarray:
    """Unit phases, shape (..., 1, n), that make the lead component of each column of ``right`` real and positive.

    The lead is the first component at least half the column's largest in
    magnitude, so equal-magnitude components do not let roundoff pick it.
    """
    size = np.abs(right)
    lead = np.argmax(size >= 0.5 * size.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(right, lead[..., None, :], axis=-2)
    return lead.conj() / np.abs(lead)


def _frames(toy: ToyConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, G, V): the eigenvalues of H, shape (4,), and the metrics and their unitary frames, (3, 4, 4) in METRICS order.

    A factor near its exceptional point raises DegeneratePairing, a spectrum
    of H that is not real SpectrumNotReal.
    """
    factors = eig(np.stack(toy.hamiltonians()))
    order = np.argsort(factors.values.real, axis=-1)
    lam = np.kron(*np.take_along_axis(factors.values, order, axis=-1))
    right = np.take_along_axis(factors.right, order[:, None, :], axis=-1)
    phase = _gauge(right)
    right = np.kron(*(right * phase))
    left = np.kron(*(np.take_along_axis(factors.left, order[:, None, :], axis=-1) * phase))
    imag = np.abs(lam.imag).max()
    if imag > REAL_SPECTRUM_TOL:
        raise SpectrumNotReal(f"max |Im eigenvalue| = {imag:.3e} exceeds {REAL_SPECTRUM_TOL}")
    lam = lam.real
    w1 = np.kron(toy.weights_a1, toy.weights_b1)
    weights = np.stack(
        [w1, np.kron(toy.weights_a2, toy.weights_b2), np.exp(2.0 * toy.mixing_strength * lam) * w1]
    )
    metrics = metric_from_weights(left, weights)
    frames = metric_root(metrics) @ right / np.sqrt(weights)[:, None, :]
    return lam, metrics, frames


def run_toy(toy: ToyConfig) -> ToyResult:
    """Evolve the maximally entangled state c under each metric.

    Returns entropy curves S(t) in bits for the metric choices 'product1',
    'product2' and 'nonproduct', sampled at multiples of dt up to t_max.
    """
    lam, metrics, frames = _frames(toy)
    times = np.arange(0.0, toy.t_max + toy.dt / 2.0, toy.dt)
    # psi_m(t) = V_m e^{-i lambda t} c for all times, as (3, T, 2, 2) coefficients on A (x) B
    coeffs = np.exp(-1j * np.outer(times, lam)) * np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    psi = (coeffs @ frames.swapaxes(-1, -2)).reshape(len(METRICS), len(times), 2, 2)
    schmidt = np.linalg.svd(psi, compute_uv=False) ** 2
    u = frames @ frames[0].conj().T
    drift = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(4), axis=(-2, -1))
    return ToyResult(
        times=times,
        entropy=dict(zip(METRICS, _entropy_bits(schmidt))),
        product_defects={name: product_defect(g) for name, g in zip(METRICS, metrics)},
        transport_residuals={name: float(r) for name, r in zip(METRICS, drift)},
        meta={
            "variant": toy.variant,
            "mixing_strength": toy.mixing_strength,
            "dt": toy.dt,
            "entropy_base": 2,
        },
    )
