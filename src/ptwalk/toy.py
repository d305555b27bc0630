"""Two-qubit toy study: product versus non-product metrics.

The Hamiltonian is a tensor product H = H_A (x) H_B of 2x2 blocks with real
spectrum. Metrics compatible with H are built from biorthonormal left
eigenvectors with positive weights; product metrics G_A (x) G_B keep the
unitary-frame evolution locally generated, so a maximally entangled state
aligned with the local eigenbases keeps exactly one bit of entanglement for
all times. A non-product metric, built as T† (G_A (x) G_B) T with
T = exp(s H), mixes the factors and the entanglement entropy of the
transported state starts below one bit and moves.

Two parameter variants are provided. 'pt_phase' uses complex PT-symmetric
blocks (diagonals e^{+-i a}) whose spectrum is real while the blocks are
genuinely non-Hermitian; this is the variant that exhibits the dichotomy.
'real' uses real-symmetric blocks (diagonals e^{+-a}); those are Hermitian,
every admissible metric then commutes with H, the unitary-frame data is
metric-independent, and all three entropy curves stay flat at one bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import ConfigInvalid, SpectrumNotReal
from .linalg import EigenSystem, eig, sqrt_and_inv, transport
from .measures import _entropy_bits

REAL_SPECTRUM_TOL = 1e-10


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
                object.__setattr__(self, name, tuple(map(tuple, np.asarray(h, complex).tolist())))
        if (self.h_a is None) != (self.h_b is None):
            errors.append(("toy", "custom h_a and h_b must be given together"))
        elif self.h_a is None and self.variant not in ("pt_phase", "real"):
            errors.append(("toy", f"unknown variant {self.variant!r}"))
        if not self.dt > 0:
            errors.append(("toy", f"dt must be positive, got {self.dt}"))
        if not self.t_max >= 0:
            errors.append(("toy", f"t_max must be >= 0, got {self.t_max}"))
        for name in ("weights_a1", "weights_b1", "weights_a2", "weights_b2"):
            if not min(getattr(self, name)) > 0:
                errors.append(("toy", f"{name} must be positive"))
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


def product_eig(h_a: np.ndarray, h_b: np.ndarray) -> tuple[EigenSystem, EigenSystem]:
    """Biorthonormal eigenpairs of the two factors (one stacked ``eig``) and of H = h_a (x) h_b.

    With h r_i = lambda_i r_i and <l_i|r_j> = delta_ij for each factor, H has
    the eigenvalues lambda_a lambda_b with R = r_A (x) r_B and L = l_A (x) l_B.
    No 4x4 eigensolve is needed, so products lambda_a lambda_b that coincide
    are no obstacle; a factor near its exceptional point raises DegeneratePairing.
    """
    factors = eig(np.stack([h_a, h_b]), want_left=True)
    product = EigenSystem(
        np.kron(*factors.values), np.kron(*factors.right), np.kron(*factors.left)
    )
    return factors, product


def product_exp(sys: EigenSystem, s: float) -> np.ndarray:
    """exp(s H) = R diag(e^{s lambda}) L† from the eigenpairs of H given by ``product_eig``."""
    return (sys.right * np.exp(s * sys.values)) @ sys.left.conj().T


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


def run_toy(toy: ToyConfig) -> ToyResult:
    """Evolve the transported maximally entangled state under each metric.

    Returns entropy curves S(t) in bits for the metric choices 'product1',
    'product2' and 'nonproduct', sampled at multiples of dt up to t_max.
    """
    h_a, h_b = toy.hamiltonians()
    factors, sys = product_eig(h_a, h_b)
    imag = np.abs(sys.values.imag).max()
    if imag > REAL_SPECTRUM_TOL:
        raise SpectrumNotReal(f"max |Im eigenvalue| = {imag:.3e} exceeds {REAL_SPECTRUM_TOL}")

    g_a1, g_b1 = metric_from_weights(factors.left, [toy.weights_a1, toy.weights_b1])
    g1 = np.kron(g_a1, g_b1)
    g2 = np.kron(*metric_from_weights(factors.left, [toy.weights_a2, toy.weights_b2]))
    mixer = product_exp(sys, toy.mixing_strength)
    g3 = mixer.conj().T @ g1 @ mixer
    metrics = {"product1": g1, "product2": g2, "nonproduct": g3}

    # Maximally entangled state aligned with the local eigenbases of H_eta1.
    eta_ab, eta_ab_inv, _ = sqrt_and_inv(np.stack([g_a1, g_b1]))
    h_ab_eta = eta_ab @ np.stack([h_a, h_b]) @ eta_ab_inv
    u_a, u_b = np.linalg.eigh((h_ab_eta + h_ab_eta.conj().swapaxes(1, 2)) / 2.0)[1]
    phi = (np.kron(u_a[:, 0], u_b[:, 0]) + np.kron(u_a[:, 1], u_b[:, 1])) / np.sqrt(2.0)
    rho_ref = np.outer(phi, phi.conj())

    h = np.kron(h_a, h_b)
    _, transports, transport_residuals = transport(g1, np.stack(list(metrics.values())), h, sys)
    times = np.arange(0.0, toy.t_max + toy.dt / 2.0, toy.dt)
    entropy: dict[str, np.ndarray] = {}
    defects: dict[str, float] = {}
    residuals: dict[str, float] = {}
    for (name, g), u, checks in zip(metrics.items(), transports, transport_residuals):
        defects[name] = product_defect(g)
        residuals[name] = float(checks[1])  # ||U†U - I||_F
        rho0 = u @ rho_ref @ u.conj().T
        e, e_inv, _ = sqrt_and_inv(g)
        h_eta = e @ h @ e_inv
        w_h, v_h = np.linalg.eigh((h_eta + h_eta.conj().T) / 2.0)
        # u_t for all times at once; the partial trace over B on the stack
        u_t = (v_h * np.exp(-1j * w_h * times[:, None])[:, None, :]) @ v_h.conj().T
        rho_t = (u_t @ rho0 @ u_t.conj().swapaxes(1, 2)).reshape(-1, 2, 2, 2, 2)
        entropy[name] = _entropy_bits(np.linalg.eigvalsh(np.einsum("tijkj->tik", rho_t)))
    return ToyResult(
        times=times,
        entropy=entropy,
        product_defects=defects,
        transport_residuals=residuals,
        meta={
            "variant": toy.variant,
            "mixing_strength": toy.mixing_strength,
            "dt": toy.dt,
            "entropy_base": 2,
        },
    )
