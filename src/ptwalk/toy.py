"""Two-qubit toy study: product versus non-product metrics.

The Hamiltonian is a tensor product H = h_A (x) h_B of 2x2 blocks with real
spectrum, and the whole study is read in its biorthonormal eigenbasis
(Mostafazadeh, J. Math. Phys. 43, 205 (2002)). The two factors' eigenpairs,
read in closed form by ``_eigenpairs``, give the eigenvalues lambda of H and
its left vectors L = l_A (x) l_B = inv(R)†, R = r_A (x) r_B the right ones;
no eigensolver is called. Every metric compatible with H is G = L diag(w) L†
with positive weights w, so R† G R = diag(w):

- 'product1' and 'product2' are G_A (x) G_B, with the weights w_A (x) w_B;
- 'nonproduct' is T† G_1 T with T = exp(s H), which mixes the factors; its
  weights are e^{2 s lambda} w_1, so no matrix exponential is formed.

Each metric's frame V = sqrt(G) R diag(w)^{-1/2} is unitary and carries H to
eta H eta^-1 = V diag(lambda) V†. Since G = B B† with B = L diag(sqrt w),
V is the unitary polar factor of B (Higham, SIAM J. Sci. Stat. Comput. 7,
1160 (1986)), read from one SVD per metric: no metric is rooted, which
would square the conditioning. The maximally entangled state
c = (e_00 + e_11)/sqrt 2 of the local eigenbases, taken in the frame of G_1,
evolves under metric m as psi_m(t) = V_m e^{-i lambda t} c; the transport
between the frames is U_m = V_m V_1†. S(t) is the entropy of the Schmidt
weights of psi_m(t). Product metrics keep the evolution locally generated,
so S stays at one bit; the non-product metric starts it below one bit and
makes it move.

The eigenpairs are put in a gauge the program fixes: each factor's pairs
ascend in eigenvalue (the metric weights are listed in that order), and
each unit right vector is rephased so that its lead component, the first at
least half the largest in magnitude, is real and positive; the left vectors
follow from the rephased right ones. The components of a PT-symmetric block's
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
from .errors import ConfigInvalid, DegeneratePairing, NotPositive, SpectrumNotReal
from .measures import _entropy_bits

REAL_SPECTRUM_TOL = 1e-10
# Relative eigenvalue gap, and left/right overlap, of a factor below which its eigenpairs are refused.
PAIRING_GAP = 1e-9
_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])
METRICS = ("product1", "product2", "nonproduct")
# Largest kappa(B) of an accepted frame. A frame's error grows like kappa(B)
# times about 4e-17: against 60-digit polar factors, every frame accepted
# under this bound was within 4.4e-10, and some above it were off by 3e-9.
FRAME_CONDITION_MAX = 1e7


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
    ``variant``, 'pt_phase' or 'real', picks the built-in blocks; with custom
    blocks the toy CSVs and ``ToyResult.meta`` record the variant 'custom'.
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
        if self.variant not in ("pt_phase", "real"):
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
    """Entropy curves per metric plus product-form, transport (||U†U - I||_F) and frame kappa(B) diagnostics."""

    times: np.ndarray
    entropy: dict[str, np.ndarray]
    product_defects: dict[str, float]
    transport_residuals: dict[str, float]
    frame_conditions: dict[str, float]
    meta: dict = field(default_factory=dict)


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


def _eigenpairs(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (n, 2), unit right vectors and biorthonormal left vectors (n, 2, 2) of a stack of 2x2 blocks, in closed form.

    A block h has lambda_-+ = m -+ sqrt(q), m = tr h / 2 and
    q = ((h00 - h11)/2)^2 + h01 h10; the principal root has Re sqrt(q) >= 0,
    so each block's pairs ascend in real part. The right vector at lambda is
    the longer of the adjugate columns (h01, lambda - h00) and
    (lambda - h11, h10), normalized as in ``channel._plus_eigenvector``, and
    put in the gauge of ``_gauge``; the left vectors, the columns of inv(R)†,
    come from the 2x2 inverse. Each block is read scaled exactly, its real
    and imaginary parts apart, by the 2^-e that brings its largest part into
    [1/2, 1), so q is finite for any finite block; the eigenvalues are scaled
    back. DegeneratePairing names the first block whose relative eigenvalue
    gap, 2|sqrt(q)| of the scaled block, is below PAIRING_GAP, or whose
    left/right overlap 1/|l| of unit vectors is; a block and its multiple by
    a power of two are refused alike.
    """
    h = np.ascontiguousarray(blocks, complex)
    _, e = np.frexp(np.abs(h.view(float)).max(axis=(1, 2)))
    h = np.ldexp(h.view(float), -e[:, None, None]).view(complex)[..., None]  # every entry broadcasts over the block's two pairs
    h00, h01, h10, h11 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1]
    root = np.sqrt(((h00 - h11) / 2.0) ** 2 + h01 * h10)
    values = (h00 + h11) / 2.0 + root * np.array([-1.0, 1.0])
    gap = 2.0 * np.abs(root[:, 0])
    a = np.stack(np.broadcast_arrays(h01, values - h00), axis=1)
    b = np.stack(np.broadcast_arrays(values - h11, h10), axis=1)
    norm_a, norm_b = np.linalg.norm(a, axis=1, keepdims=True), np.linalg.norm(b, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a block below the gap has no vectors and is refused
        right = np.where(norm_a >= norm_b, a, b) / np.maximum(norm_a, norm_b)
        right = right * _gauge(right)
        # inv(R)† = J conj(R) J^T / conj(det R), J the 90-degree turn
        det = right[:, 0, 0] * right[:, 1, 1] - right[:, 0, 1] * right[:, 1, 0]
        left = (_TURN @ right @ _TURN.T).conj() / det.conj()[:, None, None]
        overlap = 1.0 / np.linalg.norm(left, axis=1).max(axis=1)
    close = gap < PAIRING_GAP
    if (bad := np.flatnonzero(close | (overlap < PAIRING_GAP))).size:
        i = bad[0]
        reason = f"eigenvalue gap {gap[i]:.2e} relative to the block's scale," if close[i] else f"left/right overlap {overlap[i]:.2e}"
        raise DegeneratePairing(f"block {i}: {reason} below {PAIRING_GAP}")
    return np.ldexp(values.view(float), e[:, None]).view(complex), right, left


def _frames(toy: ToyConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lambda, G, V, kappa(B)): the eigenvalues of H, (4,), and per metric in METRICS order G, V, (3, 4, 4), and kappa(B), (3,).

    One SVD B = X Sigma Y† per metric gives V = X Y† and G = X Sigma^2 X†.
    NotPositive refuses weights that are not finite and positive and a
    kappa(B) = sigma_max / sigma_min above FRAME_CONDITION_MAX. A factor near
    its exceptional point raises DegeneratePairing (block 0 is h_A, block 1
    h_B), a spectrum of H that is not real SpectrumNotReal.
    """
    values, _, left = _eigenpairs(np.stack(toy.hamiltonians()))
    lam, left = np.kron(*values), np.kron(*left)
    imag = np.abs(lam.imag).max()
    if imag > REAL_SPECTRUM_TOL:
        raise SpectrumNotReal(f"max |Im eigenvalue| = {imag:.3e} exceeds {REAL_SPECTRUM_TOL}")
    lam = lam.real
    with np.errstate(over="ignore"):  # an overflowing weight is refused below
        w1 = np.kron(toy.weights_a1, toy.weights_b1)
        weights = np.stack(
            [w1, np.kron(toy.weights_a2, toy.weights_b2), np.exp(2.0 * toy.mixing_strength * lam) * w1]
        )
    if not np.all((weights > 0) & (weights < np.inf)):
        raise NotPositive(f"metric weights not finite and positive at mixing_strength {toy.mixing_strength:g}")
    x, sigma, yh = np.linalg.svd(left * np.sqrt(weights)[:, None, :])
    with np.errstate(divide="ignore"):  # a singular B has kappa(B) = inf and is refused
        condition = sigma[:, 0] / sigma[:, -1]
    if condition.max() > FRAME_CONDITION_MAX:
        name = METRICS[np.argmax(condition)]
        raise NotPositive(f"{name} frame condition number {condition.max():.2e} above {FRAME_CONDITION_MAX:.0e}")
    metrics = (x * sigma[:, None, :] ** 2) @ x.conj().swapaxes(-1, -2)
    return lam, metrics, x @ yh, condition


def run_toy(toy: ToyConfig) -> ToyResult:
    """Evolve the maximally entangled state c under each metric.

    Returns entropy curves S(t) in bits for the metric choices 'product1',
    'product2' and 'nonproduct', sampled at multiples of dt up to t_max.
    """
    lam, metrics, frames, condition = _frames(toy)
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
        frame_conditions={name: float(c) for name, c in zip(METRICS, condition)},
        meta={
            "variant": toy.variant if toy.h_a is None else "custom",
            "mixing_strength": toy.mixing_strength,
            "dt": toy.dt,
        },
    )
