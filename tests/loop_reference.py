"""Per-momentum, per-step and per-value loops, kept unchanged as test oracles.

These are the original implementations of the walk, metric and reduced-map
builders: every momentum block is built on its own, and the reduced map is
advanced one step at a time by multiplying 2x2 block powers. The library
builds all blocks at once and evaluates the reduced map in closed form as an
average of Bloch rotations; these loops check it through an independent path.
``frame_blocks`` builds the complex W_eta(k) = eta W_c eta^-1 from the
per-block ``eigh`` root and the per-k factor product, and ``rotations`` reads
each angle and full three-component axis off it, where the library reads the
axis from the metric weights in closed form and forms no root;
``extended_frame`` evaluates that eta route in extended precision, where
the float64 root loses too much at large metric condition numbers, and
``pseudo_hermiticity_residual`` checks the library's health number
|S^T G - G S| / (|S| |G|) block by block; ``coin_trajectory``,
``channel_matrix_series`` and ``bloch_matrices_direct`` start from these,
never from the library's two-angle frame. ``bloch_matrices_direct`` is the
general nine-sum closed form with sin and cos of every phase t eps_k
evaluated directly, where the library sums five terms and steps the double
angles by angle addition from one evaluated phase per block;
``bloch_matrices_extended`` is the same closed form on the library's angles
and the axes of ``extended_frame``, summed in extended precision, for the
metrics near the exceptional point; ``bloch_matrices_five_sums`` takes the
library's own angles and five sums, folded onto the +-k pairs, with every
double angle evaluated directly.
The CSV writers at the end format one value at a time through ``csv.writer``;
the library's writers must produce the same bytes. ``eig`` pairs left and
right eigenvectors of one matrix (``EigenSystem``) by nearest conjugate
eigenvalue and checks the toy's closed-form 2x2 eigenpairs and their
refusals; ``herm_sqrt`` is the clamping Hermitian square root used by the
dense lattice oracles, and ``metric_root`` its unclamped stacked form,
which refuses a block that is not positive definite and which
``g_trace_norm`` roots with (the library forms no root). ``toy_entropy`` is
the toy study on the generic route the library's polar factors replace: the
mixer exp(sH) from ``expm``, a general matrix exponential without scipy, a
root per metric, the metric transports and an ``eigh`` of eta H eta^-1.

``walk_alone`` is the library's walk of one metric, with that metric as
(L, 2, 2) blocks, for the checks that take one metric at a time.

``coin``, ``shift_block`` and ``gain_loss`` are the walk factors as
matrices, and ``walk_block`` / ``walk_blocks`` multiply them one 2x2
product at a time. The library never forms that product: it reads
W_c(k) = a(k) I - i sin H_c(k) in closed form, which these check.
``unitary_log`` is the principal-branch generator log of one matrix
(``BranchAmbiguity`` at the cut), and ``hamiltonian_blocks`` takes it of
every walk block. The metric-space theory the library does not call lives
here as well: transports T, U between two metrics (``MetricTransport``,
refused with ``IncompatibleMetrics`` beyond ``TRANSPORT_TOL``), the
generalized adjoint and the G trace norm (``SingularMetric`` for a metric
that is not positive definite), the separability defect of a block metric
and the basis-expansion identity of the metric action.
"""

import csv
from dataclasses import dataclass

import numpy as np

from channel_reference import ChannelMatrix, _check_state, _square, partial_trace, von_neumann_entropy
from ptwalk.channel import BLOCK_ELEMENTS, build_euclidean_walk, trace_norm
from ptwalk.errors import (
    BrokenRegime,
    DegeneratePairing,
    LightConeViolation,
    NotPositive,
    PTWalkError,
)
from ptwalk.toy import PAIRING_GAP
from ptwalk.walk import UNBROKEN_MARGIN, is_unbroken, momentum_grid, spectral_a


class BranchAmbiguity(PTWalkError):
    """Matrix logarithm hit an eigenvalue phase at the principal-branch cut."""


class SingularMetric(PTWalkError):
    """Metric operator is singular or not positive definite."""


class IncompatibleMetrics(PTWalkError):
    """Transport between the two metrics failed its residual checks."""


# ----------------------------------------------------------------- linalg

PSD_FAIL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition A r_i = w_i r_i with biorthonormal left eigenvectors.

    ``right[:, i]`` is the right eigenvector for ``values[i]``, and
    ``left[:, i]`` satisfies A† l_i = conj(w_i) l_i with <l_i|r_j> = delta_ij.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray


def eig(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition with biorthonormal left eigenvectors.

    Left eigenvectors are computed as right eigenvectors of A†, paired to the
    right set by conjugate eigenvalue (greedy nearest match) and rescaled so
    that <l_i|r_j> = delta_ij. Raises DegeneratePairing when two eigenvalues
    of A are closer than PAIRING_GAP relative to A's scale, since the pairing
    is then ambiguous. The scale is the power of two 2^e that brings A's
    largest real or imaginary part into [1/2, 1), as in ``toy._eigenpairs``,
    so A and its multiple by a power of two are refused alike.
    """
    a = _square(a)
    values, right = np.linalg.eig(a)
    n = len(values)
    _, e = np.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    for i in range(n):
        for j in range(i + 1, n):
            if np.ldexp(abs(values[i] - values[j]), -e) < PAIRING_GAP:
                raise DegeneratePairing(
                    f"eigenvalues {values[i]} and {values[j]} within {PAIRING_GAP} relative to the scale 2^{e}"
                )
    lvals, lvecs = np.linalg.eig(a.conj().T)
    left = np.empty_like(right)
    taken: set[int] = set()
    for i in range(n):
        dists = [
            (abs(np.conj(lvals[j]) - values[i]), j) for j in range(n) if j not in taken
        ]
        _, j = min(dists)
        taken.add(j)
        overlap = np.vdot(lvecs[:, j], right[:, i])
        if abs(overlap) < PAIRING_GAP:
            raise DegeneratePairing(
                f"left/right overlap {abs(overlap):.2e} too small at eigenvalue {values[i]}"
            )
        left[:, i] = lvecs[:, j] / np.conj(overlap)
    return EigenSystem(values, right, left)


def herm_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique positive square root of a Hermitian PSD matrix, or of each in a stack (..., n, n).

    Eigenvalues in [-1e-8, 0) are clamped to zero (floating-point dust left
    by similarity transforms); anything below -1e-8 raises NotPositive.
    """
    a = _square(a, stack=True)
    if np.abs(a - a.conj().swapaxes(-1, -2)).max() > 1e-10:
        raise ValueError("input is not Hermitian to 1e-10")
    w, v = np.linalg.eigh(a)
    if w.min() < -PSD_FAIL:
        raise NotPositive(f"minimum eigenvalue {w.min():.3e} below -{PSD_FAIL}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def metric_root(g: np.ndarray) -> np.ndarray:
    """Positive square root V w^{1/2} V† of a positive-definite metric, or of each in a stack (..., n, n).

    ``g`` is taken as (g + g†)/2 and rooted by one stacked ``eigh``. Nothing is
    clamped: a block not positive definite raises NotPositive, naming the first.
    """
    w, v = np.linalg.eigh((g + g.conj().swapaxes(-1, -2)) / 2.0)
    bad = np.flatnonzero(~(w[..., 0] > 0))
    if bad.size:
        where = f" block {bad[0]}" if w.ndim > 1 else ""
        raise NotPositive(f"metric{where} not positive definite")
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def unitary_log(a: np.ndarray) -> np.ndarray:
    """Generator H with exp(-i H) = a, eigenvalue phases on the principal branch.

    For a diagonalizable ``a`` with spectrum on (or near) the unit circle this
    is the effective Hamiltonian of the one-step evolution ``a``. Phases are
    taken in (-pi, pi]; a phase within 1e-9 of the cut at +-pi raises
    BranchAmbiguity rather than silently choosing a sheet, and a zero
    eigenvalue raises ValueError.
    """
    a = _square(a)
    values, right = np.linalg.eig(a)
    if np.any(np.abs(values) == 0.0):
        raise ValueError("matrix is singular; no logarithm")
    if np.any(np.pi - np.abs(np.angle(values)) < 1e-9):
        raise BranchAmbiguity("eigenvalue phase within 1e-9 of the branch cut at +-pi")
    return (right * (1j * np.log(values))) @ np.linalg.inv(right)


# ------------------------------------------------------------------- walk


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


def hamiltonian_blocks(p) -> np.ndarray:
    """H_c(k) with exp(-i H_c(k)) = W_c(k), one ``unitary_log`` call per momentum.

    The quasi-energies are -+acos(a(k)), real only in the unbroken regime;
    elsewhere BrokenRegime is raised.
    """
    if not is_unbroken(p):
        raise BrokenRegime("spectrum not real on the whole grid; no Hamiltonian")
    return np.stack([unitary_log(b) for b in walk_blocks(p)])


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
        raise BrokenRegime(f"|a({k:.6f})| = {abs(a):.15f} at or beyond coalescence")
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
    y = spec.weights(len(ks))
    blocks = np.empty((len(ks), 2, 2), dtype=complex)
    for i, k in enumerate(ks):
        r_plus, r_minus, _ = left_eigvecs(k, p)
        g = np.outer(r_plus, r_plus.conj()) + y[i] * np.outer(r_minus, r_minus.conj())
        g = (g + g.conj().T) / 2.0
        blocks[i] = g / np.trace(g).real
    return blocks


def unitary_frame(metric: np.ndarray, walk: np.ndarray):
    """(eta, eta^-1, W_eta) from the per-block ``eigh`` root, one block at a time."""
    etas = np.empty(metric.shape, dtype=complex)
    eta_invs = np.empty(metric.shape, dtype=complex)
    w_etas = np.empty(metric.shape, dtype=complex)
    for i, block in enumerate(metric):
        vals, vecs = np.linalg.eigh(block)
        if vals.min() <= 0:
            raise NotPositive(f"metric block {i} not positive definite")
        etas[i] = (vecs * np.sqrt(vals)) @ vecs.conj().T
        eta_invs[i] = (vecs / np.sqrt(vals)) @ vecs.conj().T
        w_etas[i] = etas[i] @ walk[i] @ eta_invs[i]
    return etas, eta_invs, w_etas


def extended_frame(p, spec) -> tuple[np.ndarray, np.ndarray]:
    """(G, R) at every momentum on the eta route, in numpy's extended precision.

    The left eigenvectors r_+- of H_c(k)†, the unit-trace metric
    G = r_+ r_+^T + y r_- r_-^T, Levinger's root eta = (G + sI)/t with
    eta^-1 = (adj G + sI)/(st), s = sqrt(det G), t = sqrt(tr G + 2s), and
    R = eta S eta^-1 are all evaluated in ``np.longdouble`` (the 80-bit x87
    format on x86-64 Linux, eps 1.1e-19) from the float64 angles, momenta and
    weights. R's entries (0, 0) and (0, 1) are n_z sin(eps) and n_x sin(eps).
    In float64 the route through eta^-1 loses about sqrt(cond G) eps, 1e-13
    at cond G = 1e6; in extended precision that is below 1e-15, so this
    checks axes at both ends of the arc, which the library reads from the
    weights without a root.
    """
    ld = np.longdouble
    ks = momentum_grid(p.lattice_size).astype(ld)
    t1, t2, two_g = ld(p.theta1), ld(p.theta2), 2 * ld(p.gamma)
    d1 = np.cosh(two_g) * np.cos(t1) * np.sin(t2) + np.sin(t1) * np.cos(t2) * np.cos(2 * ks)
    d2 = np.full_like(ks, -np.sin(t2) * np.sinh(two_g))
    d3 = np.cos(t2) * np.sin(2 * ks)
    s = np.sqrt(d1 * d1 - d2 * d2 + d3 * d3)

    def unit(a0, a1, b0, b1):
        # the longer of two proportional readouts, normalized
        norm_a, norm_b = np.hypot(a0, a1), np.hypot(b0, b1)
        first = norm_a >= norm_b
        v = np.stack([np.where(first, a0, b0), np.where(first, a1, b1)], axis=1)
        return v / np.where(first, norm_a, norm_b)[:, None]

    r_plus = unit(d1 - d2, -d3 - s, d3 - s, d1 + d2)
    r_minus = unit(d1 - d2, -d3 + s, d3 + s, d1 + d2)
    y = spec.weights(len(ks)).astype(ld)
    g = r_plus[:, :, None] * r_plus[:, None, :] + y[:, None, None] * r_minus[:, :, None] * r_minus[:, None, :]
    g /= (g[:, 0, 0] + g[:, 1, 1])[:, None, None]
    root_det = np.sqrt(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0])
    t = np.sqrt(g[:, 0, 0] + g[:, 1, 1] + 2 * root_det)
    shift = root_det[:, None, None] * np.eye(2, dtype=ld)
    adj = np.stack([g[:, 1, 1], -g[:, 0, 1], -g[:, 1, 0], g[:, 0, 0]], axis=1).reshape(-1, 2, 2)
    eta = (g + shift) / t[:, None, None]
    eta_inv = (adj + shift) / (root_det * t)[:, None, None]
    sin_h = np.stack([-d3, -(d1 + d2), -(d1 - d2), d3], axis=1).reshape(-1, 2, 2)
    return g, eta @ sin_h @ eta_inv


def pseudo_hermiticity_residual(metric: np.ndarray, walk: np.ndarray) -> float:
    """max_k |S† G - G S|_F / (|S|_F |G|_F), one block at a time.

    S = i (W - a I) is read off each walk block W = a I - i S, a = tr(W)/2;
    blocks with S = 0 count as 0. This is the residual of the defining
    property of a metric, which makes W_eta unitary.
    """
    worst = 0.0
    for g, w in zip(metric, walk):
        s = 1j * (w - 0.5 * np.trace(w) * np.eye(2))
        scale = np.linalg.norm(s) * np.linalg.norm(g)
        if scale > 0:
            worst = max(worst, float(np.linalg.norm(s.conj().T @ g - g @ s) / scale))
    return worst


TRANSPORT_TOL = 1e-9


@dataclass(frozen=True)
class MetricTransport:
    """Blockwise maps between two metric choices for the same Hamiltonian.

    T(k) commutes with H_c(k) and pulls G' back to G: T† G T = G'. U(k) is
    unitary and connects the square roots: eta' = U eta T. Observables and
    states mapped to the unitary frame through different metrics are related
    by conjugation with U.
    """

    t: np.ndarray
    u: np.ndarray


def _transport_block(g, gp, h):
    sys = eig(h)
    psi, phi = sys.right, sys.left
    w = np.array([np.vdot(psi[:, i], g @ psi[:, i]).real for i in range(2)])
    wp = np.array([np.vdot(psi[:, i], gp @ psi[:, i]).real for i in range(2)])
    if w.min() <= 0 or wp.min() <= 0:
        raise IncompatibleMetrics("metric weight non-positive in the eigenbasis")
    t = sum(
        np.sqrt(wp[i] / w[i]) * np.outer(psi[:, i], phi[:, i].conj()) for i in range(2)
    )
    t_inv = sum(
        np.sqrt(w[i] / wp[i]) * np.outer(psi[:, i], phi[:, i].conj()) for i in range(2)
    )
    e = herm_sqrt(g)
    ep = herm_sqrt(gp)
    u = ep @ t_inv @ np.linalg.inv(e)
    checks = (
        np.linalg.norm(t @ h - h @ t),
        np.linalg.norm(u.conj().T @ u - np.eye(2)),
        np.linalg.norm(t.conj().T @ g @ t - gp),
        np.linalg.norm(ep - u @ e @ t),
    )
    if max(checks) > TRANSPORT_TOL:
        raise IncompatibleMetrics(
            f"transport residuals {tuple(float(c) for c in checks)} exceed {TRANSPORT_TOL}"
        )
    return t, u


def metric_transport(g: np.ndarray, gp: np.ndarray, h: np.ndarray) -> MetricTransport:
    """T and U per momentum block of the (L, 2, 2) metrics ``g``, ``gp`` and Hamiltonian blocks ``h``.

    Raises IncompatibleMetrics when a block's residuals exceed TRANSPORT_TOL.
    """
    ts = np.empty(g.shape, dtype=complex)
    us = np.empty(g.shape, dtype=complex)
    for i in range(len(g)):
        ts[i], us[i] = _transport_block(g[i], gp[i], h[i])
    return MetricTransport(ts, us)


def generalized_dagger(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint with respect to the G inner product: X# = G^{-1} X† G."""
    g = np.asarray(g, dtype=complex)
    x = np.asarray(x, dtype=complex)
    try:
        return np.linalg.solve(g, x.conj().T @ g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc


def g_trace_norm(x: np.ndarray, g: np.ndarray) -> float:
    """Trace norm tr sqrt(X# X) in the metric space of G.

    Evaluated through the similarity eta X eta^{-1}, whose ordinary singular
    values coincide with the spectrum of sqrt(X# X); this keeps the argument
    of the square root numerically Hermitian.
    """
    try:
        e = metric_root(np.asarray(g, dtype=complex))
    except NotPositive as exc:
        raise SingularMetric(str(exc)) from exc
    return trace_norm(e @ np.asarray(x, complex) @ np.linalg.inv(e))


def separability_defect(g: np.ndarray) -> float:
    """Distance of a block-diagonal metric from any momentum (x) coin product.

    Blocks are trace-normalized and compared with their grid average in
    Frobenius norm; the defect vanishes exactly when all normalized blocks
    are equal, the only way a block-diagonal metric factorizes with a
    diagonal momentum part.
    """
    normed = g / np.trace(g, axis1=1, axis2=2)[:, None, None]
    mean = normed.mean(axis=0)
    return float(np.linalg.norm(normed - mean, axis=(1, 2)).max())


def verify_metric_action(
    g: np.ndarray, basis: np.ndarray, n_samples: int = 8, seed: int = 0
) -> float:
    """Residual of the basis expansion in the G inner product.

    With <.|.>_G = <.|G .>, a basis {xi_n} (the columns of ``basis``) that is
    orthonormal in it expands every vector as psi = sum_n <xi_n|psi>_G xi_n.
    Returns the maximum Euclidean residual of that expansion over random unit
    vectors psi; a basis that is not G-orthonormal leaves a residual of
    order one.
    """
    g = np.asarray(g, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    n = g.shape[0]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        expanded = basis @ (basis.conj().T @ (g @ psi))
        worst = max(worst, float(np.linalg.norm(psi - expanded)))
    return worst


# ---------------------------------------------------------------- channel

_MATRIX_UNITS = np.zeros((4, 2, 2), dtype=complex)
for _i in range(2):
    for _j in range(2):
        _MATRIX_UNITS[2 * _i + _j, _i, _j] = 1.0


def walk_alone(p, spec):
    """The library's walk of ``p`` under the one metric ``spec``, and that metric as (L, 2, 2) real symmetric blocks."""
    ew, (g00, g01, g11) = build_euclidean_walk(p, [spec])
    return ew, np.stack([g00[0], g01[0], g01[0], g11[0]], axis=1).reshape(-1, 2, 2)


def frame_blocks(p, spec) -> np.ndarray:
    """W_eta(k) of walk ``p`` under metric ``spec``, from the per-block eigh root and the per-k factor product.

    The metric blocks are the library's, as the audit CSV has them.
    """
    return unitary_frame(walk_alone(p, spec)[1], walk_blocks(p))[2]


def rotations(p, spec) -> tuple[np.ndarray, np.ndarray]:
    """Angles eps_k, shape (L,), and unit axes n_k, shape (L, 3), read off :func:`frame_blocks`."""
    w = frame_blocks(p, spec)
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
    a = spectral_a(momentum_grid(p.lattice_size), p)
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


def _check_light_cone(p, t: int) -> None:
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if p.lattice_size < 2 * t + 1:
        raise LightConeViolation(f"lattice size {p.lattice_size} < 2*{t}+1 needed for the light cone")


def coin_trajectory(p, spec, rho0: np.ndarray, t_max: int) -> np.ndarray:
    """Reduced coin states for every step 0..t_max (incremental block powers), shape (t_max+1, 2, 2)."""
    rho0 = _check_state(rho0)
    _check_light_cone(p, t_max)
    w = frame_blocks(p, spec)
    n = len(w)
    states = np.empty((t_max + 1, 2, 2), dtype=complex)
    states[0] = rho0
    acc = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    for t in range(1, t_max + 1):
        acc = np.einsum("kab,kbc->kac", w, acc)
        rho = np.einsum("kab,bc,kdc->ad", acc, rho0, acc.conj()) / n
        states[t] = (rho + rho.conj().T) / 2.0
    return states


def _channel_from_powers(powers: np.ndarray, t: int) -> ChannelMatrix:
    mapped = np.einsum("kab,xbc,kdc->xad", powers, _MATRIX_UNITS, powers.conj())
    mapped /= powers.shape[0]
    matrix = np.stack([mapped[x].reshape(4) for x in range(4)], axis=1)
    sv = np.linalg.svd(matrix, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return ChannelMatrix(0, t, matrix, cond)


def channel_matrix_series(p, spec, t_max: int) -> list[ChannelMatrix]:
    """L(t, 0) for t = 0..t_max, sharing the incremental block powers."""
    _check_light_cone(p, t_max)
    w = frame_blocks(p, spec)
    acc = np.tile(np.eye(2, dtype=complex), (len(w), 1, 1))
    out = [_channel_from_powers(acc, 0)]
    for t in range(1, t_max + 1):
        acc = np.einsum("kab,kbc->kac", w, acc)
        out.append(_channel_from_powers(acc, t))
    return out


def bloch_matrices_direct(p, spec, steps: np.ndarray) -> np.ndarray:
    """M(t) for every t of ``steps`` from :func:`rotations`, with sin and cos of every t eps_k evaluated directly."""
    return _nine_sums(*rotations(p, spec), steps)


def bloch_matrices_extended(p, spec, eps: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """M(t) as :func:`bloch_matrices_direct`, on the angles ``eps`` and the axes of :func:`extended_frame`.

    The axes n = (R_01, 0, R_00)/|(R_01, R_00)| and every sum are evaluated
    in ``np.longdouble``, so near the exceptional point, where a float64
    eta^-1 loses sqrt(cond G) eps, this checks the library's axes and sums,
    not the oracle's roundoff. Returns float64.
    """
    _, r = extended_frame(p, spec)
    n = np.stack([r[:, 0, 1], np.zeros_like(r[:, 0, 0]), r[:, 0, 0]], axis=1)
    n /= np.sqrt((n * n).sum(axis=1))[:, None]
    return _nine_sums(eps.astype(np.longdouble), n, steps).astype(float)


def _nine_sums(eps: np.ndarray, n: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The general closed form of M(t) on angles eps, shape (L,), and unit axes n, shape (L, 3), in their precision."""
    size = len(eps)
    transverse = (np.eye(3) - n[:, :, None] * n[:, None, :]).reshape(size, 9) / size
    cross = np.zeros((size, 3, 3), dtype=n.dtype)
    cross[:, 0, 1], cross[:, 0, 2] = -n[:, 2], n[:, 1]
    cross[:, 1, 0], cross[:, 1, 2] = n[:, 2], -n[:, 0]
    cross[:, 2, 0], cross[:, 2, 1] = -n[:, 1], n[:, 0]
    cross = cross.reshape(size, 9) / size
    out = np.empty((len(steps), 9), dtype=n.dtype)
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


def bloch_matrices_five_sums(ew, steps: np.ndarray) -> np.ndarray:
    """M(t) for every t of ``steps`` on ``ew``'s own angles and its first metric's x-z axes, every double angle evaluated directly.

    The five momentum sums of 1 - cos(2t eps_k) and sin(2t eps_k) run over
    the (L+1)/2 momenta k_0 = -pi and k_1..k_{(L-1)/2}, each of the latter
    with the weights of k_n and of its partner k_{L-n} = -k_n added, as the
    library folds them. They are one product in the library's order and
    shapes, a (steps, L+1) table times (L+1, 5) weights, so its first block
    of steps (t0 = 0) must equal this bit for bit.
    """
    eps, n_x, n_z = ew.eps, ew.n_x[0], ew.n_z[0]
    size = len(eps)
    half = size // 2
    turn = np.stack([np.ones(size), n_z * n_z, n_x * n_z]) / size
    cross = np.stack([n_z, n_x]) / size
    pair = np.arange(1, half + 1)
    weights = np.zeros((5, 2 * (half + 1)))
    for rows, w, lo in ((slice(0, 3), turn, 0), (slice(3, 5), cross, half + 1)):
        weights[rows, lo] = w[:, 0]
        weights[rows, lo + 1 : lo + half + 1] = w[:, pair] + w[:, size - pair]
    phase = np.multiply.outer(steps, 2.0 * eps[: half + 1])
    table = np.concatenate([1.0 - np.cos(phase), np.sin(phase)], axis=1)
    v_all, v_zz, v_xz, s_z, s_x = (table @ weights.T).T
    m = np.zeros((len(steps), 3, 3))
    m[:, 0, 0], m[:, 1, 1], m[:, 2, 2] = 1.0 - v_zz, 1.0 - v_all, 1.0 - (v_all - v_zz)
    m[:, 0, 2] = m[:, 2, 0] = v_xz
    m[:, 0, 1], m[:, 1, 0] = -s_z, s_z
    m[:, 1, 2], m[:, 2, 1] = -s_x, s_x
    return m


# -------------------------------------------------------------------- toy


def expm(a: np.ndarray, terms: int = 20) -> np.ndarray:
    """exp(a) by scaling and squaring of a truncated Taylor series.

    ``a`` is halved s times until its 1-norm is at most 1/2, the series is
    summed to ``terms`` terms (truncation error below 0.5^20/20!) and the
    sum is squared s times.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.abs(a).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0 else 0
    a = a / 2.0**squarings
    result = term = np.eye(len(a), dtype=complex)
    for n in range(1, terms):
        term = term @ a / n
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def toy_entropy(toy, state: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
    """S(t) in bits under the toy's three metrics, on the transport route, from ``state`` in the frame of G_1.

    Each factor's eigenpairs come from ``eig``, sorted by ascending
    eigenvalue, the order the metric weights follow; the factor metrics are
    sum_i w_i |l_i><l_i| one term at a time, the product metrics their
    Kronecker products and the non-product metric T† G_1 T with the mixer
    T = ``expm``(sH). Every metric is rooted by ``herm_sqrt``; the state is
    carried to metric m by U = eta_m T_m^-1 eta_1^-1 with the transport
    T_m = R diag(sqrt(w_m/w_1)) L†, w = diag(R† G R), evolved by the ``eigh``
    of eta_m H eta_m^-1 one time at a time, and reduced by ``partial_trace``.
    """
    h_a, h_b = toy.hamiltonians()
    vectors = []
    for h in (h_a, h_b):
        sys = eig(h)
        order = np.argsort(sys.values.real)
        vectors.append((sys.right[:, order], sys.left[:, order]))
    (r_a, l_a), (r_b, l_b) = vectors

    def factor_metric(left, weights):
        return sum(w * np.outer(left[:, i], left[:, i].conj()) for i, w in enumerate(weights))

    h = np.kron(h_a, h_b)
    right, left = np.kron(r_a, r_b), np.kron(l_a, l_b)
    g1 = np.kron(factor_metric(l_a, toy.weights_a1), factor_metric(l_b, toy.weights_b1))
    g2 = np.kron(factor_metric(l_a, toy.weights_a2), factor_metric(l_b, toy.weights_b2))
    mixer = expm(toy.mixing_strength * h)
    g3 = mixer.conj().T @ g1 @ mixer
    eta1 = herm_sqrt(g1)
    w1 = np.einsum("ji,jk,ki->i", right.conj(), g1, right).real
    out = {}
    for name, g in (("product1", g1), ("product2", g2), ("nonproduct", (g3 + g3.conj().T) / 2.0)):
        eta = herm_sqrt(g)
        w = np.einsum("ji,jk,ki->i", right.conj(), g, right).real
        t_inv = (right * np.sqrt(w1 / w)) @ left.conj().T
        u = eta @ t_inv @ np.linalg.inv(eta1)
        h_eta = eta @ h @ np.linalg.inv(eta)
        values, vecs = np.linalg.eigh((h_eta + h_eta.conj().T) / 2.0)
        psi0 = u @ state
        curve = []
        for t in times:
            psi = vecs @ (np.exp(-1j * values * t) * (vecs.conj().T @ psi0))
            curve.append(von_neumann_entropy(partial_trace(np.outer(psi, psi.conj()), (2, 2), "A")))
        out[name] = np.array(curve)
    return out


# -------------------------------------------------------------------- CSV


def write_series_csv(series, path, comment: str | None = None) -> None:
    """The series CSV that ``ptwalk.experiments`` writes, one value at a time: t, the series' own columns, and
    the flags of an RHP series, the one study whose steps a run can flag."""
    cols = {
        "delta": series.delta,
        "N": series.blp,
        "g": series.g,
        "I_RHP": series.rhp,
        "S": series.entropy,
    }
    cols = {name: arr for name, arr in cols.items() if arr is not None}
    flagged = series.rhp is not None
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(cols) + ["flags"] * flagged)
        for i in range(len(series.flags)):  # row i is step i
            row = [i]
            for arr in cols.values():
                row.append(repr(float(arr[i])))
            if flagged:
                row.append(series.flags[i])
            writer.writerow(row)


def write_toy_csv(toy, name: str, times: np.ndarray, curve: np.ndarray, path) -> None:
    """The toy CSV of metric ``name`` for the ToyConfig ``toy``, one value at a time; custom blocks are the variant 'custom'."""
    variant = toy.variant if toy.h_a is None else "custom"
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# cell=toy__{name} variant={variant} "
            f"mixing_strength={toy.mixing_strength} dt={toy.dt} entropy_base=2\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["t", "S"])
        for t, s in zip(times, curve):
            writer.writerow([repr(float(t)), repr(float(s))])
