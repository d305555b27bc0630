"""Metric operators compatible with the walk Hamiltonian.

A momentum-block metric is built from the left eigenvectors r_+(k), r_-(k)
of H_c(k) (equivalently, eigenvectors of H_c(k)†) as

    G(k) = x(k) ( |r_+><r_+| + y(k) |r_-><r_-| ),       x, y > 0,

rescaled to unit trace. Any such block is Hermitian, positive definite and
pseudo-Hermitian-compatible: H_c(k)† G(k) = G(k) H_c(k). The positive square
root eta(k) maps the walk to a genuinely unitary evolution, and transports
T, U connect different admissible metrics.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BrokenRegime, DegenerateAtK, IncompatibleMetrics, SingularMetric
from .walk import (
    UNBROKEN_MARGIN,
    BlockOperator,
    WalkParams,
    is_unbroken,
    momentum_grid,
    spectral_a,
)

TRANSPORT_TOL = 1e-9


@dataclass(frozen=True)
class LeftEigenPair:
    """Left eigenvectors of H_c(k) together with the scalars that build them.

    The vectors satisfy H_c(k)† r_pm = (pm eps_k) r_pm with
    eps_k = acos(a(k)) in (0, pi), and are normalized to unit Euclidean norm.
    """

    k: float
    r_plus: np.ndarray
    r_minus: np.ndarray
    d1: float
    d2: float
    d3: float
    eps_k: float


def _pick(form_a: np.ndarray, form_b: np.ndarray) -> np.ndarray:
    """Row by row, the better-conditioned of two proportional eigenvector readouts.

    The two forms, shape (n, 2), are the two adjugate columns of
    (sin H† - mu); they vanish together only at an exceptional point, which
    callers exclude. Each chosen row is normalized, with the canonical
    overall sign that makes its largest-magnitude component positive.
    """
    norm_a = np.linalg.norm(form_a, axis=1, keepdims=True)
    norm_b = np.linalg.norm(form_b, axis=1, keepdims=True)
    v = np.where(norm_a >= norm_b, form_a, form_b)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
    return np.where(lead > 0, v, -v)


def _left_eigen(ks: np.ndarray, p: WalkParams):
    """(r_plus, r_minus, d1, d2, d3, eps) over the momenta ``ks``, as arrays.

    Raises DegenerateAtK naming the first momentum at or beyond coalescence.
    """
    a = spectral_a(ks, p)
    bad = np.flatnonzero(np.abs(a) >= 1.0 - UNBROKEN_MARGIN)
    if bad.size:
        k, a_k = ks[bad[0]], a[bad[0]]
        raise DegenerateAtK(f"|a({k:.6f})| = {abs(a_k):.15f} at or beyond coalescence")
    d1 = np.cosh(2 * p.gamma) * np.cos(p.theta1) * np.sin(p.theta2) + np.sin(
        p.theta1
    ) * np.cos(p.theta2) * np.cos(2 * ks)
    d2 = np.full_like(ks, -np.sin(p.theta2) * np.sinh(2 * p.gamma))
    d3 = np.cos(p.theta2) * np.sin(2 * ks)
    eps = np.arccos(a)
    s = np.sin(eps)
    r_plus = _pick(np.stack([d1 - d2, -d3 - s], axis=1), np.stack([d3 - s, d1 + d2], axis=1))
    r_minus = _pick(np.stack([d1 - d2, -d3 + s], axis=1), np.stack([d3 + s, d1 + d2], axis=1))
    return r_plus, r_minus, d1, d2, d3, eps


def left_eigvecs(k: float, p: WalkParams) -> LeftEigenPair:
    """Closed-form left eigenvectors of H_c(k) in the unbroken regime.

    With
        d1 = cosh(2 gamma) cos(theta1) sin(theta2) + sin(theta1) cos(theta2) cos(2k)
        d2 = -sin(theta2) sinh(2 gamma)
        d3 = cos(theta2) sin(2k)
        eps = acos(a(k)),  s = sin(eps)

    sin(H_c(k)†) is the real matrix [[-d3, -(d1 - d2)], [-(d1 + d2), d3]],
    so its eigenvectors (shared with H_c(k)†) can be read off two ways:

        +eps:  (d1 - d2, -d3 - s)   or   (d3 - s, d1 + d2)
        -eps:  (d1 - d2, -d3 + s)   or   (d3 + s, d1 + d2)

    The identity d1^2 - d2^2 + d3^2 = s^2 guarantees both readouts of one
    eigenvector vanish together only when s = 0, so picking the larger-norm
    form is well conditioned everywhere away from the exceptional point.
    This is a one-point view of the grid computation in :func:`build_metric`.
    """
    r_plus, r_minus, d1, d2, d3, eps = _left_eigen(np.array([k], dtype=float), p)
    return LeftEigenPair(
        k,
        r_plus[0].astype(complex),
        r_minus[0].astype(complex),
        float(d1[0]),
        float(d2[0]),
        float(d3[0]),
        float(eps[0]),
    )


@dataclass(frozen=True)
class MetricSpec:
    """How to choose the per-momentum weights x(k), y(k).

    kind 'g1_flat' fixes x = y = 1; 'random_xy' draws both i.i.d. uniform on
    [low, high) from the seeded generator, one (x, y) pair per grid point in
    grid order; 'explicit' takes the tables as given. Blocks are always
    rescaled to unit trace afterwards.
    """

    kind: str = "g1_flat"
    seed: int | None = None
    x: tuple[float, ...] | None = None
    y: tuple[float, ...] | None = None
    low: float = 0.2
    high: float = 2.0
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ("g1_flat", "random_xy", "explicit"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "random_xy" and self.seed is None:
            raise ValueError("random_xy requires a seed")
        if self.kind == "explicit" and (self.x is None or self.y is None):
            raise ValueError("explicit requires x and y tables")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "random_xy":
            return f"random_xy_{self.seed}"
        return self.kind

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "low": self.low, "high": self.high}
        if self.seed is not None:
            d["seed"] = self.seed
        if self.name is not None:
            d["name"] = self.name
        if self.x is not None:
            d["x"] = list(self.x)
            d["y"] = list(self.y)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MetricSpec":
        return cls(
            kind=d.get("kind", "g1_flat"),
            seed=d.get("seed"),
            x=tuple(d["x"]) if "x" in d else None,
            y=tuple(d["y"]) if "y" in d else None,
            low=d.get("low", 0.2),
            high=d.get("high", 2.0),
            name=d.get("name"),
        )


def _weights(spec: MetricSpec, n: int) -> np.ndarray:
    if spec.kind == "g1_flat":
        return np.ones((n, 2))
    if spec.kind == "random_xy":
        rng = np.random.default_rng(spec.seed)
        return rng.uniform(spec.low, spec.high, size=(n, 2))
    xs, ys = np.asarray(spec.x, float), np.asarray(spec.y, float)
    if len(xs) != n or len(ys) != n:
        raise ValueError(f"explicit tables must have {n} entries")
    return np.stack([xs, ys], axis=1)


def build_metric(p: WalkParams, spec: MetricSpec) -> BlockOperator:
    """Per-momentum metric blocks, Hermitian positive definite with unit trace.

    The left eigenvectors of the whole grid come from one array evaluation
    of the closed form in :func:`left_eigvecs`, and the blocks
    x (|r_+><r_+| + y |r_-><r_-|) / trace are formed as one (L, 2, 2) array.
    """
    ks = momentum_grid(p.lattice_size)
    if p.gamma == 0.0 and spec.kind == "g1_flat":
        # unitary walk: the flat metric is exactly maximally mixed at every k,
        # valid even where the spectrum touches |a| = 1 (plain degeneracy,
        # not an exceptional point, when the walk is unitary)
        blocks = np.tile(np.eye(2, dtype=complex) / 2.0, (len(ks), 1, 1))
        return BlockOperator(ks, blocks)
    if not is_unbroken(p):
        raise BrokenRegime("no positive metric beyond the exceptional point")
    w = _weights(spec, len(ks))
    r_plus, r_minus = _left_eigen(ks, p)[:2]
    g = w[:, 0, None, None] * (
        r_plus[:, :, None] * r_plus[:, None, :]
        + w[:, 1, None, None] * (r_minus[:, :, None] * r_minus[:, None, :])
    )
    g = (g + g.swapaxes(1, 2)) / 2.0
    blocks = (g / np.trace(g, axis1=1, axis2=2)[:, None, None]).astype(complex)
    return BlockOperator(ks, blocks)


def eta(g: BlockOperator) -> BlockOperator:
    """Blockwise positive square root of the metric."""
    return BlockOperator(g.points, np.stack([linalg.herm_sqrt(b) for b in g.blocks]))


def _check_pd(g: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    if w.min() <= 0.0:
        raise SingularMetric(f"metric eigenvalue {w.min():.3e} is not positive")
    return g


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
    _check_pd(np.asarray(g, dtype=complex))
    w, v = np.linalg.eigh((np.asarray(g, complex) + np.asarray(g, complex).conj().T) / 2)
    e = (v * np.sqrt(w)) @ v.conj().T
    e_inv = (v / np.sqrt(w)) @ v.conj().T
    return linalg.trace_norm(e @ np.asarray(x, complex) @ e_inv)


@dataclass(frozen=True)
class MetricTransport:
    """Blockwise maps between two metric choices for the same Hamiltonian.

    T(k) commutes with H_c(k) and pulls G' back to G: T† G T = G'. U(k) is
    unitary and connects the square roots: eta' = U eta T. Observables and
    states mapped to the unitary frame through different metrics are related
    by conjugation with U.
    """

    t: BlockOperator
    u: BlockOperator


def _transport_block(g, gp, h):
    sys = linalg.eig(h, want_left=True)
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
    e = linalg.herm_sqrt(g)
    ep = linalg.herm_sqrt(gp)
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


def metric_transport(g: BlockOperator, gp: BlockOperator, h: BlockOperator) -> MetricTransport:
    """Construct T and U per momentum block; raises IncompatibleMetrics on failure."""
    ts = np.empty_like(g.blocks)
    us = np.empty_like(g.blocks)
    for i in range(len(g)):
        ts[i], us[i] = _transport_block(g.blocks[i], gp.blocks[i], h.blocks[i])
    return MetricTransport(BlockOperator(g.points, ts), BlockOperator(g.points, us))


def separability_defect(g: BlockOperator) -> float:
    """Distance of a block-diagonal metric from any momentum (x) coin product.

    Blocks are trace-normalized and compared with their grid average in
    Frobenius norm; the defect vanishes exactly when all normalized blocks
    are equal, the only way a block-diagonal metric factorizes with a
    diagonal momentum part.
    """
    normed = g.blocks / np.trace(g.blocks, axis1=1, axis2=2)[:, None, None]
    mean = normed.mean(axis=0)
    return float(np.linalg.norm(normed - mean, axis=(1, 2)).max())


def verify_metric_action(
    g: np.ndarray, basis: np.ndarray, n_samples: int = 8, seed: int = 0
) -> float:
    """Residual of the basis-expansion identity for the metric action.

    For an orthonormal basis {xi_n} and the G inner product <.|.>_G = <.|G .>,
    G psi must equal sum_n <xi_n|psi>_G xi_n. Returns the maximum Euclidean
    residual over random unit vectors psi.
    """
    g = np.asarray(g, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    n = g.shape[0]
    if np.abs(basis.conj().T @ basis - np.eye(n)).max() > 1e-12:
        raise ValueError("basis columns are not orthonormal")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        expanded = basis @ (basis.conj().T @ (g @ psi))
        worst = max(worst, float(np.linalg.norm(g @ psi - expanded)))
    return worst


def write_metric_csv(g: BlockOperator, path, comment: str | None = None) -> None:
    """Audit export: one row per momentum with the four complex block entries."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "re_g11", "im_g11", "re_g12", "im_g12", "re_g21", "im_g21", "re_g22", "im_g22"]
        )
        for k, b in zip(g.points, g.blocks):
            row = [repr(float(k))]
            for entry in b.reshape(-1):
                row += [repr(float(entry.real)), repr(float(entry.imag))]
            writer.writerow(row)
