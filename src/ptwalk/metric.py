"""Metric operators compatible with the walk Hamiltonian.

A momentum-block metric is built from the left eigenvectors r_+(k), r_-(k)
of H_c(k) (equivalently, eigenvectors of H_c(k)†) as

    G(k) = x(k) ( |r_+><r_+| + y(k) |r_-><r_-| ),       x, y > 0,

rescaled to unit trace. The left eigenvectors are real for this walk, so
every such block is real symmetric, positive definite and
pseudo-Hermitian-compatible: H_c(k)† G(k) = G(k) H_c(k). The positive square
root eta(k) maps the walk to a genuinely unitary evolution, and transports
T, U connect different admissible metrics.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BrokenRegime, DegenerateAtK, IncompatibleMetrics, NotPositive, SingularMetric
from .walk import (
    UNBROKEN_MARGIN,
    BlockOperator,
    WalkParams,
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


def _pick(a0, a1, b0, b1) -> np.ndarray:
    """Momentum by momentum, the better-conditioned of two proportional eigenvector readouts.

    The forms (a0, a1) and (b0, b1), as (n,) component arrays, are the two
    adjugate columns of (sin H† - mu); they vanish together only at an
    exceptional point, which callers exclude. Each chosen vector is
    normalized, with the canonical overall sign that makes its
    larger-magnitude component positive (the first one on a tie). Returns
    the vectors as rows, shape (n, 2).
    """
    norm_a = np.sqrt(a0 * a0 + a1 * a1)
    norm_b = np.sqrt(b0 * b0 + b1 * b1)
    first = norm_a >= norm_b
    norm = np.where(first, norm_a, norm_b)
    v = np.stack([np.where(first, a0, b0) / norm, np.where(first, a1, b1) / norm], axis=1)
    lead = np.where(np.abs(v[:, 0]) >= np.abs(v[:, 1]), v[:, 0], v[:, 1])
    return np.where(lead[:, None] > 0, v, -v)


def _sin_entries(ks: np.ndarray, p: WalkParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d1, d2, d3 over the momenta ``ks``, with sin H_c(k) = [[-d3, -(d1 + d2)], [-(d1 - d2), d3]]:

    d1 = cosh(2 gamma) cos(theta1) sin(theta2) + sin(theta1) cos(theta2) cos(2k),
    d2 = -sin(theta2) sinh(2 gamma) and d3 = cos(theta2) sin(2k).
    """
    d1 = np.cosh(2 * p.gamma) * np.cos(p.theta1) * np.sin(p.theta2)
    d1 = d1 + np.sin(p.theta1) * np.cos(p.theta2) * np.cos(2 * ks)
    d2 = np.full_like(ks, -np.sin(p.theta2) * np.sinh(2 * p.gamma))
    d3 = np.cos(p.theta2) * np.sin(2 * ks)
    return d1, d2, d3


def _left_eigen(ks, a, s, d1, d2, d3) -> tuple[np.ndarray, np.ndarray]:
    """(r_plus, r_minus) over the momenta ``ks`` from a(k), s = sin(acos a(k)) and (d1, d2, d3).

    Raises DegenerateAtK naming the first momentum at or beyond coalescence.
    """
    bad = np.flatnonzero(np.abs(a) >= 1.0 - UNBROKEN_MARGIN)
    if bad.size:
        k, a_k = ks[bad[0]], a[bad[0]]
        raise DegenerateAtK(f"|a({k:.6f})| = {abs(a_k):.15f} at or beyond coalescence")
    diff, total = d1 - d2, d1 + d2
    return _pick(diff, -d3 - s, d3 - s, total), _pick(diff, -d3 + s, d3 + s, total)


def left_eigvecs(k: float, p: WalkParams) -> LeftEigenPair:
    """Closed-form left eigenvectors of H_c(k) in the unbroken regime.

    With d1, d2, d3 of :func:`_sin_entries`, eps = acos(a(k)) and s = sin(eps),
    sin(H_c(k)†) is the real matrix [[-d3, -(d1 - d2)], [-(d1 + d2), d3]],
    so its eigenvectors (shared with H_c(k)†) can be read off two ways:

        +eps:  (d1 - d2, -d3 - s)   or   (d3 - s, d1 + d2)
        -eps:  (d1 - d2, -d3 + s)   or   (d3 + s, d1 + d2)

    The identity d1^2 - d2^2 + d3^2 = s^2 guarantees both readouts of one
    eigenvector vanish together only when s = 0, so picking the larger-norm
    form is well conditioned everywhere away from the exceptional point.
    This is a one-point view of the grid computation in :func:`build_metric`.
    """
    ks = np.array([k], dtype=float)
    a, (d1, d2, d3) = spectral_a(ks, p), _sin_entries(ks, p)
    eps = np.arccos(a)
    r_plus, r_minus = _left_eigen(ks, a, np.sin(eps), d1, d2, d3)
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
    """Per-momentum metric blocks, real symmetric positive definite with unit trace.

    The blocks x (|r_+><r_+| + y |r_-><r_-|) / trace are one (L, 2, 2) array
    formed from the closed-form real left eigenvectors of :func:`left_eigvecs`.
    """
    return _metric_frame(p, spec)[0]


def _metric_frame(p: WalkParams, spec: MetricSpec):
    """The metric blocks, with the a(k), eps_k = acos a(k) and (d1, d2, d3) they were built from."""
    ks = momentum_grid(p.lattice_size)
    a, sin_h = spectral_a(ks, p), _sin_entries(ks, p)
    eps = np.arccos(np.clip(a, -1.0, 1.0))
    if p.gamma == 0.0 and spec.kind == "g1_flat":
        # unitary walk: the flat metric is exactly maximally mixed at every k,
        # valid even where the spectrum touches |a| = 1 (plain degeneracy,
        # not an exceptional point, when the walk is unitary)
        return BlockOperator(ks, np.tile(np.eye(2) / 2.0, (len(ks), 1, 1))), a, eps, sin_h
    try:
        r_plus, r_minus = _left_eigen(ks, a, np.sin(eps), *sin_h)
    except DegenerateAtK as exc:
        raise BrokenRegime("no positive metric beyond the exceptional point") from exc
    w = _weights(spec, len(ks))
    g = w[:, 0, None, None] * (
        r_plus[:, :, None] * r_plus[:, None, :]
        + w[:, 1, None, None] * (r_minus[:, :, None] * r_minus[:, None, :])
    )
    g = (g + g.swapaxes(1, 2)) / 2.0
    return BlockOperator(ks, g / np.trace(g, axis1=1, axis2=2)[:, None, None]), a, eps, sin_h


def eta(g: BlockOperator) -> BlockOperator:
    """Blockwise positive square root of the metric, the closed-form 2x2 root of every block."""
    return BlockOperator(g.points, linalg.sqrt_and_inv(g.blocks)[0])


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
        e, e_inv, _ = linalg.sqrt_and_inv(np.asarray(g, dtype=complex))
    except NotPositive as exc:
        raise SingularMetric(str(exc)) from exc
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


def metric_transport(g: BlockOperator, gp: BlockOperator, h: BlockOperator) -> MetricTransport:
    """T and U for every momentum block at once (``linalg.transport``).

    Raises IncompatibleMetrics naming the first momentum whose transport
    residuals exceed TRANSPORT_TOL; a metric block that is not positive
    definite raises NotPositive.
    """
    sys = linalg.eig(h.blocks, want_left=True)
    t, u, residuals = linalg.transport(g.blocks, gp.blocks, h.blocks, sys)
    bad = np.flatnonzero(residuals.max(axis=1) > TRANSPORT_TOL)
    if bad.size:
        i = bad[0]
        raise IncompatibleMetrics(
            f"k = {g.points[i]:.6f}: transport residuals "
            f"{tuple(float(c) for c in residuals[i])} exceed {TRANSPORT_TOL}"
        )
    return MetricTransport(BlockOperator(g.points, t), BlockOperator(g.points, u))


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


def write_metric_csv(
    g: BlockOperator, path, comment: str | None = None, k_column: list[str] | None = None
) -> None:
    """Audit export: one row per momentum with the four block entries, re and im.

    The blocks must be real symmetric, as :func:`build_metric` makes them, so
    g21 is g12 and every im is 0.0; others raise ValueError. Every value is
    written with ``repr``, each column formatted in one pass. ``k_column`` is
    the momentum column already formatted, ``repr`` of each of ``g.points``:
    metrics on one grid can share it. When None it is formatted here.
    """
    b = g.blocks
    if np.iscomplexobj(b) or not np.array_equal(b[:, 0, 1], b[:, 1, 0]):
        raise ValueError("metric audit needs real symmetric blocks (g12 == g21)")
    if k_column is None:
        k_column = list(map(repr, g.points.tolist()))
    elif len(k_column) != len(g.points):
        raise ValueError(f"momentum column has {len(k_column)} entries for {len(g.points)} blocks")
    columns = (b[:, 0, 0], b[:, 0, 1], b[:, 1, 1])
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("k,re_g11,im_g11,re_g12,im_g12,re_g21,im_g21,re_g22,im_g22\r\n")
        # csv's default dialect; no field needs quoting
        fh.writelines(
            f"{k},{g11},0.0,{g12},0.0,{g12},0.0,{g22},0.0\r\n"
            for k, g11, g12, g22 in zip(k_column, *(map(repr, c.tolist()) for c in columns))
        )
