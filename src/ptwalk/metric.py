"""Metric operators compatible with the walk Hamiltonian.

A momentum-block metric is built from the left eigenvectors r_+(k), r_-(k)
of H_c(k) (equivalently, eigenvectors of H_c(k)†) and one weight y(k) > 0 as

    G(k) = |r_+><r_+| + y(k) |r_-><r_-|,

rescaled to unit trace. The left eigenvectors are real for this walk, so
every such block is real symmetric, positive definite and
pseudo-Hermitian-compatible: H_c(k)† G(k) = G(k) H_c(k). The weight reaches
the walk only as the axis of its rotations (``ptwalk.channel``); the blocks
themselves go to the audit CSV alone.
"""

from dataclasses import dataclass

import numpy as np

from .config import Config
from .errors import BrokenRegime, DegenerateAtK
from .walk import UNBROKEN_MARGIN, WalkParams, momentum_grid, spectral_a

# Rows of the audit CSV formatted and written together. It bounds the
# strings alive at once: formatted in one piece, the L = 4001 files raised
# the peak RSS of a one-worker wide-lattice run (t_max = 20) by 1.8 MB.
AUDIT_BLOCK_ROWS = 512


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

    With eps = acos(a(k)), sin(H_c(k)†) is the real matrix
    [[-d3, -(d1 - d2)], [-(d1 + d2), d3]], so the left eigenvectors
    H_c(k)† r_pm = (pm eps) r_pm, rows of unit norm, can be read off two ways:

        +eps:  (d1 - d2, -d3 - s)   or   (d3 - s, d1 + d2)
        -eps:  (d1 - d2, -d3 + s)   or   (d3 + s, d1 + d2)

    The identity d1^2 - d2^2 + d3^2 = s^2 makes both readouts of one
    eigenvector vanish together only when s = 0, so ``_pick`` keeps the
    better-conditioned one. Raises DegenerateAtK naming the first momentum
    at or beyond coalescence.
    """
    bad = np.flatnonzero(np.abs(a) >= 1.0 - UNBROKEN_MARGIN)
    if bad.size:
        k, a_k = ks[bad[0]], a[bad[0]]
        raise DegenerateAtK(f"|a({k:.6f})| = {abs(a_k):.15f} at or beyond coalescence")
    diff, total = d1 - d2, d1 + d2
    return _pick(diff, -d3 - s, d3 - s, total), _pick(diff, -d3 + s, d3 + s, total)


@dataclass(frozen=True)
class MetricSpec(Config):
    """How to choose the per-momentum weight y(k) of G = r_+ r_+^T + y r_- r_-^T.

    kind 'g1_flat' fixes y = 1; 'random_xy' draws a pair of i.i.d. uniform
    values on [low, high) per grid point, in grid order, from the seeded
    generator, and takes y as the second of each pair, so a seed keeps the
    table it has always drawn; 'explicit' takes the ``y`` table as given.
    ``name`` is a file stem, so it holds no path separator.
    """

    kind: str = "g1_flat"
    low: float = 0.2
    high: float = 2.0
    seed: int | None = None
    name: str | None = None
    y: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("g1_flat", "random_xy", "explicit"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "random_xy" and self.seed is None:
            raise ValueError("random_xy requires a seed")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.name is not None and ("/" in self.name or "\\" in self.name):
            raise ValueError(f"name {self.name!r} holds a path separator")
        if self.kind == "explicit" and self.y is None:
            raise ValueError("explicit requires a y table")

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "random_xy":
            return f"random_xy_{self.seed}"
        return self.kind


def _weights(spec: MetricSpec, n: int) -> np.ndarray:
    """The (n,) weights y(k) of ``spec`` on a grid of n points."""
    if spec.kind == "g1_flat":
        return np.ones(n)
    if spec.kind == "random_xy":
        return np.random.default_rng(spec.seed).uniform(spec.low, spec.high, size=(n, 2))[:, 1]
    ys = np.asarray(spec.y, float)
    if len(ys) != n:
        raise ValueError(f"explicit table must have {n} entries")
    return ys


def _metric_frame(p: WalkParams, spec: MetricSpec):
    """(G, a, eps, (d1, d2, d3), arc): the (L, 2, 2) unit-trace metric blocks and what the walk's frame is read from.

    a(k), eps_k = acos a(k) and the entries of S = sin H_c(k) come with
    arc = (y, r_plus, v_plus): the weights y(k) and the unit eigenvectors of
    S^T (``_left_eigen``) and of S at +sin(eps_k), r_plus . v_plus > 0. arc
    is None for a unitary walk (gamma = 0), whose frame is S alone.
    """
    ks = momentum_grid(p.lattice_size)
    a, sin_h = spectral_a(ks, p), _sin_entries(ks, p)
    eps = np.arccos(np.clip(a, -1.0, 1.0))
    if p.gamma == 0.0 and spec.kind == "g1_flat":
        # unitary walk: the flat metric is exactly maximally mixed at every k,
        # valid even where the spectrum touches |a| = 1 (plain degeneracy,
        # not an exceptional point, when the walk is unitary)
        return np.tile(np.eye(2) / 2.0, (len(ks), 1, 1)), a, eps, sin_h, None
    s = np.sin(eps)
    try:
        r_plus, r_minus = _left_eigen(ks, a, s, *sin_h)
    except DegenerateAtK as exc:
        raise BrokenRegime("no positive metric beyond the exceptional point") from exc
    y = _weights(spec, len(ks))
    g = r_plus[:, :, None] * r_plus[:, None, :] + y[:, None, None] * (r_minus[:, :, None] * r_minus[:, None, :])
    g /= np.trace(g, axis1=1, axis2=2)[:, None, None]
    if p.gamma == 0.0:
        return g, a, eps, sin_h, None
    # S is S^T with d2 -> -d2, and so is the readout of its eigenvector
    d1, d2, d3 = sin_h
    v_plus = _pick(d1 + d2, -d3 - s, d3 - s, d1 - d2)
    v_plus = np.where((r_plus * v_plus).sum(axis=1)[:, None] < 0.0, -v_plus, v_plus)
    return g, a, eps, sin_h, (y, r_plus, v_plus)


def write_metric_csv(g: np.ndarray, k_column: list[str], path, comment: str | None = None) -> None:
    """Audit export of the (L, 2, 2) blocks ``g``: one row per momentum with the four block entries, re and im.

    The blocks must be real symmetric, as :func:`_metric_frame` makes them, so
    g21 is g12 and every im is 0.0; others raise ValueError. ``k_column`` is
    the momentum column already formatted, one string per block, so that
    metrics on one grid share it. Every value is written with ``repr``. The
    rows go out in blocks of ``AUDIT_BLOCK_ROWS``: each column of a block is
    formatted in one pass and set into its rows with one extended-slice
    assignment, and the block is one write.
    """
    if np.iscomplexobj(g) or not np.array_equal(g[:, 0, 1], g[:, 1, 0]):
        raise ValueError("metric audit needs real symmetric blocks (g12 == g21)")
    if len(k_column) != len(g):
        raise ValueError(f"momentum column has {len(k_column)} entries for {len(g)} blocks")
    # csv's default dialect, no field needing quoting: k, g11, g12, g12 and
    # g22, each followed by its separator and an im column of 0.0
    row = ["", ",", "", ",0.0,", "", ",0.0,", "", ",0.0,", "", ",0.0\r\n"]
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("k,re_g11,im_g11,re_g12,im_g12,re_g21,im_g21,re_g22,im_g22\r\n")
        for start in range(0, len(g), AUDIT_BLOCK_ROWS):
            block = g[start : start + AUDIT_BLOCK_ROWS]
            fields = row * len(block)
            fields[::10] = k_column[start : start + AUDIT_BLOCK_ROWS]
            fields[2::10] = map(repr, block[:, 0, 0].tolist())
            fields[4::10] = fields[6::10] = list(map(repr, block[:, 0, 1].tolist()))
            fields[8::10] = map(repr, block[:, 1, 1].tolist())
            fh.write("".join(fields))
