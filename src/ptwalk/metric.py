"""Metric choices for the walk and the audit export of their blocks.

A momentum-block metric is built from the left eigenvectors r_+(k), r_-(k)
of H_c(k) (equivalently, eigenvectors of H_c(k)†) and one weight y(k) > 0 as

    G(k) = |r_+><r_+| + y(k) |r_-><r_-|,

rescaled to unit trace. ``MetricSpec`` says how y(k) is chosen, and
``MetricSpec.weights`` draws it on a grid. ``channel.build_euclidean_walk``
builds the blocks together with the walk's frame: the left eigenvectors are
real for this walk, so every block is real symmetric, positive definite and
pseudo-Hermitian-compatible, H_c(k)† G(k) = G(k) H_c(k). The weight reaches
the walk only as the axis of its rotations; the blocks themselves go to the
audit CSV alone (``write_metric_csv``).
"""

from dataclasses import dataclass

import numpy as np

from .config import Config

# Rows of the audit CSV formatted and written together. It bounds the
# strings alive at once: formatted in one piece, the L = 4001 files raised
# the peak RSS of a one-worker wide-lattice run (t_max = 20) by 1.8 MB.
AUDIT_BLOCK_ROWS = 512


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

    def weights(self, n: int) -> np.ndarray:
        """The (n,) weights y(k) on a grid of n points."""
        if self.kind == "g1_flat":
            return np.ones(n)
        if self.kind == "random_xy":
            return np.random.default_rng(self.seed).uniform(self.low, self.high, size=(n, 2))[:, 1]
        ys = np.asarray(self.y, float)
        if len(ys) != n:
            raise ValueError(f"explicit table must have {n} entries")
        return ys


def write_metric_csv(g: np.ndarray, k_column: list[str], path, comment: str | None = None) -> None:
    """Audit export of the (L, 2, 2) blocks ``g``: one row per momentum with the four block entries, re and im.

    The blocks must be real symmetric, as ``channel.build_euclidean_walk``
    makes them, so g21 is g12 and every im is 0.0; others raise ValueError.
    ``k_column`` is the momentum column already formatted, one string per
    block, so that metrics on one grid share it. Every value is written with
    ``repr``. The rows go out in blocks of ``AUDIT_BLOCK_ROWS``: each column
    of a block is formatted in one pass and set into its rows with one
    extended-slice assignment, and the block is one write.
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
