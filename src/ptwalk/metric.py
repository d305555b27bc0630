"""Metric choices for the walk.

A momentum-block metric is built from the left eigenvectors r_+(k), r_-(k)
of H_c(k) (equivalently, eigenvectors of H_c(k)†) and one weight y(k) > 0 as

    G(k) = |r_+><r_+| + y(k) |r_-><r_-|,

rescaled to unit trace. ``MetricSpec`` says how y(k) is chosen, and
``MetricSpec.weights`` draws it on a grid. ``channel.build_euclidean_walk``
builds the blocks of every metric of a walk from the walk's one frame: the
left eigenvectors are real for this walk, so every block is real symmetric,
positive definite and pseudo-Hermitian-compatible, H_c(k)† G(k) = G(k) H_c(k). The weight reaches
the walk only as the axis of its rotations; the blocks themselves go to the
metric audit alone (``ptwalk.experiments._audit_bytes``).
"""

from dataclasses import dataclass

import numpy as np

from .config import Config


@dataclass(frozen=True)
class MetricSpec(Config):
    """How to choose the per-momentum weight y(k) of G = r_+ r_+^T + y r_- r_-^T.

    kind 'g1_flat' fixes y = 1; 'random_xy' draws a pair of i.i.d. uniform
    values on [low, high) per grid point, in grid order, from the seeded
    generator, and takes y as the second of each pair, so a seed keeps the
    table it has always drawn; 'explicit' takes the ``y`` table as given.
    ``name`` is a file stem and is written into provenance lines, so it
    holds no path separator and no control or other unprintable character.
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
        if self.name is not None and any(c in "/\\" or not c.isprintable() for c in self.name):
            raise ValueError(f"name {self.name!r} holds a path separator or an unprintable character")
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
