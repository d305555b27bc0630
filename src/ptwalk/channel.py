"""Reduced coin dynamics in the unitary frame: a momentum average of Bloch rotations.

The walk block is W_c(k) = a(k) I - i S(k) with the real traceless
S = sin H_c(k) = [[-d3, -(d1 + d2)], [-(d1 - d2), d3]] (``_sin_entries``).
Every admissible metric block G(k) has S^T G = G S, which makes
W_eta(k) = eta W_c eta^{-1}, eta = sqrt(G), unitary in the unbroken regime:
a rotation about an axis in the x-z plane,

    W_eta(k) = cos(eps_k) I - i sin(eps_k) (n_x sigma_x + n_z sigma_z),    cos(eps_k) = a(k).

The metric picks only the axis; eps_k is the same for every metric. The
axis follows from the metric weight y(k) in closed form, with no root of G
(Mostafazadeh, J. Math. Phys. 43, 205 (2002)), and ``build_euclidean_walk``
is the one function that reads it. Let r_+ and v_+ be the unit
eigenvectors of S^T and of S at +sin(eps_k), with r_+ . v_+ > 0; S^T is S
with d2 -> -d2, so one readout gives both. The left eigenvector r_- at
-sin(eps_k) is orthogonal to v_+, so r_- = J v_+ up to sign, J the
90-degree turn. Since G = r_+ r_+^T + y r_- r_-^T has G v_+ = (r_+ . v_+) r_+
and sqrt(det G) = sqrt(y) (r_+ . v_+), Levinger's root eta = (G + sqrt(det G) I)/tau
sends v_+ along u = r_+ + sqrt(y) v_+, the +sin(eps_k) eigenvector of the
symmetric R = eta S eta^{-1}. So the axis lies at twice the angle of u,

    phi_k = alpha_v + atan2(sin delta_k, sqrt(y_k) + cos delta_k),    n_k = (sin 2 phi_k, 0, cos 2 phi_k),

alpha_v the angle of v_+ and delta_k that from v_+ to r_+; it is evaluated
as (n_x, n_z) = (2 u_0 u_1, u_0^2 - u_1^2)/|u|^2. The arc runs from r_+
(y -> 0) through the bisector (the flat metric, y = 1) to v_+ (y -> infinity).
For a unitary walk (gamma = 0) S is symmetric, so R = S under every metric
and the axis (n_x, n_z) = -(d1, d3)/sin(eps_k) is read from S alone: the
Hermitian limit is exact. Where |a(k)| = 1, which only the flat metric admits
there, the block is +-I: its angle is atan2(|(d1, d3)|, a) and its axis z.

Starting the walker at the origin with coin state rho_c = (I + r . sigma)/2,
the reduced coin state after t steps is the momentum average

    rho_c(t) = (1/L) sum_k W_eta(k)^t rho_c W_eta(k)†^t = (I + (M(t) r) . sigma)/2,

and the real 3x3 Bloch matrix M(t) has the closed form, in the double angles 2t eps_k,

    M(t) = I - (1/L) sum_k (1 - cos 2t eps_k)(I - n_k n_k^T) + (1/L) sum_k sin(2t eps_k) [n_k]_x.

With n_y = 0 it needs five momentum sums per step: 1 - cos 2t eps_k with
the weights 1, n_z^2 and n_x n_z, and sin 2t eps_k with n_z and n_x.
M_yy(t) = 1 - (1/L) sum_k (1 - cos 2t eps_k) is the first of them alone, with
no metric term, and M(0) = I exactly, since every term vanishes at t = 0.
The steps run in blocks t = t0 + j, j < chunk, and the double angles are
stepped, not recomputed: 1 - cos and sin of 2j eps_k are tabulated once,
sin and cos of 2 t0 eps_k are evaluated directly once per block, and the
angle-addition identities

    1 - cos(a + b) = (1 - cos a) cos b + sin a sin b + (1 - cos b),
    sin(a + b) = sin a cos b - (1 - cos a) sin b + sin b,

with a = 2j eps_k and b = 2 t0 eps_k, put the block start into the weights:
a block of sums is one product of the (chunk, 2P) table with (2P, 5)
weights scaled by cos b and sin b, plus the b-only terms.

P = (L+1)/2 is the number of +-k pairs. a(k) depends on k only through
cos 2k, and the grid is exactly antisymmetric (``walk.momentum_grid``:
k_0 = -pi, k_{L-n} = -k_n bitwise), so eps_{L-n} = eps_n bitwise and each
sum runs over k_0 and k_1..k_{(L-1)/2} alone, with the weights of k_n and
k_{L-n} added first: entry 0, then w_n + w_{L-n}. The pass refuses angles
that are not bitwise symmetric. That takes about (chunk + T/chunk) (L+1)/2
transcendentals for T steps instead of T L, and no pass over a block's
(chunk, P) entries besides the product. Every block start is evaluated
directly, so the roundoff does not accumulate from block to block, and the
first block (t0 = 0) is the product of the directly evaluated table.

The angles depend on the walk parameters alone, so ``build_euclidean_walk``
reads them once for every metric of one WalkParams, and one pass serves all
of them: the table and the block starts are computed once, and each metric
keeps its own weights and its own table product per block, so its M(t) is
bit for bit the same alone or next to any other metrics.

The angles are read from a(k) (``spectral_a``), not from a matrix: they
are then bit-identical across metrics, and the inversions behind the
CP-indivisibility measure do not amplify a metric-dependent angle error. A
block of steps holds at most BLOCK_ELEMENTS (step, pair) entries, so the
phase table stays bounded at any horizon.

A step from t-1 to t is the map A(t) = M(t) M(t-1)^{-1}, again unital. The
Choi matrix of a unital qubit map has a closed-form spectrum (King & Ruskai,
IEEE TIT 47, 192 (2001)): with the singular values l1 >= l2 >= l3 of
A = U diag(l) V^T, the smallest carrying the sign det(U) det(V^T) of its
singular vectors, A is a Pauli channel diag(l1, l2, l3) up to rotations
before and after, which leave the Choi spectrum unchanged. For a
nonsingular A that sign is the sign of det A, so one SVD without singular
vectors and one determinant suffice; at a singular A, l3 = 0 and the sign
does not matter. The unit-trace Choi eigenvalues are

    mu = (1 + l1 + l2 + l3)/4, (1 + l1 - l2 - l3)/4,
         (1 - l1 + l2 - l3)/4, (1 - l1 - l2 + l3)/4.

Their absolute sum is the Choi trace norm: 1 for a completely positive step,
2 for the transpose map diag(1, -1, 1). In the Pauli basis (I, sigma_x,
sigma_y, sigma_z)/sqrt(2) the 4x4 map on vectorized coin states is
diag(1, M(t)), so the conditioning of an inversion is that of diag(1, M).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrokenRegime, LightConeViolation, NotPositive
from .metric import MetricSpec
from .walk import UNBROKEN_MARGIN, WalkParams, momentum_grid, spectral_a

# Condition number beyond which the intermediate-map inversion is flagged
# and a cutoff pseudo-inverse is used instead of a direct solve.
ILL_CONDITION_LIMIT = 1e12
PINV_RCOND = 1e-12
# Cap on the (steps x +-k pairs) entries of a block of the closed form: it
# bounds the table of the in-block double angles.
BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class EuclideanWalk:
    """One walk in the unitary frames of m metrics: its (L,) rotation angles, (m, L) x-z axes and health.

    ``eps`` are the walk's angles, L = ``len(eps)``; row i of ``n_x`` and
    ``n_z`` is the axis under metric i. The M(t) pass reads these alone.
    ``pseudo_hermiticity_residual`` (m,) is each metric's largest
    |S^T G - G S| / (|S| |G|) over its blocks, in Frobenius norms: zero
    exactly when G has the defining property of a metric, which makes every
    W_eta(k) unitary. ``metric_condition_max`` (m,) is each metric's largest
    lambda_max / lambda_min of a block. ``ep_gap`` is min_k (1 - |a(k)|), the
    grid's distance from the exceptional point, the same under every metric.
    """

    eps: np.ndarray
    n_x: np.ndarray
    n_z: np.ndarray
    pseudo_hermiticity_residual: np.ndarray
    ep_gap: float
    metric_condition_max: np.ndarray


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


def _plus_eigenvector(d1, d2, d3, s) -> np.ndarray:
    """Unit eigenvectors at +s of S = [[-d3, -(d1 + d2)], [-(d1 - d2), d3]], one row per momentum, shape (n, 2).

    S^T is S with d2 -> -d2, so called with -d2 this reads the left
    eigenvector. The two adjugate columns of S - s, (d1 + d2, -d3 - s) and
    (d3 - s, d1 - d2), are proportional; the identity d1^2 - d2^2 + d3^2 = s^2
    makes them vanish together only where s = 0, an exceptional point, which
    callers exclude. The longer one is kept, normalized, with the canonical
    overall sign that makes its larger-magnitude component positive (the
    first one on a tie).
    """
    a0, a1, b0, b1 = d1 + d2, -d3 - s, d3 - s, d1 - d2
    norm_a = np.sqrt(a0 * a0 + a1 * a1)
    norm_b = np.sqrt(b0 * b0 + b1 * b1)
    first = norm_a >= norm_b
    norm = np.where(first, norm_a, norm_b)
    v = np.stack([np.where(first, a0, b0) / norm, np.where(first, a1, b1) / norm], axis=1)
    lead = np.where(np.abs(v[:, 0]) >= np.abs(v[:, 1]), v[:, 0], v[:, 1])
    return np.where(lead[:, None] > 0, v, -v)


def build_euclidean_walk(p: WalkParams, specs: tuple[MetricSpec, ...]) -> tuple[EuclideanWalk, np.ndarray]:
    """The walk under every metric of ``specs``, the rotation of each W_eta(k) (module docstring), and the metrics.

    The walk's frame, a(k), eps_k, S(k) and r_+, v_+, r_- = J v_+, is read
    once; each metric adds its weights y(k), its blocks and its axes, and its
    row is bit for bit the one its spec gives alone. Beyond the exceptional
    point no metric is positive: BrokenRegime names the first momentum with
    |a(k)| >= 1 - UNBROKEN_MARGIN, unless the walk is unitary (gamma = 0) and
    every metric flat, exactly I/2 at every k. A block that is not positive
    definite raises NotPositive, naming the first. The real symmetric blocks
    are returned as their entries G_00, G_01, G_11, shape (3, m, L), for the
    metric audit: the walk does not keep them.
    """
    ks = momentum_grid(p.lattice_size)
    a, (d1, d2, d3) = spectral_a(ks, p), _sin_entries(ks, p)
    eps = np.arccos(np.clip(a, -1.0, 1.0))
    flat = np.array([p.gamma == 0.0 and spec.kind == "g1_flat" for spec in specs])
    shape = (len(specs), len(ks))
    g = np.empty((3, *shape))  # the entries G_00, G_01, G_11 of every block
    if not flat.all():
        bad = np.flatnonzero(np.abs(a) >= 1.0 - UNBROKEN_MARGIN)
        if bad.size:
            k, a_k = ks[bad[0]], a[bad[0]]
            raise BrokenRegime(f"|a({k:.6f})| = {abs(a_k):.15f} at or beyond coalescence: no positive metric")
        s = np.sin(eps)
        r_plus, v_plus = _plus_eigenvector(d1, -d2, d3, s), _plus_eigenvector(d1, d2, d3, s)
        (p0, p1), (q0, q1) = r_plus.T, (v_plus[:, ::-1] * (-1.0, 1.0)).T  # r_- = J v_+, up to a sign G does not see
        y = np.stack([spec.weights(len(ks)) for spec in specs])
        g[:] = p0 * p0 + y * (q0 * q0), p0 * p1 + y * (q0 * q1), p1 * p1 + y * (q1 * q1)
        g /= g[0] + g[2]
    # a unitary walk's flat metric is I/2, also where |a| = 1: a plain degeneracy, not an exceptional point
    g[:, flat] = [[[0.5]], [[0.0]], [[0.5]]]
    g00, g01, g11 = g
    # closed-form eigenvalues of every block, lambda_- = det G / lambda_+
    hi = (g00 + g11) / 2.0 + np.sqrt(((g00 - g11) / 2.0) ** 2 + g01 * g01)
    lo = (g00 * g11 - g01 * g01) / hi
    bad = np.argwhere(~(lo > 0))
    if bad.size:
        raise NotPositive(f"metric block {bad[0, 1]} of {specs[bad[0, 0]].label} not positive definite")
    # S^T G - G S = [[0, c], [-c, 0]] for a symmetric G, and |S|^2 = 2 (d1^2 + d2^2 + d3^2)
    c = (d1 + d2) * g00 - (d1 - d2) * g11 - 2.0 * d3 * g01
    scale = np.sqrt(d1 * d1 + d2 * d2 + d3 * d3) * np.sqrt(g00 * g00 + 2.0 * g01 * g01 + g11 * g11)
    residual = np.divide(np.abs(c), scale, out=np.zeros_like(c), where=scale > 0.0)
    if p.gamma == 0.0:
        # unitary walk: R = S, so n sin(eps) = (R_01, R_00) = -(d1, d3) under every metric
        sin_eps = np.sqrt(d1 * d1 + d3 * d3)
        # where |a| = 1 the block is +-I up to roundoff, which acos(a) would amplify and atan2 does not
        eps = np.where(np.abs(a) >= 1.0 - UNBROKEN_MARGIN, np.arctan2(sin_eps, a), eps)
        turning = sin_eps > 0.0  # elsewhere the rotation is the identity: any axis, z, will do
        n_x = np.divide(-d1, sin_eps, out=np.zeros(shape), where=turning)
        n_z = np.divide(-d3, sin_eps, out=np.ones(shape), where=turning)
    else:
        # the arc: twice the angle of u = r_+ + sqrt(y) v_+, with r_+ . v_+ > 0
        v_plus = np.where((r_plus * v_plus).sum(axis=1)[:, None] < 0.0, -v_plus, v_plus)
        u0, u1 = r_plus.T[:, None] + np.sqrt(y) * v_plus.T[:, None]
        norm = u0 * u0 + u1 * u1
        n_x, n_z = 2.0 * u0 * u1 / norm, (u0 * u0 - u1 * u1) / norm
    return EuclideanWalk(
        eps, n_x, n_z,
        pseudo_hermiticity_residual=residual.max(axis=1),
        ep_gap=float((1.0 - np.abs(a)).min()),
        metric_condition_max=(hi / lo).max(axis=1),
    ), g


def _check_horizon(ew: EuclideanWalk, t: int) -> None:
    if t < 0:
        raise ValueError("step count must be nonnegative")
    if len(ew.eps) < 2 * t + 1:
        raise LightConeViolation(f"lattice size {len(ew.eps)} < 2*{t}+1 needed for the light cone")


def _fold(rows: np.ndarray) -> np.ndarray:
    """Rows over the L momenta folded onto the (L+1)/2 pairs: entry 0, then w_n + w_{L-n}, n = 1..(L-1)/2."""
    half = rows.shape[-1] // 2
    return np.concatenate([rows[..., :1], rows[..., 1 : half + 1] + rows[..., :half:-1]], axis=-1)


def _bloch_sums(walk: EuclideanWalk, start: int, count: int, rows) -> np.ndarray:
    """The five momentum sums of the metrics ``rows`` of ``walk`` for t = start..start+count-1, shape (len(rows), count, 5).

    The angles ``eps`` must be bitwise equal at k and -k; see the module
    docstring for the fold and the blocks of steps.
    """
    size = len(walk.eps)
    half = size // 2
    if not np.array_equal(walk.eps[1 : half + 1], walk.eps[:half:-1]):
        raise ValueError("the angles eps differ at k and -k: the +-k pairs cannot be summed once")
    eps = walk.eps[: half + 1]
    pairs = len(eps)
    chunk = min(count, max(1, BLOCK_ELEMENTS // pairs))
    # weights of the sums, folded onto the pairs: 1, n_z^2 and n_x n_z on 1 - cos, n_z and n_x on sin
    axes = list(zip(walk.n_x[rows], walk.n_z[rows]))
    turns = [_fold(np.stack([np.ones(size), n_z * n_z, n_x * n_z]) / size) for n_x, n_z in axes]
    crosses = [_fold(np.stack([n_z, n_x]) / size) for n_x, n_z in axes]
    # (1 - cos a, sin a) of the double angles a = 2j eps of the steps within a block, j < chunk
    table = np.empty((chunk, 2 * pairs))
    vers_j, sin_j = table[:, :pairs], table[:, pairs:]
    np.multiply.outer(np.arange(chunk), 2.0 * eps, out=sin_j)
    np.cos(sin_j, out=vers_j)
    np.subtract(1.0, vers_j, out=vers_j)
    np.sin(sin_j, out=sin_j)
    # per-block buffers: sin, cos, 1 - cos and -sin of the block start
    sin_0, cos_0, vers_0, minus_sin_0 = np.empty((4, pairs))
    weights = np.empty((5, 2 * pairs))
    sums = np.empty((len(axes), count, 5))
    for lo in range(0, count, chunk):
        steps = min(chunk, count - lo)
        # the block start b = 2 t0 eps, evaluated directly
        np.multiply(2 * (start + lo), eps, out=sin_0)
        np.cos(sin_0, out=cos_0)
        np.sin(sin_0, out=sin_0)
        np.subtract(1.0, cos_0, out=vers_0)
        np.negative(sin_0, out=minus_sin_0)
        for turn, cross, block in zip(turns, crosses, sums[:, lo : lo + steps]):
            # the b-only terms, then the weights scaled by the angle-addition
            # identities of the module docstring; one product per metric, so
            # that a row's M(t) does not depend on the rows next to it
            block[:, :3] = turn @ vers_0
            block[:, 3:] = cross @ sin_0
            if steps > 1:  # the table's row j = 0 is zero: a one-step block is its start alone
                np.multiply(turn, cos_0, out=weights[:3, :pairs])
                np.multiply(turn, sin_0, out=weights[:3, pairs:])
                np.multiply(cross, minus_sin_0, out=weights[3:, :pairs])
                np.multiply(cross, cos_0, out=weights[3:, pairs:])
                block += table[:steps] @ weights.T
    return sums


def _bloch_matrices(walk: EuclideanWalk, start: int, count: int, rows=slice(None)) -> np.ndarray:
    """M(t) of the metrics ``rows`` of ``walk`` for t = start..start+count-1, shape (len(rows), count, 3, 3).

    The sums come from their own function, so that its phase tables are freed
    before the output is allocated.
    """
    v_all, v_zz, v_xz, s_z, s_x = np.moveaxis(_bloch_sums(walk, start, count, rows), -1, 0)
    out = np.empty((len(v_all), count, 3, 3))
    out[..., 0, 0] = 1.0 - v_zz
    out[..., 1, 1] = 1.0 - v_all
    out[..., 2, 2] = 1.0 - (v_all - v_zz)
    out[..., 0, 2] = out[..., 2, 0] = v_xz
    out[..., 0, 1], out[..., 1, 0] = -s_z, s_z
    out[..., 1, 2], out[..., 2, 1] = -s_x, s_x
    return out


def equal_classes(arrays) -> tuple[list[int], list[int]]:
    """Classes of bitwise-equal arrays: the position of each class's first array, and each array's class.

    Arrays are equal when their shapes, dtypes and bytes are, so no
    tolerance enters (and -0.0 differs from 0.0). Classes are numbered in
    the order of their first arrays.
    """
    classes, first, index = {}, [], []
    for i, a in enumerate(arrays):
        a = np.asarray(a)
        c = classes.setdefault((a.shape, a.dtype.str, a.tobytes()), len(first))
        if c == len(first):
            first.append(i)
        index.append(c)
    return first, index


def bloch_matrix_series(walk: EuclideanWalk, t_max: int, rows=slice(None)) -> np.ndarray:
    """Real 3x3 Bloch matrices M(t) of the reduced maps of the metrics ``rows`` of ``walk`` (all by default), t = 0..t_max.

    Returns shape (len(rows), t_max+1, 3, 3). The t-step map under a metric
    sends the Bloch vector r of a coin state to M(t) r; see the module
    docstring for the closed form and for why a row's M(t) does not depend
    on the rows next to it. Metrics with bitwise equal axes, as every metric
    has at gamma = 0, have bitwise equal M(t): a caller that knows its
    classes (``equal_classes``) passes one row of each.
    """
    _check_horizon(walk, t_max)
    return _bloch_matrices(walk, 0, t_max + 1, rows)


def intermediate_maps(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step maps A(t) = M(t) M(t-1)^{-1}, t = 1..t_max, from the stack M(0..t_max).

    Returns the (t_max, 3, 3) maps, the condition number of each inverted
    map L(t-1, 0) = diag(1, M(t-1)), which is max(1, s_max) / min(1, s_min)
    over the singular values s of M(t-1), and a mask of the steps where it
    exceeds ILL_CONDITION_LIMIT. Those steps use the cutoff pseudo-inverse of
    L(t-1, 0) instead of the inverse; all others share one batched solve.
    """
    prev, cur = bloch[:-1], bloch[1:]
    sv = np.linalg.svd(prev, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = np.maximum(sv[:, 0], 1.0) / np.minimum(sv[:, -1], 1.0)
    flagged = ~(cond <= ILL_CONDITION_LIMIT)
    maps = np.empty_like(cur)
    solved = ~flagged
    # A M(t-1) = M(t) is solved as M(t-1)^T A^T = M(t)^T
    maps[solved] = np.linalg.solve(
        prev[solved].swapaxes(1, 2), cur[solved].swapaxes(1, 2)
    ).swapaxes(1, 2)
    for i in np.flatnonzero(flagged):
        # numpy's pinv cutoff, relative to the largest singular value of diag(1, M)
        u, s, vt = np.linalg.svd(prev[i])
        keep = s > PINV_RCOND * max(1.0, s[0])
        maps[i] = cur[i] @ (vt[keep].T / s[keep]) @ u[:, keep].T
    return maps, cond, flagged


def choi_trace_norms(maps: np.ndarray) -> np.ndarray:
    """Trace norms of the Choi matrices of unital qubit maps, from their Bloch matrices.

    ``maps`` has shape (..., 3, 3); see the module docstring for the
    signed-singular-value recipe, the sign taken from det A. The result is 1
    for a completely positive map and exceeds 1 otherwise.
    """
    lam = np.linalg.svd(maps, compute_uv=False)
    lam[..., -1] *= np.sign(np.linalg.det(maps))
    l1, l2, l3 = np.moveaxis(lam, -1, 0)
    mu = np.stack([1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3])
    return np.abs(mu / 4.0).sum(axis=0)


def trace_norm(a: np.ndarray) -> float:
    """Schatten 1-norm of one square matrix, the sum of its singular values; ValueError for any other shape.

    The program does not call it: ``ptwalk.measures`` imports it for the benchmark, which wraps it there.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False).sum())
