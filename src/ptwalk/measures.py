"""Non-Markovianity and entanglement quantifiers for the reduced coin dynamics.

Information backflow is scored by the discrete accumulation

    N(t) = N(t-1) + max(0, D(t) - D(t-1)),      D = trace distance,

maximized over initial state pairs with simulated annealing. D depends on
a pair (r, s) of Bloch vectors only through their difference: with the real
3x3 Bloch-frame matrices M(t) of the reduced maps, D(t) = |M(t)(r - s)|/2,
which is what the annealer scores. Its restarts are independent seeded
chains. ``maximize_blp_many`` searches many cells at once: the chains of
every cell advance in lockstep, with one batched objective call per step,
and a cell's result does not depend on which cells share the search. A
step works in buffers made once per search, so its cost is a fixed set of
numpy calls plus the per-chain generator calls that fix every chain's path,
about half of it on the default grid.

Every measure takes the (t_max+1, 3, 3) stack M(0..t_max) of one walk
under one metric, a row of what ``ptwalk.channel.bloch_matrix_series``
returns for the metrics of one gamma, and Bloch vectors, one function per quantity: ``blp_series``, ``rhp_series`` and ``entanglement_series``.
A measure depends on the walk only through M(t), so a run computes each
once per class of metrics with equal axes: every metric of a unitary walk
(gamma = 0) has the axes of S alone and so the same M(t) to the bit, and
its cells share one series. Nothing here writes a file: ``ptwalk.experiments`` writes a
series' CSV.
Failure of CP-divisibility is scored through the one-step intermediate maps
A(t) = M(t) M(t-1)^{-1}:

    g(t) = || Choi(A(t)) ||_1 - 1,     I_RHP(t) = sum_{s<=t} g(s),

with the Choi trace norm read from the signed singular values of A(t) (see
``ptwalk.channel``). Coin-position entanglement of a pure joint trajectory is
the von Neumann entropy of the reduced coin state, in bits: with Bloch vector
M(t) r0 the state has eigenvalues (1 +- |M(t) r0|)/2, so S(t) is a binary
entropy.
"""

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

# trace_norm is not called here; perfbench wraps ptwalk.measures.trace_norm
from .channel import choi_trace_norms, intermediate_maps, trace_norm
from .config import Config

# Negative dust tolerated in g(t) before clamping to zero: the Choi trace
# norm of an exactly CP step returns 1 +- float noise.
G_CLAMP = 1e-9
# Eigenvalues at or below this are dropped from entropies as float dust.
ENTROPY_CUT = 1e-12


def _check_bloch(r) -> np.ndarray:
    """A Bloch vector as a float array; ValueError unless its shape is (3,) and |r| <= 1 (so finite)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if not np.linalg.norm(r) <= 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(r)} is not <= 1")
    return r


@dataclass
class MeasureSeries:
    """Per-step records of one study; unused columns stay None.

    ``flags[t]`` is an empty string or a short note (e.g. an ill-conditioned
    channel inversion at that step).
    """

    steps: np.ndarray
    delta: np.ndarray | None = None
    blp: np.ndarray | None = None
    g: np.ndarray | None = None
    rhp: np.ndarray | None = None
    entropy: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.flags:
            self.flags = [""] * len(self.steps)


@dataclass(frozen=True)
class AnnealSchedule(Config):
    """Geometric-cooling schedule for the state-pair search.

    Proposals perturb both Bloch vectors with Gaussian noise of the given
    standard deviation and are projected back into the unit ball. Restart 0
    starts from the best antipodal axis pair so the result can never fall
    below that baseline; remaining restarts start from random pairs drawn
    from independent substreams of the search's seed, which the schedule
    does not hold (a run passes its ``master_seed``).
    """

    initial_temperature: float = 0.1
    cooling_factor: float = 0.9
    steps_per_temperature: int = 60
    proposal_stddev: float = 0.25
    restarts: int = 5
    temperature_floor: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.cooling_factor < 1.0):
            raise ValueError("cooling_factor must lie in (0, 1)")
        for name in ("initial_temperature", "steps_per_temperature", "proposal_stddev", "restarts", "temperature_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.temperature_floor >= self.initial_temperature:
            raise ValueError("temperature_floor must be below initial_temperature")


def _backflow(dist: np.ndarray) -> MeasureSeries:
    """Increments of the distances D(0..t_max) and their positive accumulation."""
    delta = np.zeros(len(dist))
    delta[1:] = np.diff(dist)
    cumulative = np.concatenate([[0.0], np.cumsum(np.clip(delta[1:], 0.0, None))])
    return MeasureSeries(
        steps=np.arange(len(dist)),
        delta=delta,
        blp=cumulative,
        meta={"distance_0": float(dist[0])},
    )


def _distances(bloch: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Trace distances D(t) = |M(t) d|/2 of a pair with Bloch difference d."""
    return 0.5 * np.linalg.norm(bloch @ diff, axis=1)


def blp_series(bloch: np.ndarray, r, s) -> MeasureSeries:
    """Backflow increments and their monotone accumulation for the pair of Bloch vectors r, s.

    ``bloch`` is the stack M(0..t_max) of the reduced maps.
    """
    return _backflow(_distances(bloch, _check_bloch(r) - _check_bloch(s)))


def _stacks(blochs: np.ndarray) -> np.ndarray:
    """The (cells, 3, 3(t_max+1)) matrices ``_blp_objective`` multiplies by.

    ``blochs`` is the (cells, t_max+1, 3, 3) stack of M(t). Entry M(t)[i, j]
    of a cell sits in row j, column i (t_max+1) + t, so each component of
    every evolved difference M(t) d is one contiguous row of the product.
    """
    return np.ascontiguousarray(blochs.transpose(0, 3, 2, 1)).reshape(len(blochs), 3, -1)


class _Buffers:
    """The arrays ``_project_ball`` and ``_blp_objective`` write into, for n
    pairs in each cell of ``stacks``; a search makes them once, so neither
    allocates an array in its steps."""

    def __init__(self, stacks: np.ndarray, n: int):
        cells, _, width = stacks.shape
        self.sq = np.empty((cells, n, 2, 3))  # squared components of both vectors of a pair
        self.norm = np.empty((cells, n, 2))
        self.norm_col = self.norm[..., None]
        self.diff = np.empty((cells, n, 3))
        self.prod = np.empty((cells, n, width))
        self.prod_rows = self.prod.reshape(cells, n, 3, -1)
        self.dist = np.empty((cells, n, width // 3))
        self.inc = np.empty((cells, n, width // 3 - 1))
        self.val = np.empty((cells, n))


def _sq_norms(halves: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Squared norms of the (..., 2, 3) Bloch vectors, into ``buf.norm``.

    ``np.add.reduce`` over the short component axis adds the components in
    order, x + y then + z, the order np.linalg.norm uses.
    """
    np.multiply(halves, halves, out=buf.sq)
    return np.add.reduce(buf.sq, axis=-1, out=buf.norm)


def _blp_objective(stacks: np.ndarray, pairs: np.ndarray, buf: _Buffers) -> np.ndarray:
    """N(t_max) for the pairs (r, s) = pairs[c, j] of every cell c, in ``buf.val``.

    ``pairs`` has shape (cells, n, 6), ``stacks`` comes from ``_stacks`` and
    ``buf`` from ``_Buffers(stacks, n)``; the values are overwritten by the
    next call with the same buffers. Scored through the Bloch difference
    alone: D(t) = |M(t)(r - s)|/2, and N is the sum of the positive
    increments of D. The product is one stacked matmul over the cells, with
    a cell's n pairs as the rows of its own product, so a cell's values
    never depend on the other cells of the batch (the BLAS kernel may depend
    on n, which the schedule fixes).
    """
    if math.sqrt(_sq_norms(pairs.reshape(buf.sq.shape), buf).max()) > 1.0 + 1e-12:
        raise ValueError("Bloch vector outside the unit ball")
    np.subtract(pairs[..., :3], pairs[..., 3:], out=buf.diff)
    prod = np.matmul(buf.diff, stacks, out=buf.prod)
    np.multiply(prod, prod, out=prod)
    # the three component rows of each pair summed in order, x + y then + z
    dist = np.sqrt(np.add.reduce(buf.prod_rows, axis=2, out=buf.dist), out=buf.dist)
    inc = np.subtract(dist[..., 1:], dist[..., :-1], out=buf.inc)
    np.maximum(inc, 0.0, out=inc)
    # the factor 1/2 of D is exact, so it is applied to the sums
    return np.multiply(np.add.reduce(inc, axis=-1, out=buf.val), 0.5, out=buf.val)


def _project_ball(pairs: np.ndarray, buf: _Buffers) -> None:
    """Scale every Bloch vector of the C-contiguous (cells, n, 6) pairs that
    lies outside the ball onto it, in place."""
    halves = pairs.reshape(buf.sq.shape)
    norm = np.sqrt(_sq_norms(halves, buf), out=buf.norm)
    np.maximum(norm, 1.0, out=norm)
    np.divide(halves, buf.norm_col, out=halves)


_AXIS_PAIRS = np.array(
    [
        [1.0, 0, 0, -1.0, 0, 0],
        [0, 1.0, 0, 0, -1.0, 0],
        [0, 0, 1.0, 0, 0, -1.0],
    ]
)


def maximize_blp_many(blochs, schedule: AnnealSchedule, seed: int) -> list[MeasureSeries]:
    """Simulated-annealing search for the pair maximizing N(t_max), for many cells at once.

    ``blochs`` holds one Bloch-matrix series M(0..t_max) per cell (see
    ``bloch_matrix_series``), all of the same length. Both members of a pair
    range over the full Bloch ball. Every cell runs ``schedule.restarts``
    chains, and the chains of all cells advance in lockstep with one batched
    objective per step. Each chain has its own generator, seeded ``[seed,
    restart]``, so a cell's result is what a search of that cell alone
    returns, whichever cells share the batch. Returns, per cell, the
    winning pair's series; its meta holds N_max (``n_max``), the pair
    (``bloch_rho``, ``bloch_sigma``) and the schedule.

    A chain's path depends on nothing but the order in which it draws from
    its generator, the order of a one-chain-at-a-time loop: 6 standard
    normals for its start (restarts > 0 only), then per step 6 standard
    normals, scaled by ``proposal_stddev``, and one uniform if and only if
    the proposal's gain is <= 0, also when its acceptance odds underflow
    to 0.

    Proposals, objective values and masks live in buffers made once per
    search, so a step allocates no array but the odds of its rejected
    proposals, and a step where no chain moves skips the updates of the
    chains' state. Those per-chain generator calls, one Python call each,
    are the step's floor: about half of its time on the default grid.
    """
    blochs = np.asarray(blochs, dtype=float)
    cells, restarts = len(blochs), schedule.restarts
    stacks = _stacks(blochs)
    axis_vals = _blp_objective(stacks, np.broadcast_to(_AXIS_PAIRS, (cells, 3, 6)), _Buffers(stacks, 3))
    best_axis = _AXIS_PAIRS[np.argmax(axis_vals, axis=1)]

    buf = _Buffers(stacks, restarts)
    rngs = [np.random.default_rng([seed, r]) for _ in range(cells) for r in range(restarts)]
    current = np.empty((cells, restarts, 6))
    current[:, 0] = best_axis
    for i, rng in enumerate(rngs):
        if i % restarts:
            current[divmod(i, restarts)] = rng.normal(size=6)
    _project_ball(current, buf)
    cur_val = _blp_objective(stacks, current, buf).copy()
    chain_best, chain_best_val = current.copy(), cur_val.copy()
    # Each chain draws its normals into its own row of one buffer; numpy's
    # normal(0, s) is 0 + s z, so scaling the standard normals keeps the bits.
    # The proposals are made and projected in that buffer.
    prop = np.empty_like(current)
    normal_rows = [(rng.standard_normal, row) for rng, row in zip(rngs, prop.reshape(-1, 6))]
    uniforms = [rng.random for rng in rngs]
    gain = np.empty_like(cur_val)
    take, no_gain, better = (np.empty(cur_val.shape, dtype=bool) for _ in range(3))
    take_col, better_col = take[..., None], better[..., None]
    stddev = schedule.proposal_stddev
    temperature = schedule.initial_temperature
    while temperature > schedule.temperature_floor:
        for _ in range(schedule.steps_per_temperature):
            for standard_normal, row in normal_rows:
                standard_normal(out=row)
            prop *= stddev
            np.add(current, prop, out=prop)
            _project_ball(prop, buf)
            val = _blp_objective(stacks, prop, buf)
            np.subtract(val, cur_val, out=gain)
            np.greater(gain, 0.0, out=take)
            np.logical_not(take, out=no_gain)  # each draws its uniform, also where the odds underflow to 0
            draws_uniform = no_gain.ravel().tolist()
            moved = False in draws_uniform
            if True in draws_uniform:
                odds = np.exp(gain[no_gain] / temperature).tolist()
                accepted = [u() < p for u, p in zip(compress(uniforms, draws_uniform), odds)]
                if True in accepted:
                    take[no_gain] = accepted
                    moved = True
            if moved:  # else no value changed, and chain_best_val >= cur_val holds already
                np.copyto(current, prop, where=take_col)
                np.copyto(cur_val, val, where=take)
                np.greater(cur_val, chain_best_val, out=better)
                np.copyto(chain_best, current, where=better_col)
                np.copyto(chain_best_val, cur_val, where=better)
        temperature *= schedule.cooling_factor

    results = []
    for c in range(cells):
        # Merge in restart order with a strict '>', as the sequential loop would.
        best_vec, best_val = best_axis[c], float(axis_vals[c].max())
        for r in range(restarts):
            if chain_best_val[c, r] > best_val:
                best_vec, best_val = chain_best[c, r], float(chain_best_val[c, r])
        series = blp_series(blochs[c], best_vec[:3], best_vec[3:])
        series.meta.update(
            {
                "n_max": float(series.blp[-1]),
                "bloch_rho": [float(v) for v in best_vec[:3]],
                "bloch_sigma": [float(v) for v in best_vec[3:]],
                "schedule": schedule.to_dict(),
            }
        )
        results.append(series)
    return results


def rhp_series(bloch: np.ndarray) -> MeasureSeries:
    """g(t) and its running sum I_RHP(t) from the Bloch matrices M(0..t_max) of the reduced maps.

    All steps are evaluated at once. A step whose inversion is
    ill-conditioned, or whose g falls below -G_CLAMP, is flagged, never
    silently dropped.
    """
    maps, cond, ill = intermediate_maps(bloch)
    gt = choi_trace_norms(maps) - 1.0
    negative = gt < -G_CLAMP
    flags = [""] * len(bloch)
    for i in np.flatnonzero(negative | ill):
        notes = [f"g_negative({gt[i]:.3e})"] if negative[i] else []
        if ill[i]:
            notes.append(f"ill_conditioned({cond[i]:.3e})")
        flags[i + 1] = ";".join(notes)
    g = np.concatenate([[0.0], np.maximum(gt, 0.0)])
    rhp = np.concatenate([[0.0], np.cumsum(g[1:])])
    return MeasureSeries(steps=np.arange(len(bloch)), g=g, rhp=rhp, flags=flags)


def _entropy_bits(w: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis, dropping eigenvalues <= ENTROPY_CUT."""
    w = np.where(w > ENTROPY_CUT, w, 1.0)  # 1 log2 1 = 0
    s = -(w * np.log2(w)).sum(axis=-1)
    return np.where(s > 0.0, s, 0.0)


def entanglement_series(bloch: np.ndarray, r0) -> MeasureSeries:
    """Coin-position entanglement entropy from the Bloch matrices M(0..t_max).

    The joint state starts pure (origin position (x) coin), so the reduced
    coin entropy is a genuine entanglement measure while the initial coin
    state, of Bloch vector r0, is pure; an impure one (|r0| < 1) is still
    accepted but the series is flagged accordingly. The state at step t has
    eigenvalues (1 -+ |M(t) r0|)/2.
    """
    r0 = _check_bloch(r0)
    purity = (1.0 + float(r0 @ r0)) / 2.0
    impure = purity < 1.0 - 1e-10
    radius = np.linalg.norm(bloch @ r0, axis=1)
    entropy = _entropy_bits(np.stack([(1.0 - radius) / 2.0, (1.0 + radius) / 2.0], axis=1))
    flags = ["impure_initial" if impure else ""] * len(bloch)
    return MeasureSeries(
        steps=np.arange(len(bloch)),
        entropy=entropy,
        flags=flags,
        meta={"purity_0": purity, "entanglement_valid": not impure, "entropy_base": 2},
    )
