"""Non-Markovianity and entanglement quantifiers for the reduced coin dynamics.

Information backflow is scored by the discrete accumulation

    N(t) = N(t-1) + max(0, D(t) - D(t-1)),      D = trace distance,

maximized over initial state pairs with simulated annealing. D depends on
a pair (r, s) of Bloch vectors only through their difference: with the real
3x3 Bloch-frame matrices M(t) of the reduced maps, D(t) = |M(t)(r - s)|/2,
which is what the annealer scores. Its restarts are independent seeded
chains, advanced in lockstep with one batched objective call per step.

Failure of CP-divisibility is scored through the one-step intermediate maps:

    g(t) = || Choi(L(t, t-1)) ||_1 - 1,     I_RHP(t) = sum_{s<=t} g(s).

Coin-position entanglement of a pure joint trajectory is the von Neumann
entropy of the reduced coin state, in bits.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelMatrix,
    EuclideanWalk,
    _check_state,
    intermediate_from,
    channel_matrix_series,
    choi_matrix,
    coin_trajectory,
)
from .linalg import trace_norm, vec

# Negative dust tolerated in g(t) before clamping to zero: the Choi trace
# norm of an exactly CP step returns 1 +- float noise.
G_CLAMP = 1e-9


@dataclass(frozen=True)
class StatePair:
    """Two coin states whose distinguishability is tracked over time."""

    rho: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_bloch(cls, r, s) -> "StatePair":
        return cls(bloch_state(r), bloch_state(s))


def bloch_state(r) -> np.ndarray:
    """Qubit state (I + r . sigma)/2 for a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if np.linalg.norm(r) > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector norm {np.linalg.norm(r)} > 1")
    return 0.5 * np.array(
        [[1.0 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1.0 - r[2]]]
    )


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

    def write_csv(self, path, comment: str | None = None) -> None:
        """Write the series; an optional '#'-prefixed first line carries
        provenance (seeds, tolerances) so the file is self-describing."""
        cols = {
            "delta": self.delta,
            "N": self.blp,
            "g": self.g,
            "I_RHP": self.rhp,
            "S": self.entropy,
        }
        with open(path, "w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["t"] + list(cols) + ["flags"])
            for i, t in enumerate(self.steps):
                row = [int(t)]
                for arr in cols.values():
                    row.append("" if arr is None else repr(float(arr[i])))
                row.append(self.flags[i])
                writer.writerow(row)


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric-cooling schedule for the state-pair search.

    Proposals perturb both Bloch vectors with Gaussian noise of the given
    standard deviation and are projected back into the unit ball. Restart 0
    starts from the best antipodal axis pair so the result can never fall
    below that baseline; remaining restarts start from random pairs drawn
    from independent substreams of the seed.
    """

    initial_temperature: float = 0.1
    cooling_factor: float = 0.9
    steps_per_temperature: int = 60
    proposal_stddev: float = 0.25
    restarts: int = 5
    seed: int = 0
    temperature_floor: float = 1e-4

    def __post_init__(self):
        if not (0.0 < self.cooling_factor < 1.0):
            raise ValueError("cooling_factor must lie in (0, 1)")
        for name in ("initial_temperature", "steps_per_temperature", "proposal_stddev", "restarts", "temperature_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.temperature_floor >= self.initial_temperature:
            raise ValueError("temperature_floor must be below initial_temperature")

    def to_dict(self) -> dict:
        return {
            "initial_temperature": self.initial_temperature,
            "cooling_factor": self.cooling_factor,
            "steps_per_temperature": self.steps_per_temperature,
            "proposal_stddev": self.proposal_stddev,
            "restarts": self.restarts,
            "seed": self.seed,
            "temperature_floor": self.temperature_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnnealSchedule":
        return cls(**d)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho, sigma) = ||rho - sigma||_1 / 2 for density matrices."""
    diff = np.asarray(rho, complex) - np.asarray(sigma, complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


def _distance_series(stack: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Trace distances D(t) along a channel-matrix stack, t = 0..t_max.

    The evolved difference is Hermitian and traceless, so its trace norm is
    twice sqrt(x^2 + |z|^2) read from the difference's vectorized form.
    """
    x0 = vec(np.asarray(rho, complex) - np.asarray(sigma, complex))
    y = stack @ x0
    x = 0.5 * (y[:, 0] - y[:, 3]).real
    z = 0.5 * (y[:, 1] + np.conj(y[:, 2]))
    return np.sqrt(x**2 + np.abs(z) ** 2)


def _series_stack(channels: list[ChannelMatrix]) -> np.ndarray:
    return np.stack([c.matrix for c in channels])


def blp_series(
    ew: EuclideanWalk, pair: StatePair, t_max: int, channels: list[ChannelMatrix] | None = None
) -> MeasureSeries:
    """Backflow increments and their monotone accumulation for one state pair."""
    _check_state(pair.rho)
    _check_state(pair.sigma)
    if channels is None:
        channels = channel_matrix_series(ew, t_max)
    dist = _distance_series(_series_stack(channels), pair.rho, pair.sigma)
    delta = np.zeros(t_max + 1)
    delta[1:] = np.diff(dist)
    cumulative = np.concatenate([[0.0], np.cumsum(np.clip(delta[1:], 0.0, None))])
    return MeasureSeries(
        steps=np.arange(t_max + 1),
        delta=delta,
        blp=cumulative,
        meta={"distance_0": float(dist[0])},
    )


# Row-major vec of the Pauli matrices sigma_x, sigma_y, sigma_z, as columns.
_PAULI_VECS = np.array([[0, 0, 1], [1, -1j, 0], [1, 1j, 0], [0, 0, -1]], dtype=complex)


def _bloch_matrices(stack: np.ndarray) -> np.ndarray:
    """Real 3x3 Bloch-frame matrices M_ij(t) = Re tr(sigma_i L(t,0)[sigma_j]) / 2.

    The maps are trace and Hermiticity preserving, so a traceless difference
    (d . sigma)/2 evolves to ((M d) . sigma)/2, whose trace distance is |M d|/2.
    """
    return 0.5 * (_PAULI_VECS.conj().T @ stack @ _PAULI_VECS).real


def _blp_objective(bloch: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """N(t_max) for each row (r, s) of the (n, 6) array ``pairs``.

    Scored through the Bloch difference alone: D(t) = |M(t)(r - s)|/2, and N
    is the sum of the positive increments of D.
    """
    if np.linalg.norm(pairs.reshape(-1, 3), axis=1).max() > 1.0 + 1e-12:
        raise ValueError("Bloch vector outside the unit ball")
    diff = pairs[:, :3] - pairs[:, 3:]
    evolved = (diff @ bloch.reshape(-1, 3).T).reshape(len(pairs), -1, 3)
    dist = 0.5 * np.linalg.norm(evolved, axis=2)
    return np.maximum(dist[:, 1:] - dist[:, :-1], 0.0).sum(axis=1)


def _project_ball(pairs: np.ndarray) -> np.ndarray:
    """Scale every Bloch vector of the (n, 6) pairs that lies outside the ball onto it."""
    halves = pairs.reshape(-1, 2, 3)
    norms = np.linalg.norm(halves, axis=2, keepdims=True)
    return (halves / np.maximum(norms, 1.0)).reshape(pairs.shape)


_AXIS_PAIRS = np.array(
    [
        [1.0, 0, 0, -1.0, 0, 0],
        [0, 1.0, 0, 0, -1.0, 0],
        [0, 0, 1.0, 0, 0, -1.0],
    ]
)


def maximize_blp(
    ew: EuclideanWalk, schedule: AnnealSchedule, t_max: int, trace_path=None
) -> tuple[StatePair, float, MeasureSeries]:
    """Simulated-annealing search for the pair maximizing N(t_max).

    Both members range over the full Bloch ball. Each restart is an
    independent chain with its own generator, seeded ``[seed, restart]``;
    the chains advance in lockstep with one batched objective per step.
    Deterministic for a fixed schedule seed; the returned N is recomputed
    through blp_series on the winning pair. When ``trace_path`` is given, a
    per-temperature audit CSV (restart, temperature, accepted count,
    best-so-far) is written there, restart by restart.
    """
    channels = channel_matrix_series(ew, t_max)
    bloch = _bloch_matrices(_series_stack(channels))
    axis_vals = _blp_objective(bloch, _AXIS_PAIRS)
    best_axis = _AXIS_PAIRS[int(np.argmax(axis_vals))]

    # Each chain consumes its own generator in the order of a one-chain-at-a-time
    # loop: normal(size=6) for its start (restarts > 0), then per step one
    # normal(size=6) and, only when the proposal is no better, one random().
    # The path, and so the result, depends on nothing else.
    rngs = [np.random.default_rng([schedule.seed, r]) for r in range(schedule.restarts)]
    current = _project_ball(np.stack([best_axis] + [rng.normal(size=6) for rng in rngs[1:]]))
    cur_val = _blp_objective(bloch, current)
    chain_best, chain_best_val = current.copy(), cur_val.copy()
    levels = []  # (temperature, accepted per chain, chain bests so far)
    noise = np.empty_like(current)
    temperature = schedule.initial_temperature
    while temperature > schedule.temperature_floor:
        accepted = np.zeros(len(rngs), dtype=int)
        for _ in range(schedule.steps_per_temperature):
            for c, rng in enumerate(rngs):
                noise[c] = rng.normal(scale=schedule.proposal_stddev, size=6)
            prop = _project_ball(current + noise)
            val = _blp_objective(bloch, prop)
            gain = val - cur_val
            # Odds are only read where gain <= 0; clamping keeps exp from overflowing.
            odds = np.exp(np.minimum(gain, 0.0) / temperature)
            take = np.array(
                [g > 0 or rng.random() < o for g, o, rng in zip(gain, odds, rngs)]
            )
            current[take], cur_val[take] = prop[take], val[take]
            accepted += take
            better = cur_val > chain_best_val
            chain_best[better], chain_best_val[better] = current[better], cur_val[better]
        levels.append((temperature, accepted, chain_best_val.copy()))
        temperature *= schedule.cooling_factor

    # Merge in restart order with a strict '>', as the sequential loop would.
    best_vec, best_val = best_axis, float(axis_vals.max())
    trace_rows = []
    for r in range(len(rngs)):
        for temperature, accepted, bests in levels:
            trace_rows.append((r, temperature, int(accepted[r]), max(best_val, float(bests[r]))))
        if chain_best_val[r] > best_val:
            best_vec, best_val = chain_best[r], float(chain_best_val[r])
    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["restart", "temperature", "accepted", "best_so_far"])
            for restart, temperature, accepted, best in trace_rows:
                writer.writerow([restart, repr(temperature), accepted, repr(best)])
    pair = StatePair.from_bloch(best_vec[:3], best_vec[3:])
    series = blp_series(ew, pair, t_max, channels=channels)
    series.meta.update(
        {
            "n_max": float(series.blp[-1]),
            "bloch_rho": [float(v) for v in best_vec[:3]],
            "bloch_sigma": [float(v) for v in best_vec[3:]],
            "schedule": schedule.to_dict(),
        }
    )
    return pair, float(series.blp[-1]), series


def rhp_from_channels(channels: list[ChannelMatrix]) -> MeasureSeries:
    """CP-indivisibility series from an already-built L(t, 0) family."""
    t_max = len(channels) - 1
    g = np.zeros(t_max + 1)
    flags = [""] * (t_max + 1)
    for t in range(1, t_max + 1):
        step = intermediate_from(channels[t - 1], channels[t])
        gt = trace_norm(choi_matrix(step)) - 1.0
        if gt < -G_CLAMP:
            flags[t] = f"g_negative({gt:.3e})"
        if step.ill_conditioned:
            flags[t] = (flags[t] + ";" if flags[t] else "") + f"ill_conditioned({step.condition_number:.3e})"
        g[t] = max(gt, 0.0)
    rhp = np.concatenate([[0.0], np.cumsum(g[1:])])
    return MeasureSeries(steps=np.arange(t_max + 1), g=g, rhp=rhp, flags=flags)


def rhp_series(ew: EuclideanWalk, t_max: int) -> MeasureSeries:
    """g(t) and its running sum for the walk's reduced dynamics.

    The intermediate maps are probed in the matrix-unit basis through the
    channel matrices; ill-conditioned inversions are flagged per step, never
    silently dropped.
    """
    return rhp_from_channels(channel_matrix_series(ew, t_max))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum p log2 p of the spectrum, eigenvalue dust clamped at 1e-12."""
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = w[w > 1e-12]
    return max(0.0, float(-(w * np.log2(w)).sum()))


def entanglement_series(ew: EuclideanWalk, rho0: np.ndarray, t_max: int) -> MeasureSeries:
    """Coin-position entanglement entropy over time for a pure initial coin state.

    The joint state starts pure (origin position (x) coin), so the reduced
    coin entropy is a genuine entanglement measure while rho0 is pure; an
    impure rho0 is still accepted but the series is flagged accordingly.
    """
    rho0 = _check_state(rho0)
    purity = float(np.trace(rho0 @ rho0).real)
    impure = purity < 1.0 - 1e-10
    traj = coin_trajectory(ew, rho0, t_max)
    entropy = np.array([von_neumann_entropy(state) for state in traj.states])
    flags = ["impure_initial" if impure else ""] * (t_max + 1)
    return MeasureSeries(
        steps=traj.steps,
        entropy=entropy,
        flags=flags,
        meta={"purity_0": purity, "entanglement_valid": not impure, "entropy_base": 2},
    )
