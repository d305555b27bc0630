"""Sequential reference annealer for the BLP state-pair search.

This is the original one-chain-at-a-time implementation of the state-pair
search of ``ptwalk.measures.maximize_blp_many``, kept as a test oracle. Every
objective call builds both density matrices and scores the pair through the
4x4 channel-matrix stack, so it is independent of the Bloch-frame objective
and the lockstep restarts of the library version.
"""

import numpy as np

from channel_reference import _distance_series, _series_stack, bloch_state, channel_matrix_series
from ptwalk.channel import bloch_matrix_series
from ptwalk.measures import AnnealSchedule, MeasureSeries, blp_series


def _blp_objective(stack: np.ndarray, pair_vec: np.ndarray) -> float:
    dist = _distance_series(stack, bloch_state(pair_vec[:3]), bloch_state(pair_vec[3:]))
    inc = np.diff(dist)
    return float(inc[inc > 0].sum())


def _project_ball(pair_vec: np.ndarray) -> np.ndarray:
    out = pair_vec.copy()
    for h in (0, 3):
        n = np.linalg.norm(out[h : h + 3])
        if n > 1.0:
            out[h : h + 3] /= n
    return out

_AXIS_PAIRS = [
    np.array([1.0, 0, 0, -1.0, 0, 0]),
    np.array([0, 1.0, 0, 0, -1.0, 0]),
    np.array([0, 0, 1.0, 0, 0, -1.0]),
]


def maximize_blp_sequential(
    ew, schedule: AnnealSchedule, seed: int, t_max: int
) -> tuple[tuple[np.ndarray, np.ndarray], float, MeasureSeries]:
    """Simulated-annealing search for the pair maximizing N(t_max).

    Both members range over the full Bloch ball. Deterministic for a fixed
    seed; returns the winning pair of Bloch vectors, N and its
    series, recomputed through blp_series on the winning pair.
    """
    stack = _series_stack(channel_matrix_series(ew, t_max))
    best_axis = max(_AXIS_PAIRS, key=lambda v: _blp_objective(stack, v))
    best_vec = best_axis.copy()
    best_val = _blp_objective(stack, best_vec)
    for restart in range(schedule.restarts):
        rng = np.random.default_rng([seed, restart])
        if restart == 0:
            current = best_axis.copy()
        else:
            current = _project_ball(rng.normal(size=6))
        cur_val = _blp_objective(stack, current)
        if cur_val > best_val:
            best_val, best_vec = cur_val, current.copy()
        temperature = schedule.initial_temperature
        while temperature > schedule.temperature_floor:
            for _ in range(schedule.steps_per_temperature):
                prop = _project_ball(
                    current + rng.normal(scale=schedule.proposal_stddev, size=6)
                )
                val = _blp_objective(stack, prop)
                if val > cur_val or rng.random() < np.exp((val - cur_val) / temperature):
                    current, cur_val = prop, val
                    if cur_val > best_val:
                        best_val, best_vec = cur_val, current.copy()
            temperature *= schedule.cooling_factor
    pair = best_vec[:3], best_vec[3:]
    series = blp_series(bloch_matrix_series([ew], t_max)[0], *pair)
    series.meta.update(
        {
            "n_max": float(series.blp[-1]),
            "bloch_rho": [float(v) for v in best_vec[:3]],
            "bloch_sigma": [float(v) for v in best_vec[3:]],
            "schedule": schedule.to_dict(),
        }
    )
    return pair, float(series.blp[-1]), series
