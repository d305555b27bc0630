import math

import numpy as np
import pytest

from ptwalk import (
    AnnealSchedule,
    MetricSpec,
    StatePair,
    WalkParams,
    bloch_state,
    blp_series,
    build_euclidean_walk,
    entanglement_series,
    maximize_blp,
    reduced_coin_state,
    rhp_series,
    trace_distance,
    von_neumann_entropy,
)
from ptwalk.channel import ChannelMatrix
from ptwalk.measures import rhp_from_channels

T1, T2 = math.pi / 4, -math.pi / 7
FLAT = MetricSpec(kind="g1_flat")


def walk(gamma_factor=1.0, spec=FLAT, size=101):
    p = WalkParams(T1, T2, math.log(gamma_factor), size)
    return build_euclidean_walk(p, spec)


def random_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# -------------------------------------------------------------- trace distance


def test_trace_distance_basics():
    rho = bloch_state((0, 0, 1))
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(rho, bloch_state((0, 0, -1))) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)


def test_trace_distance_symmetry_and_triangle():
    rng = np.random.default_rng(50)
    a, b, c = (random_state(rng) for _ in range(3))
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_bloch_state_validation():
    with pytest.raises(ValueError):
        bloch_state((1.2, 0, 0))
    rho = bloch_state((0.3, 0.4, 0.5))
    assert abs(np.trace(rho) - 1) < 1e-14
    assert np.linalg.eigvalsh(rho).min() >= -1e-14


# ------------------------------------------------------------------------ BLP


def test_blp_t0_and_identical_pair():
    ew = walk()
    pair = StatePair.from_bloch((0, 0, 1), (0, 0, -1))
    series = blp_series(ew, pair, 0)
    assert series.blp[0] == 0.0
    same = StatePair.from_bloch((0.2, 0.1, 0.3), (0.2, 0.1, 0.3))
    series = blp_series(ew, same, 30)
    assert np.abs(series.blp).max() < 1e-12


def test_blp_matches_stepwise_trace_distances():
    # oracle: recompute D(t) from reduced states and accumulate by hand
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11))
    pair = StatePair.from_bloch((0, 0, 1), (0, 0, -1))
    t_max = 12
    series = blp_series(ew, pair, t_max)
    dist = [
        trace_distance(
            reduced_coin_state(ew, pair.rho, t), reduced_coin_state(ew, pair.sigma, t)
        )
        for t in range(t_max + 1)
    ]
    n = 0.0
    for t in range(1, t_max + 1):
        inc = dist[t] - dist[t - 1]
        assert series.delta[t] == pytest.approx(inc, abs=1e-10)
        n += max(inc, 0.0)
        assert series.blp[t] == pytest.approx(n, abs=1e-10)


def test_blp_monotone_and_swap_symmetric():
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11))
    a = StatePair.from_bloch((0.1, 0.7, -0.2), (-0.4, 0.0, 0.8))
    b = StatePair.from_bloch((-0.4, 0.0, 0.8), (0.1, 0.7, -0.2))
    sa = blp_series(ew, a, 25)
    sb = blp_series(ew, b, 25)
    assert np.all(np.diff(sa.blp) >= 0)
    assert np.abs(sa.blp - sb.blp).max() < 1e-12


def test_blp_positive_for_unitary_walk():
    series = blp_series(walk(), StatePair.from_bloch((0, 0, 1), (0, 0, -1)), 50)
    assert series.blp[-1] > 0


def quick_schedule(seed=7):
    return AnnealSchedule(
        initial_temperature=0.05,
        cooling_factor=0.8,
        steps_per_temperature=20,
        proposal_stddev=0.3,
        restarts=2,
        seed=seed,
        temperature_floor=1e-3,
    )


def test_maximize_blp_deterministic():
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11), size=61)
    res1 = maximize_blp(ew, quick_schedule(), 25)
    res2 = maximize_blp(ew, quick_schedule(), 25)
    assert res1[1] == res2[1]
    assert np.array_equal(res1[0].rho, res2[0].rho)


def test_maximize_blp_beats_baselines():
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11), size=61)
    pair, n_max, series = maximize_blp(ew, quick_schedule(), 25)
    # axis-antipodal baselines
    for axis in np.eye(3):
        base = blp_series(ew, StatePair.from_bloch(axis, -axis), 25)
        assert n_max >= base.blp[-1] - 1e-12
    # random baselines
    rng = np.random.default_rng(99)
    for _ in range(100):
        r, s = rng.normal(size=3), rng.normal(size=3)
        for v in (r, s):
            n = np.linalg.norm(v)
            if n > 1:
                v /= n
        base = blp_series(ew, StatePair.from_bloch(r, s), 25)
        assert n_max >= base.blp[-1] - 1e-12
    # winning pair lies in the Bloch ball and reproduces the reported value
    for v in (series.meta["bloch_rho"], series.meta["bloch_sigma"]):
        assert np.linalg.norm(v) <= 1 + 1e-12
    assert series.blp[-1] == pytest.approx(n_max, abs=1e-12)


def test_maximize_blp_tracks_dense_direction_oracle():
    # The objective depends only on the Bloch difference and scales linearly
    # with its length, so the exact maximum sits on antipodal pure pairs;
    # a dense direction grid gives an independent lower-bound oracle.
    from anneal_reference import _blp_objective
    from ptwalk.channel import channel_matrix_series
    from ptwalk.measures import _series_stack

    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11), size=41)
    t_max = 20
    stack = _series_stack(channel_matrix_series(ew, t_max))
    best_grid = 0.0
    for th in np.linspace(0, np.pi, 60):
        for ph in np.linspace(0, 2 * np.pi, 120, endpoint=False):
            d = np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            )
            best_grid = max(best_grid, _blp_objective(stack, np.concatenate([d, -d])))
    _, n_max, _ = maximize_blp(ew, quick_schedule(), t_max)
    assert n_max >= best_grid - 5e-3


@pytest.mark.parametrize(
    "gamma_factor, spec, size, t_max, schedule",
    [
        (1.2, MetricSpec(kind="random_xy", seed=11), 61, 25, quick_schedule()),
        (1.3, FLAT, 41, 20, quick_schedule(seed=2029)),
        (1.0, MetricSpec(kind="random_xy", seed=23), 41, 20, quick_schedule(seed=3)),
        (1.3, MetricSpec(kind="random_xy", seed=5), 41, 20, AnnealSchedule(
            initial_temperature=0.2, cooling_factor=0.7, steps_per_temperature=30,
            proposal_stddev=0.5, restarts=1, seed=11, temperature_floor=1e-3)),
        (1.2, FLAT, 101, 50, AnnealSchedule(seed=2024)),
    ],
)
def test_maximize_blp_matches_sequential_reference(tmp_path, gamma_factor, spec, size, t_max, schedule):
    # The lockstep, Bloch-frame annealer must walk exactly the path of the
    # one-chain-at-a-time annealer that scores pairs through the 4x4 stack.
    from anneal_reference import maximize_blp_sequential

    ew = walk(gamma_factor, spec, size=size)
    ref_path, new_path = tmp_path / "ref.csv", tmp_path / "new.csv"
    ref_pair, ref_n, ref_series = maximize_blp_sequential(ew, schedule, t_max, trace_path=ref_path)
    pair, n_max, series = maximize_blp(ew, schedule, t_max, trace_path=new_path)
    assert n_max == pytest.approx(ref_n, abs=1e-12)
    for key in ("bloch_rho", "bloch_sigma"):
        assert np.abs(np.subtract(series.meta[key], ref_series.meta[key])).max() <= 1e-12
    assert np.abs(pair.rho - ref_pair.rho).max() <= 1e-12
    ref_rows = [line.split(",") for line in ref_path.read_text().splitlines()]
    new_rows = [line.split(",") for line in new_path.read_text().splitlines()]
    assert ref_rows[0] == new_rows[0]
    assert len(ref_rows) == len(new_rows)
    for ref_row, new_row in zip(ref_rows[1:], new_rows[1:]):
        assert (new_row[0], new_row[2]) == (ref_row[0], ref_row[2])
        assert float(new_row[3]) == pytest.approx(float(ref_row[3]), abs=1e-12)


def test_bloch_matrices_reproduce_distance_series():
    # D(t) = |M(t)(r - s)|/2, with M(t) from the closed form, must agree with
    # the trace distances read from the 4x4 channel-matrix stack of the
    # step-by-step block powers, for arbitrary pairs in the Bloch ball.
    from loop_reference import channel_matrix_series
    from ptwalk.channel import bloch_matrix_series
    from ptwalk.measures import _distance_series, _series_stack

    rng = np.random.default_rng(52)
    for factor, spec in ((1.0, FLAT), (1.3, MetricSpec(kind="random_xy", seed=11))):
        ew = walk(factor, spec, size=61)
        stack = _series_stack(channel_matrix_series(ew, 30))
        bloch = bloch_matrix_series(ew, 30)
        assert bloch.shape == (31, 3, 3)
        assert np.allclose(bloch[0], np.eye(3), atol=1e-15)
        for _ in range(20):
            r, s = (v / max(1.0, np.linalg.norm(v)) for v in rng.normal(size=(2, 3)))
            expected = _distance_series(stack, bloch_state(r), bloch_state(s))
            assert np.abs(0.5 * np.linalg.norm(bloch @ (r - s), axis=1) - expected).max() <= 1e-14


def test_anneal_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(cooling_factor=1.2)
    with pytest.raises(ValueError):
        AnnealSchedule(initial_temperature=-1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(temperature_floor=1.0, initial_temperature=0.5)


# ------------------------------------------------------------------------ RHP


def test_rhp_zero_for_unitary_step_sequence():
    # fixed unitary channel at every step: all intermediate maps unitary, g = 0
    rng = np.random.default_rng(51)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    step = np.kron(q, q.conj())
    channels = []
    acc = np.eye(4, dtype=complex)
    for t in range(11):
        channels.append(ChannelMatrix(0, t, acc.copy(), 1.0))
        acc = step @ acc
    series = rhp_from_channels(channels)
    assert np.abs(series.g).max() < 1e-12
    assert series.rhp[-1] < 1e-10


def test_rhp_series_monotone_with_zero_start():
    series = rhp_series(walk(1.2, MetricSpec(kind="random_xy", seed=11)), 30)
    assert series.rhp[0] == 0.0
    assert np.all(np.diff(series.rhp) >= 0)
    assert np.all(series.g >= 0)
    assert series.rhp[-1] > 0


def test_rhp_first_step_is_cp():
    # the map from step 0 to 1 is exactly CPTP, so g(1) vanishes
    series = rhp_series(walk(1.2), 5)
    assert series.g[1] < 1e-9


def test_rhp_metric_independent_when_hermitian():
    t_max = 30
    curves = [
        rhp_series(walk(1.0, spec), t_max).rhp
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23))
    ]
    spread = max(np.abs(a - b).max() for a in curves for b in curves)
    assert spread < 1e-8


def test_rhp_hermitian_spread_margin_over_metric_seeds():
    # The Hermitian limit must stay metric-independent with a wide margin
    # below report's 1e-8 bound: the closed form takes the rotation angles
    # from a(k), so only roundoff in the axes differs between metrics.
    curves = [rhp_series(walk(1.0, FLAT), 50).rhp]
    for i in range(16):
        for seed in (11 + 1000 * i, 23 + 1000 * i):
            curves.append(rhp_series(walk(1.0, MetricSpec(kind="random_xy", seed=seed)), 50).rhp)
    spread = max(np.abs(a - b).max() for a in curves for b in curves)
    assert spread < 1e-9


def test_rhp_metric_dependent_when_nonhermitian():
    t_max = 30
    curves = [
        rhp_series(walk(1.2, spec), t_max).rhp
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=23))
    ]
    assert np.abs(curves[0] - curves[1]).max() > 1e-2


def test_contractivity_on_cp_steps():
    # wherever g(t) = 0 the step was CP, so trace distance cannot grow there
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11))
    t_max = 20
    series = rhp_series(ew, t_max)
    pair = StatePair.from_bloch((0, 0, 1), (0, 0, -1))
    blp = blp_series(ew, pair, t_max)
    cp_steps = [t for t in range(1, t_max + 1) if series.g[t] <= 1e-10]
    assert cp_steps, "expected at least the first step to be CP"
    for t in cp_steps:
        assert blp.delta[t] <= 1e-9


# -------------------------------------------------------------------- entropy


def test_entropy_values():
    assert von_neumann_entropy(bloch_state((0, 0, 1))) == 0.0
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert von_neumann_entropy(np.diag([0.9, 0.1])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.4690, abs=5e-5)


def test_entanglement_series_starts_at_zero():
    series = entanglement_series(walk(1.2, MetricSpec(kind="random_xy", seed=11)), bloch_state((0, 1, 0)), 20)
    assert series.entropy[0] == 0.0
    assert series.meta["entanglement_valid"]
    assert np.all(series.entropy <= 1.0 + 1e-9)


def test_entanglement_metric_independent_when_hermitian():
    rho0 = bloch_state((0, 1, 0))
    curves = [
        entanglement_series(walk(1.0, spec), rho0, 30).entropy
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23))
    ]
    spread = max(np.abs(a - b).max() for a in curves for b in curves)
    assert spread < 1e-8


def test_entanglement_metric_dependent_when_nonhermitian():
    rho0 = bloch_state((0, 1, 0))
    a = entanglement_series(walk(1.2, FLAT), rho0, 30).entropy
    b = entanglement_series(walk(1.2, MetricSpec(kind="random_xy", seed=23)), rho0, 30).entropy
    assert np.abs(a - b).max() > 1e-6


def test_entanglement_flags_impure_initial():
    series = entanglement_series(walk(1.2), np.eye(2) / 2, 5)
    assert not series.meta["entanglement_valid"]
    assert series.flags[0] == "impure_initial"


def test_measure_series_csv(tmp_path):
    series = rhp_series(walk(1.2), 5)
    path = tmp_path / "series.csv"
    series.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,delta,N,g,I_RHP,S,flags"
    assert len(lines) == 7
    # unused columns stay empty
    assert lines[1].split(",")[1] == ""
    series.write_csv(path, comment="seed=5 tol=1e-8")
    assert path.read_text().startswith("# seed=5 tol=1e-8\n")


def test_maximize_blp_trace_dump(tmp_path):
    ew = walk(1.2, size=41)
    path = tmp_path / "anneal.csv"
    maximize_blp(ew, quick_schedule(), 10, trace_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "restart,temperature,accepted,best_so_far"
    assert len(lines) > 2
    # best-so-far never decreases within the dump
    best = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
