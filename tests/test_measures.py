import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptwalk import (
    AnnealSchedule,
    ExperimentConfig,
    MetricSpec,
    WalkParams,
    blp_series,
    entanglement_series,
    rhp_series,
)
from channel_reference import (
    ChannelMatrix,
    bloch_state,
    reduced_coin_state,
    rhp_from_channels,
    trace_distance,
    von_neumann_entropy,
)
from loop_reference import walk_alone
from ptwalk.channel import PINV_RCOND, bloch_matrix_series, intermediate_maps
from ptwalk.experiments import _PASSES, _csv_bytes, _put, _series_rows
from ptwalk.measures import _blp_objective, _Buffers, _stacks, maximize_blp_many

T1, T2 = math.pi / 4, -math.pi / 7
FLAT = MetricSpec(kind="g1_flat")
PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def walk(gamma_factor=1.0, spec=FLAT, size=101):
    p = WalkParams(T1, T2, math.log(gamma_factor), size)
    return walk_alone(p, spec)[0]


def bloch(gamma_factor=1.0, spec=FLAT, t_max=50, size=101):
    return bloch_matrix_series(walk(gamma_factor, spec, size), t_max)[0]


def search_walk(ew, schedule, t_max, seed=7):
    """The search of one walk: its winning series, whose meta holds N_max and the pair."""
    return maximize_blp_many([bloch_matrix_series(ew, t_max)[0]], schedule, seed)[0]


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


@pytest.mark.parametrize("r", [(math.nan, 1.0, 0.0), (0.0, math.inf, 0.0), (math.nan, math.nan, math.nan)])
def test_non_finite_bloch_vectors_are_refused(r):
    # |r| <= 1 is False for a NaN norm, as > 1 is too: the check must fail closed
    bloch = np.tile(np.eye(3), (4, 1, 1))
    with pytest.raises(ValueError):
        entanglement_series(bloch, r)
    with pytest.raises(ValueError):
        blp_series(bloch, r, (0.0, 0.0, 1.0))


# ------------------------------------------------------------------------ BLP


def test_blp_t0_and_identical_pair():
    series = blp_series(bloch(t_max=0), (0, 0, 1), (0, 0, -1))
    assert series.blp[0] == 0.0
    series = blp_series(bloch(t_max=30), (0.2, 0.1, 0.3), (0.2, 0.1, 0.3))
    assert np.abs(series.blp).max() < 1e-12


def test_blp_matches_stepwise_trace_distances():
    # oracle: recompute D(t) from reduced states and accumulate by hand
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11))
    rho, sigma = bloch_state((0, 0, 1)), bloch_state((0, 0, -1))
    t_max = 12
    series = blp_series(bloch_matrix_series(ew, t_max)[0], (0, 0, 1), (0, 0, -1))
    dist = [
        trace_distance(
            reduced_coin_state(ew, rho, t), reduced_coin_state(ew, sigma, t)
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
    m = bloch(1.2, MetricSpec(kind="random_xy", seed=11), t_max=25)
    sa = blp_series(m, (0.1, 0.7, -0.2), (-0.4, 0.0, 0.8))
    sb = blp_series(m, (-0.4, 0.0, 0.8), (0.1, 0.7, -0.2))
    assert np.all(np.diff(sa.blp) >= 0)
    assert np.abs(sa.blp - sb.blp).max() < 1e-12


def test_blp_positive_for_unitary_walk():
    series = blp_series(bloch(), (0, 0, 1), (0, 0, -1))
    assert series.blp[-1] > 0


def quick_schedule():
    return AnnealSchedule(
        initial_temperature=0.05,
        cooling_factor=0.8,
        steps_per_temperature=20,
        proposal_stddev=0.3,
        restarts=2,
        temperature_floor=1e-3,
    )


# Cold enough that the odds exp(gain / T) of some rejected proposals are
# exactly 0.0; those chains still draw their uniform.
COLD_SCHEDULE = AnnealSchedule(
    initial_temperature=1e-5,
    cooling_factor=0.5,
    steps_per_temperature=30,
    proposal_stddev=0.3,
    restarts=2,
    temperature_floor=1e-6,
)


def test_maximize_blp_deterministic():
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11), size=61)
    res1 = search_walk(ew, quick_schedule(), 25)
    res2 = search_walk(ew, quick_schedule(), 25)
    assert res1.meta["n_max"] == res2.meta["n_max"]
    assert np.array_equal(res1.meta["bloch_rho"], res2.meta["bloch_rho"])


def test_maximize_blp_beats_baselines():
    ew = walk(1.2, MetricSpec(kind="random_xy", seed=11), size=61)
    m = bloch_matrix_series(ew, 25)[0]
    series = search_walk(ew, quick_schedule(), 25)
    n_max = series.meta["n_max"]
    # axis-antipodal baselines
    for axis in np.eye(3):
        base = blp_series(m, axis, -axis)
        assert n_max >= base.blp[-1] - 1e-12
    # random baselines
    rng = np.random.default_rng(99)
    for _ in range(100):
        r, s = rng.normal(size=3), rng.normal(size=3)
        for v in (r, s):
            n = np.linalg.norm(v)
            if n > 1:
                v /= n
        base = blp_series(m, r, s)
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
    from channel_reference import _series_stack, channel_matrix_series

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
    n_max = search_walk(ew, quick_schedule(), t_max).meta["n_max"]
    assert n_max >= best_grid - 5e-3


@pytest.mark.parametrize(
    "gamma_factor, spec, size, t_max, schedule",
    [
        # each schedule entry is (AnnealSchedule, seed)
        (1.2, MetricSpec(kind="random_xy", seed=11), 61, 25, (quick_schedule(), 7)),
        (1.3, FLAT, 41, 20, (quick_schedule(), 2029)),
        (1.0, MetricSpec(kind="random_xy", seed=23), 41, 20, (quick_schedule(), 3)),
        (1.3, MetricSpec(kind="random_xy", seed=5), 41, 20, (AnnealSchedule(
            initial_temperature=0.2, cooling_factor=0.7, steps_per_temperature=30,
            proposal_stddev=0.5, restarts=1, temperature_floor=1e-3), 11)),
        (1.2, FLAT, 101, 50, (AnnealSchedule(), 2024)),
        # several cells in one lockstep search: every (e^gamma, metric) of the grid
        (
            (1.0, 1.3),
            (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23)),
            41,
            20,
            (quick_schedule(), 2024),
        ),
        (1.2, MetricSpec(kind="random_xy", seed=11), 41, 20, (COLD_SCHEDULE, 5)),
        # the benchmark's batch shape: the default grid's nine walks, five chains each
        (
            (1.0, 1.2, 1.3),
            (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23)),
            41,
            20,
            (dataclasses.replace(quick_schedule(), restarts=5), 2024),
        ),
    ],
)
def test_maximize_blp_matches_sequential_reference(gamma_factor, spec, size, t_max, schedule, monkeypatch):
    # The lockstep, Bloch-frame annealer must walk exactly the path of the
    # one-chain-at-a-time annealer that scores pairs through the 4x4 stack,
    # for one walk and for every cell of a multi-cell search.
    from anneal_reference import maximize_blp_sequential

    schedule, seed = schedule
    factors = gamma_factor if isinstance(gamma_factor, tuple) else (gamma_factor,)
    specs = spec if isinstance(spec, tuple) else (spec,)
    walks = [walk(f, s, size=size) for f in factors for s in specs]
    blochs = [bloch_matrix_series(ew, t_max)[0] for ew in walks]
    odds, np_exp = [], np.exp

    def recording_exp(x):
        odds.append(np_exp(x))
        return odds[-1]

    with monkeypatch.context() as patch:
        # the only exp the search takes is of the odds of its rejected proposals
        patch.setattr(np, "exp", recording_exp)
        results = maximize_blp_many(blochs, schedule, seed)
    if schedule is COLD_SCHEDULE:
        assert any((o == 0.0).any() for o in odds), "no odds underflowed to 0.0"
    for ew, series in zip(walks, results):
        ref_pair, ref_n, ref_series = maximize_blp_sequential(ew, schedule, seed, t_max)
        assert series.meta["n_max"] == pytest.approx(ref_n, abs=1e-12)
        for key in ("bloch_rho", "bloch_sigma"):
            assert np.abs(np.subtract(series.meta[key], ref_series.meta[key])).max() <= 1e-12
        for key, ref in zip(("bloch_rho", "bloch_sigma"), ref_pair):
            assert np.abs(np.subtract(series.meta[key], ref)).max() <= 1e-12


def test_maximize_blp_many_is_batch_invariant():
    # A cell's pair, N_max and series must not depend on the other cells of
    # the lockstep search: the nine default-grid cells, searched together in
    # grid order, in a permuted order and as a one-cell subset, must equal
    # one-walk calls bit for bit.
    cfg = ExperimentConfig()
    schedule, seed = cfg.anneal, cfg.master_seed
    walks = [
        walk_alone(cfg.walk_params(factor), spec)[0]
        for factor in cfg.gamma_factors
        for spec in cfg.metrics
    ]
    blochs = [bloch_matrix_series(ew, cfg.t_max)[0] for ew in walks]
    single = [search_walk(ew, schedule, cfg.t_max, seed) for ew in walks]
    order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    batches = {
        "grid": (list(range(9)), maximize_blp_many(blochs, schedule, seed)),
        "permuted": (order, maximize_blp_many([blochs[i] for i in order], schedule, seed)),
        "subset": ([7], maximize_blp_many([blochs[7]], schedule, seed)),
    }
    for name, (cells, results) in batches.items():
        assert len(results) == len(cells), name
        for c, series in zip(cells, results):
            ref_series = single[c]
            for key in ("bloch_rho", "bloch_sigma", "n_max"):
                assert series.meta[key] == ref_series.meta[key], (name, c, key)
            assert np.array_equal(series.blp, ref_series.blp) and np.array_equal(series.delta, ref_series.delta)


def test_blp_objective_refuses_a_pair_outside_the_ball():
    # Every scored pair is checked, so a projection that lets a vector out of
    # the Bloch ball fails loudly; the check allows 1e-12 of rounding.
    stacks = _stacks(np.stack([bloch(1.2, size=41, t_max=10)] * 2))
    pairs = np.zeros((2, 3, 6))
    pairs[..., 0], pairs[..., 3] = 1.0, -1.0
    buf = _Buffers(stacks, 3)
    inside = _blp_objective(stacks, pairs, buf).copy()
    assert np.all(inside > 0.0) and np.array_equal(inside[0], inside[1])
    for half in (0, 3):
        for factor, outside in ((1.0 + 1e-13, False), (1.0 + 1e-11, True)):
            scaled = pairs.copy()
            scaled[1, 2, half : half + 3] *= factor
            if outside:
                with pytest.raises(ValueError, match="outside the unit ball"):
                    _blp_objective(stacks, scaled, buf)
            else:
                _blp_objective(stacks, scaled, buf)


def test_bloch_matrices_reproduce_distance_series():
    # D(t) = |M(t)(r - s)|/2, with M(t) from the closed form, must agree with
    # the trace distances read from the 4x4 channel-matrix stack of the
    # step-by-step block powers, for arbitrary pairs in the Bloch ball.
    from channel_reference import _distance_series, _series_stack
    from loop_reference import channel_matrix_series

    rng = np.random.default_rng(52)
    for factor, spec in ((1.0, FLAT), (1.3, MetricSpec(kind="random_xy", seed=11))):
        ew = walk(factor, spec, size=61)
        stack = _series_stack(channel_matrix_series(WalkParams(T1, T2, math.log(factor), 61), spec, 30))
        bloch = bloch_matrix_series(ew, 30)[0]
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
    # the same sequence on the Bloch matrices: M(t) = R^t for the rotation R of q
    rotation = np.array([[np.trace(a @ q @ b @ q.conj().T).real / 2 for b in PAULIS] for a in PAULIS])
    series = rhp_series(np.stack([np.linalg.matrix_power(rotation, t) for t in range(11)]))
    assert np.abs(series.g).max() < 1e-12
    assert series.rhp[-1] < 1e-10


def _oracle_rhp(ew, t_max):
    from channel_reference import channel_matrix_series

    return rhp_from_channels(channel_matrix_series(ew, t_max))


def _assert_rhp_matches_oracle(series, oracle):
    scale = np.maximum(1.0, np.abs(oracle.g))
    assert (np.abs(series.g - oracle.g) / scale).max() <= 1e-11
    assert series.flags == oracle.flags


@pytest.mark.parametrize("gamma_factor", [1.0, 1.2, 1.3])
@pytest.mark.parametrize("spec", [FLAT, MetricSpec(kind="random_xy", seed=11)])
def test_rhp_matches_channel_oracle_long_horizon(gamma_factor, spec):
    # all steps at once on the 3x3 maps vs one 4x4 solve and Choi SVD per step
    from channel_reference import channel_matrix_series

    ew = walk(gamma_factor, spec, size=1201)
    m = bloch_matrix_series(ew, 600)[0]
    _assert_rhp_matches_oracle(rhp_series(m), _oracle_rhp(ew, 600))
    _, cond, flagged = intermediate_maps(m)
    channels = channel_matrix_series(ew, 600)[:-1]
    expected = np.array([c.condition_number for c in channels])
    assert np.abs(cond / expected - 1.0).max() <= 1e-10
    assert not flagged.any()


def test_rhp_ill_conditioned_steps_match_oracle():
    # M(1) loses the x and y components up to 1e-13 and M(3) loses them
    # exactly, so the inversions at steps 2 and 4 take the cutoff
    # pseudo-inverse; the other steps are generic.
    from channel_reference import _channels

    rng = np.random.default_rng(53)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    bloch = np.stack(
        [
            np.eye(3),
            np.diag([1e-13, 1e-13, 1.0]),
            0.9 * rotation,
            np.diag([0.0, 0.0, 1.0]),
            np.diag([0.3, -0.2, 0.9]),
            rotation @ np.diag([0.5, -0.4, 0.3]),
        ]
    )
    series = rhp_series(bloch)
    oracle = rhp_from_channels(_channels(bloch, np.arange(len(bloch))))
    _assert_rhp_matches_oracle(series, oracle)
    assert series.flags[2] == "ill_conditioned(1.000e+13)"
    assert series.flags[4] == "ill_conditioned(inf)"
    assert [t for t, f in enumerate(series.flags) if f] == [2, 4]
    assert series.g[5] > 0.1
    maps, cond, flagged = intermediate_maps(bloch)
    assert flagged.tolist() == [False, True, False, True, False]
    assert cond[1] == 1e13 and cond[3] == np.inf
    for i in (1, 3):
        pinv = np.linalg.pinv(bloch[i], rcond=PINV_RCOND)
        assert np.abs(maps[i] - bloch[i + 1] @ pinv).max() <= 1e-15
    assert np.abs(maps[1]).max() < 1.0  # a direct solve would give entries near 1e13


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    theta1=st.floats(0.1, 1.4),
    theta2=st.floats(-1.4, -0.1),
    fraction=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**31),
)
def test_bloch_path_matches_oracles_property(theta1, theta2, fraction, seed):
    # g(t) against the 4x4 Choi oracle, S(t) against eigvalsh of the coin states
    from ptwalk import NoBreaking, gamma_pt, is_unbroken
    from test_channel import coin_states

    try:
        gamma = fraction * gamma_pt(theta1, theta2)
    except NoBreaking:
        assume(False)
    p = WalkParams(theta1, theta2, gamma, 101)
    assume(is_unbroken(p))
    r0 = (0.0, 1.0, 0.0)
    for spec in (FLAT, MetricSpec(kind="random_xy", seed=seed)):
        ew = walk_alone(p, spec)[0]
        m = bloch_matrix_series(ew, 50)[0]
        _assert_rhp_matches_oracle(rhp_series(m), _oracle_rhp(ew, 50))
        expected = [von_neumann_entropy(state) for state in coin_states(ew, r0, 50)]
        assert np.abs(entanglement_series(m, r0).entropy - expected).max() <= 1e-12


def test_rhp_series_monotone_with_zero_start():
    series = rhp_series(bloch(1.2, MetricSpec(kind="random_xy", seed=11), t_max=30))
    assert series.rhp[0] == 0.0
    assert np.all(np.diff(series.rhp) >= 0)
    assert np.all(series.g >= 0)
    assert series.rhp[-1] > 0


def test_rhp_first_step_is_cp():
    # the map from step 0 to 1 is exactly CPTP, so g(1) vanishes
    series = rhp_series(bloch(1.2, t_max=5))
    assert series.g[1] < 1e-9


def test_rhp_metric_independent_when_hermitian():
    t_max = 30
    curves = [
        rhp_series(bloch(1.0, spec, t_max)).rhp
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23))
    ]
    spread = max(np.abs(a - b).max() for a in curves for b in curves)
    assert spread < 1e-8


def test_rhp_hermitian_spread_margin_over_metric_seeds():
    # The Hermitian limit must stay metric-independent with a wide margin
    # below report's 1e-8 bound: the closed form takes the rotation angles
    # from a(k), so only roundoff in the axes differs between metrics.
    curves = [rhp_series(bloch(1.0, FLAT)).rhp]
    for i in range(16):
        for seed in (11 + 1000 * i, 23 + 1000 * i):
            curves.append(rhp_series(bloch(1.0, MetricSpec(kind="random_xy", seed=seed))).rhp)
    spread = max(np.abs(a - b).max() for a in curves for b in curves)
    assert spread < 1e-9


def test_rhp_metric_dependent_when_nonhermitian():
    t_max = 30
    curves = [
        rhp_series(bloch(1.2, spec, t_max)).rhp
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=23))
    ]
    assert np.abs(curves[0] - curves[1]).max() > 1e-2


def test_contractivity_on_cp_steps():
    # wherever g(t) = 0 the step was CP, so trace distance cannot grow there
    m = bloch(1.2, MetricSpec(kind="random_xy", seed=11), t_max=20)
    t_max = 20
    series = rhp_series(m)
    blp = blp_series(m, (0, 0, 1), (0, 0, -1))
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
    series = entanglement_series(bloch(1.2, MetricSpec(kind="random_xy", seed=11), t_max=20), (0, 1, 0))
    assert series.entropy[0] == 0.0
    assert series.meta["entanglement_valid"]
    assert np.all(series.entropy <= 1.0 + 1e-9)


def test_entanglement_metric_independent_when_hermitian():
    r0 = (0, 1, 0)
    curves = [
        entanglement_series(bloch(1.0, spec, t_max=30), r0).entropy
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23))
    ]
    spread = max(np.abs(a - b).max() for a in curves for b in curves)
    assert spread < 1e-8


def test_entanglement_metric_dependent_when_nonhermitian():
    r0 = (0, 1, 0)
    a = entanglement_series(bloch(1.2, FLAT, t_max=30), r0).entropy
    b = entanglement_series(bloch(1.2, MetricSpec(kind="random_xy", seed=23), t_max=30), r0).entropy
    assert np.abs(a - b).max() > 1e-6


def test_entanglement_flags_impure_initial():
    series = entanglement_series(bloch(1.2, t_max=5), (0, 0, 0))
    assert not series.meta["entanglement_valid"]
    assert series.flags[0] == "impure_initial"


def test_measure_series_csv(tmp_path):
    series = rhp_series(bloch(1.2, t_max=5))
    path = tmp_path / "series.csv"
    header, rows = _series_rows(series, _PASSES["rhp"][1])
    _put(tmp_path, "series.csv", _csv_bytes(header, rows), {})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,g,I_RHP,flags"
    assert len(lines) == 7
    # only the study's own columns are written, each with a value in every row
    assert all(len(line.split(",")) == 4 and all(line.split(",")[:3]) for line in lines[1:])
    _put(tmp_path, "series.csv", _csv_bytes(header, rows, comment="seed=5 tol=1e-8"), {})
    assert path.read_text().startswith("# seed=5 tol=1e-8\n")


def test_measure_series_csv_matches_value_by_value_writer(tmp_path):
    import hashlib

    import loop_reference

    m = bloch(1.3, MetricSpec(kind="random_xy", seed=11), t_max=100, size=201)
    edge = np.stack([np.eye(3), np.diag([1e-13, 1e-13, 1.0]), np.diag([0.5, -0.0, 1e-300])])
    flagged = rhp_series(edge)
    flagged.g[1:] = 1e16, -0.0
    flagged.rhp[2] = 1e-300
    # each series under its own study's columns; the impure coin's flags stay on
    # the series, and only an RHP series writes its flags
    cases = [
        ("rhp", rhp_series(m)),
        ("entanglement", entanglement_series(m, (0, 1, 0))),
        ("entanglement", entanglement_series(m[:6], (0, 0, 0))),
        ("blp", blp_series(m, (0, 0, 1), (0, 0, -1))),
        ("rhp", flagged),
    ]
    assert cases[2][1].flags[0] == "impure_initial"
    for i, (study, series) in enumerate(cases):
        new, old = tmp_path / f"new{i}.csv", tmp_path / f"old{i}.csv"
        header, rows = _series_rows(series, _PASSES[study][1])
        written = {}
        _put(tmp_path, new.name, _csv_bytes(header, rows, comment=f"case={i} tolerances={{\"a\": 1e-08}}"), written)
        loop_reference.write_series_csv(series, old, comment=f"case={i} tolerances={{\"a\": 1e-08}}")
        assert hashlib.sha256(new.read_bytes()).digest() == hashlib.sha256(old.read_bytes()).digest()
        assert written == {new.name: hashlib.sha256(old.read_bytes()).hexdigest()}
    assert "ill_conditioned(1.000e+13)" in new.read_text()

