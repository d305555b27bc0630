import math

import numpy as np
import pytest

from ptwalk import (
    LightConeViolation,
    MetricSpec,
    WalkParams,
    bloch_state,
    build_euclidean_walk,
    build_metric,
    channel_matrix,
    channel_matrix_series,
    choi_matrix,
    coin_trajectory,
    devec,
    hamiltonian,
    herm_sqrt,
    intermediate_map,
    metric_transport,
    momentum_grid,
    partial_trace,
    reduced_coin_state,
    spectral_a,
    trace_norm,
    vec,
    walk_block,
    walk_operator,
)
from ptwalk.channel import bloch_matrix_series, write_trajectory_csv

T1, T2 = math.pi / 4, -math.pi / 7
FLAT = MetricSpec(kind="g1_flat")


def params(gamma, size=21):
    return WalkParams(T1, T2, gamma, size)


def random_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def dense_reduced_state(p, spec, rho0, t):
    """Brute-force oracle: full 2L x 2L position-space evolution + partial trace.

    Independent of the momentum-block code path: builds the shift as a
    roll matrix, the metric through an explicit Fourier transform, and the
    reduced state through the generic partial trace. The grid anchored at
    k0 = -pi on an odd lattice consists of the antiperiodic shift momenta
    (e^{-ikL} = -1), so the wrap-around entry carries a minus sign.
    """
    size = p.lattice_size
    ks = momentum_grid(size)
    x = np.arange(size)
    fourier = np.exp(-1j * np.outer(x, ks)) / np.sqrt(size)  # columns are |k|
    right = np.roll(np.eye(size), 1, axis=0)  # |x+1><x|
    right[0, size - 1] = -1.0
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    shift = np.kron(right, up) + np.kron(right.T, down)

    def lift(m):
        return np.kron(np.eye(size), m)

    from ptwalk.walk import coin, gain_loss

    w_full = (
        lift(coin(p.theta1 / 2))
        @ shift
        @ lift(gain_loss(-p.gamma))
        @ lift(coin(p.theta2))
        @ shift
        @ lift(gain_loss(p.gamma))
        @ lift(coin(p.theta1 / 2))
    )
    blocks = build_metric(p, spec).blocks
    g_momentum = np.zeros((2 * size, 2 * size), dtype=complex)
    for i in range(size):
        g_momentum[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blocks[i]
    f2 = np.kron(fourier, np.eye(2))
    g_full = f2 @ g_momentum @ f2.conj().T
    eta_full = herm_sqrt(g_full)
    w_eta = eta_full @ w_full @ np.linalg.inv(eta_full)

    pos0 = np.zeros((size, size))
    pos0[0, 0] = 1.0
    rho = np.kron(pos0, rho0)
    for _ in range(t):
        rho = w_eta @ rho @ w_eta.conj().T
    return partial_trace(rho, (size, 2), "B")


def test_build_trivial_metric_preserves_walk():
    p = params(0.0)
    ew = build_euclidean_walk(p, FLAT)
    for k, b in zip(ew.w_eta_blocks.points, ew.w_eta_blocks.blocks):
        assert np.abs(b - walk_block(k, p)).max() < 1e-13


def test_build_unitarity_nonhermitian():
    ew = build_euclidean_walk(params(math.log(1.2), 101), MetricSpec(kind="random_xy", seed=11))
    assert ew.unitarity_residual <= 1e-9


def test_build_transport_conjugates_unitaries():
    p = params(math.log(1.2))
    spec_b = MetricSpec(kind="random_xy", seed=4)
    ew_a = build_euclidean_walk(p, FLAT)
    ew_b = build_euclidean_walk(p, spec_b)
    tr = metric_transport(ew_a.metric, ew_b.metric, hamiltonian(p))
    for i in range(len(ew_a.metric)):
        u = tr.u.blocks[i]
        expected = u @ ew_a.w_eta_blocks.blocks[i] @ u.conj().T
        assert np.abs(ew_b.w_eta_blocks.blocks[i] - expected).max() < 1e-9


def test_reduced_state_t0_and_validation():
    ew = build_euclidean_walk(params(0.1), FLAT)
    rho0 = bloch_state((0.3, -0.2, 0.4))
    assert np.abs(reduced_coin_state(ew, rho0, 0) - rho0).max() < 1e-14
    with pytest.raises(ValueError):
        reduced_coin_state(ew, 2 * rho0, 1)
    with pytest.raises(LightConeViolation):
        reduced_coin_state(ew, rho0, 11)


def test_reduced_state_matches_dense_oracle():
    rng = np.random.default_rng(40)
    rho0 = random_state(rng)
    for gamma in (0.0, 0.1, 0.18):
        for spec in (FLAT, MetricSpec(kind="random_xy", seed=13)):
            p = params(gamma)
            ew = build_euclidean_walk(p, spec)
            for t in (1, 4, 10):
                fast = reduced_coin_state(ew, rho0, t)
                slow = dense_reduced_state(p, spec, rho0, t)
                assert np.abs(fast - slow).max() < 1e-9


def test_reduced_state_stays_physical():
    ew = build_euclidean_walk(params(math.log(1.3), 101), MetricSpec(kind="random_xy", seed=2))
    traj = coin_trajectory(ew, bloch_state((0, 1, 0)), 50)
    for state in traj.states:
        assert abs(np.trace(state).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(state).min() > -1e-10


def test_trivial_coin_freezes_populations():
    # zero coin angles make every momentum block diagonal, so populations
    # never move even though phases do
    p = WalkParams(0.0, 0.0, 0.0, 21)
    ew = build_euclidean_walk(p, FLAT)
    rho0 = bloch_state((0.6, 0.0, 0.5))
    traj = coin_trajectory(ew, rho0, 8)
    for state in traj.states:
        assert np.abs(np.diag(state) - np.diag(rho0)).max() < 1e-12


def test_channel_matrix_identity_at_t0():
    ew = build_euclidean_walk(params(0.1), FLAT)
    cm = channel_matrix(ew, 0)
    assert np.abs(cm.matrix - np.eye(4)).max() < 1e-14


def test_channel_matrix_reproduces_reduced_state():
    rng = np.random.default_rng(41)
    ew = build_euclidean_walk(params(math.log(1.2)), MetricSpec(kind="random_xy", seed=6))
    rho0 = random_state(rng)
    for t in (1, 3, 7):
        cm = channel_matrix(ew, t)
        via_channel = devec(cm.matrix @ vec(rho0))
        direct = reduced_coin_state(ew, rho0, t)
        assert np.abs(via_channel - direct).max() < 1e-10


def test_channel_matrix_single_step_kraus_sum():
    # vectorization oracle: one unitary step is (1/L) sum_k W (x) conj(W)
    p = params(0.0, 101)
    ew = build_euclidean_walk(p, FLAT)
    cm = channel_matrix(ew, 1)
    expected = np.zeros((4, 4), dtype=complex)
    for k in momentum_grid(101):
        w = walk_block(k, p)
        expected += np.kron(w, w.conj())
    expected /= 101
    assert np.abs(cm.matrix - expected).max() < 1e-12


def test_channel_matrix_trace_preserving_rows():
    # tr(map(rho)) = tr(rho) pins row 0 + row 3 of L(t, 0) to (1, 0, 0, 1)
    ew = build_euclidean_walk(params(math.log(1.2)), MetricSpec(kind="random_xy", seed=6))
    for t in (1, 5, 10):
        cm = channel_matrix(ew, t)
        rows = cm.matrix[0] + cm.matrix[3]
        assert np.abs(rows - np.array([1, 0, 0, 1])).max() < 1e-9


def test_channel_matrix_is_linear():
    rng = np.random.default_rng(42)
    ew = build_euclidean_walk(params(0.15), FLAT)
    cm = channel_matrix(ew, 5)
    a, b = random_state(rng), random_state(rng)
    lhs = cm.matrix @ vec(0.3 * a + 0.7 * b)
    rhs = 0.3 * (cm.matrix @ vec(a)) + 0.7 * (cm.matrix @ vec(b))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_channel_series_matches_single_calls():
    ew = build_euclidean_walk(params(0.1), MetricSpec(kind="random_xy", seed=1))
    series = channel_matrix_series(ew, 6)
    assert len(series) == 7
    for t in (0, 2, 6):
        assert np.abs(series[t].matrix - channel_matrix(ew, t).matrix).max() < 1e-12


def test_intermediate_map_t0_is_one_step():
    ew = build_euclidean_walk(params(0.1), FLAT)
    one = channel_matrix(ew, 1)
    inter = intermediate_map(ew, 0)
    assert np.abs(inter.matrix - one.matrix).max() < 1e-12
    assert (inter.t_from, inter.t_to) == (0, 1)


def test_intermediate_map_composes_back():
    ew = build_euclidean_walk(params(math.log(1.2)), MetricSpec(kind="random_xy", seed=3))
    series = channel_matrix_series(ew, 9)
    for t in (2, 5, 8):
        inter = intermediate_map(ew, t)
        back = inter.matrix @ series[t].matrix
        assert np.abs(back - series[t + 1].matrix).max() < 1e-8


def test_intermediate_map_metric_invariant_in_hermitian_limit():
    p = params(0.0, 101)
    ew1 = build_euclidean_walk(p, FLAT)
    ew2 = build_euclidean_walk(p, MetricSpec(kind="random_xy", seed=23))
    for t in (1, 4):
        a = intermediate_map(ew1, t)
        b = intermediate_map(ew2, t)
        assert np.abs(a.matrix - b.matrix).max() < 1e-9


def test_choi_identity_channel():
    c = choi_matrix(np.eye(4))
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert np.abs(c - np.outer(phi, phi)).max() < 1e-14
    assert abs(trace_norm(c) - 1.0) < 1e-12


def test_choi_unitary_channel_rank_one():
    rng = np.random.default_rng(43)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    lmat = np.kron(q, q.conj())
    c = choi_matrix(lmat)
    vals = np.sort(np.linalg.eigvalsh(c))
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)
    assert abs(trace_norm(c) - 1.0) < 1e-10
    assert abs(np.trace(c) - 1.0) < 1e-12


def test_choi_transpose_map():
    # textbook non-CP example: eigenvalues (1/2, 1/2, 1/2, -1/2), norm 2
    units = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            units[2 * i + j, i, j] = 1.0
    lmat = np.stack([vec(units[x].T) for x in range(4)], axis=1)
    c = choi_matrix(lmat)
    assert np.allclose(np.sort(np.linalg.eigvalsh(c)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(trace_norm(c) - 2.0) < 1e-12


def test_channel_json_roundtrip():
    from ptwalk.channel import channel_from_json_dict, channel_to_json_dict

    ew = build_euclidean_walk(params(0.1), FLAT)
    cm = channel_matrix(ew, 3)
    back = channel_from_json_dict(channel_to_json_dict(cm))
    assert np.abs(back.matrix - cm.matrix).max() == 0.0
    assert back.t_to == 3


def test_trajectory_csv(tmp_path):
    ew = build_euclidean_walk(params(0.1), FLAT)
    traj = coin_trajectory(ew, bloch_state((0, 1, 0)), 4)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].split(",")[:3] == ["t", "re_r11", "im_r11"]


# ------------------------------------------- closed form vs step-by-step loops


@pytest.fixture(
    scope="module",
    params=[(0.0, "G1"), (0.0, "rxy"), (math.log(1.3), "G1"), (math.log(1.3), "rxy")],
)
def long_walk(request):
    gamma, kind = request.param
    spec = FLAT if kind == "G1" else MetricSpec(kind="random_xy", seed=11)
    return build_euclidean_walk(WalkParams(T1, T2, gamma, 1201), spec)


def test_closed_form_channels_match_block_powers(long_walk):
    import loop_reference

    fast = channel_matrix_series(long_walk, 600)
    slow = loop_reference.channel_matrix_series(long_walk, 600)
    assert [c.t_to for c in fast] == [c.t_to for c in slow]
    assert max(np.abs(a.matrix - b.matrix).max() for a, b in zip(fast, slow)) <= 1e-12


def test_closed_form_coin_states_match_block_powers(long_walk):
    import loop_reference

    rho0 = bloch_state((0.0, 1.0, 0.0))
    fast = coin_trajectory(long_walk, rho0, 600)
    slow = loop_reference.coin_trajectory(long_walk, rho0, 600)
    assert np.array_equal(fast.steps, slow.steps)
    assert np.abs(fast.states - slow.states).max() <= 1e-12


def test_bloch_matrix_series_rotation_average():
    # M(t) maps Bloch vectors exactly like conjugating with the block powers
    ew = build_euclidean_walk(params(math.log(1.2), 41), MetricSpec(kind="random_xy", seed=9))
    bloch = bloch_matrix_series(ew, 20)
    assert bloch.shape == (21, 3, 3)
    assert np.array_equal(bloch[0], np.eye(3))
    rng = np.random.default_rng(44)
    rho0 = random_state(rng)
    for t in (1, 7, 20):
        r = bloch[t] @ np.array([2 * rho0[1, 0].real, 2 * rho0[1, 0].imag, (rho0[0, 0] - rho0[1, 1]).real])
        assert np.abs(bloch_state(r) - reduced_coin_state(ew, rho0, t)).max() <= 1e-15
        assert np.abs(bloch_state(r) - dense_reduced_state(ew.params, ew.spec, rho0, t)).max() < 1e-9


@pytest.mark.parametrize("theta1, theta2", [(0.6, -0.6), (math.pi / 2, math.pi / 2)])
def test_identity_rotation_where_sin_eps_vanishes(theta1, theta2):
    # A unitary walk may touch |a(k)| = 1 on the grid under the flat metric;
    # there W(k) = +-I, the rotation is the identity and its axis is arbitrary.
    import loop_reference
    from ptwalk.walk import UNBROKEN_MARGIN

    p = WalkParams(theta1, theta2, 0.0, 21)
    assert np.abs(spectral_a(momentum_grid(21), p)).max() >= 1.0 - UNBROKEN_MARGIN
    ew = build_euclidean_walk(p, FLAT)
    rng = np.random.default_rng(45)
    rho0 = random_state(rng)
    for t in (1, 5, 10):
        slow = dense_reduced_state(p, FLAT, rho0, t)
        assert np.abs(reduced_coin_state(ew, rho0, t) - slow).max() < 1e-9
    fast = channel_matrix_series(ew, 10)
    loops = loop_reference.channel_matrix_series(ew, 10)
    assert max(np.abs(a.matrix - b.matrix).max() for a, b in zip(fast, loops)) <= 1e-13


# --------------------------------------------- batched builders vs per-k loops


@pytest.mark.parametrize("gamma", [0.0, 0.1, math.log(1.2), math.log(1.3)])
@pytest.mark.parametrize("spec", [FLAT, MetricSpec(kind="random_xy", seed=23)])
def test_batched_builders_match_per_k_loops(gamma, spec):
    import loop_reference

    p = params(gamma, 1201)
    w = walk_operator(p)
    assert np.abs(w.blocks - loop_reference.walk_blocks(p)).max() <= 1e-13
    ew = build_euclidean_walk(p, spec)
    if not (gamma == 0.0 and spec.kind == "g1_flat"):
        assert np.abs(ew.metric.blocks - loop_reference.metric_blocks(p, spec)).max() <= 1e-13
    etas, eta_invs, w_etas, residual = loop_reference.unitary_frame(ew.metric.blocks, w.blocks)
    assert np.abs(ew.eta_blocks.blocks - etas).max() <= 1e-13
    assert np.abs(ew.eta_inv_blocks.blocks - eta_invs).max() <= 1e-13
    assert np.abs(ew.w_eta_blocks.blocks - w_etas).max() <= 1e-13
    assert abs(ew.unitarity_residual - residual) <= 1e-13


def test_batched_builders_report_first_offending_index():
    import loop_reference
    from ptwalk import DegenerateAtK, NotPositive
    from ptwalk.metric import _left_eigen

    # coalescence at k = 0 and k = pi for theta2 = -theta1 at gamma = 0
    p = WalkParams(0.6, -0.6, 0.0, 21)
    ks = np.array([0.3, 0.0, 1.0, np.pi])
    with pytest.raises(DegenerateAtK) as batched:
        _left_eigen(ks, p)
    with pytest.raises(DegenerateAtK) as looped:
        for k in ks:
            loop_reference.left_eigvecs(k, p)
    assert str(batched.value).split(")|")[0] == str(looped.value).split(")|")[0] == "|a(0.000000"

    # negative y weights make blocks 3 and 9 indefinite
    q = params(math.log(1.2))
    ys = [1.0] * 21
    ys[3] = ys[9] = -0.5
    spec = MetricSpec(kind="explicit", x=(1.0,) * 21, y=tuple(ys))
    with pytest.raises(NotPositive) as batched:
        build_euclidean_walk(q, spec)
    with pytest.raises(NotPositive) as looped:
        loop_reference.unitary_frame(build_metric(q, spec).blocks, walk_operator(q).blocks)
    assert str(batched.value) == str(looped.value) == "metric block 3 not positive definite"


def test_euclidean_walk_health_fields():
    p = params(math.log(1.3), 101)
    ew = build_euclidean_walk(p, MetricSpec(kind="random_xy", seed=11))
    a = spectral_a(momentum_grid(101), p)
    assert ew.ep_gap == pytest.approx(float((1 - np.abs(a)).min()), abs=1e-15)
    conds = [np.linalg.cond(b) for b in ew.metric.blocks]
    assert ew.metric_condition_max == pytest.approx(max(conds), rel=1e-9)
    flat = build_euclidean_walk(params(0.0), FLAT)
    assert flat.metric_condition_max == 1.0
