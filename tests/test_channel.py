import math

import numpy as np
import pytest

from channel_reference import (
    bloch_state,
    channel_matrix,
    channel_matrix_series,
    choi_matrix,
    devec,
    intermediate_map,
    partial_trace,
    reduced_coin_state,
    vec,
)
from loop_reference import hamiltonian_blocks, herm_sqrt, metric_transport, walk_alone, walk_block, walk_blocks
from ptwalk import (
    LightConeViolation,
    MetricSpec,
    WalkParams,
    entanglement_series,
    gamma_pt,
)
from ptwalk.channel import bloch_matrix_series, build_euclidean_walk, equal_classes, trace_norm
from ptwalk.experiments import _PASSES, _csv_bytes, _put, _series_rows
from ptwalk.walk import momentum_grid, spectral_a

T1, T2 = math.pi / 4, -math.pi / 7
FLAT = MetricSpec(kind="g1_flat")


def params(gamma, size=21):
    return WalkParams(T1, T2, gamma, size)


def coin_states(ew, r0, t_max):
    """Reduced coin states (I + (M(t) r0) . sigma)/2, t = 0..t_max, shape (t_max+1, 2, 2)."""
    return np.stack([bloch_state(r) for r in bloch_matrix_series(ew, t_max)[0] @ np.asarray(r0, float)])


def rotation_blocks(ew):
    """W_eta(k) = cos(eps) I - i sin(eps) (n_x sigma_x + n_z sigma_z) from the walk's rotations under its first metric."""
    c, s = np.cos(ew.eps), np.sin(ew.eps)
    w = np.empty((len(ew.eps), 2, 2), dtype=complex)
    w[:, 0, 0], w[:, 1, 1] = c - 1j * s * ew.n_z[0], c + 1j * s * ew.n_z[0]
    w[:, 0, 1] = w[:, 1, 0] = -1j * s * ew.n_x[0]
    return w


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

    from loop_reference import coin, gain_loss

    w_full = (
        lift(coin(p.theta1 / 2))
        @ shift
        @ lift(gain_loss(-p.gamma))
        @ lift(coin(p.theta2))
        @ shift
        @ lift(gain_loss(p.gamma))
        @ lift(coin(p.theta1 / 2))
    )
    blocks = walk_alone(p, spec)[1]
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
    ew = walk_alone(p, FLAT)[0]
    for k, b in zip(momentum_grid(p.lattice_size), rotation_blocks(ew)):
        assert np.abs(b - walk_block(k, p)).max() < 1e-13


def test_build_unitarity_nonhermitian():
    ew = walk_alone(params(math.log(1.2), 101), MetricSpec(kind="random_xy", seed=11))[0]
    assert ew.pseudo_hermiticity_residual[0] <= 1e-9


def test_build_transport_conjugates_unitaries():
    import loop_reference

    p = params(math.log(1.2))
    spec_b = MetricSpec(kind="random_xy", seed=4)
    _, g_a = walk_alone(p, FLAT)
    ew_b, g_b = walk_alone(p, spec_b)
    tr = metric_transport(g_a, g_b, hamiltonian_blocks(p))
    w_a, w_b = loop_reference.frame_blocks(p, FLAT), rotation_blocks(ew_b)
    for i in range(len(g_a)):
        u = tr.u[i]
        expected = u @ w_a[i] @ u.conj().T
        assert np.abs(w_b[i] - expected).max() < 1e-9


def test_reduced_state_t0_and_validation():
    ew = walk_alone(params(0.1), FLAT)[0]
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
            ew = walk_alone(p, spec)[0]
            for t in (1, 4, 10):
                fast = reduced_coin_state(ew, rho0, t)
                slow = dense_reduced_state(p, spec, rho0, t)
                assert np.abs(fast - slow).max() < 1e-9


def test_reduced_state_stays_physical():
    ew = walk_alone(params(math.log(1.3), 101), MetricSpec(kind="random_xy", seed=2))[0]
    for state in coin_states(ew, (0, 1, 0), 50):
        assert abs(np.trace(state).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(state).min() > -1e-10


def test_trivial_coin_freezes_populations():
    # zero coin angles make every momentum block diagonal, so populations
    # never move even though phases do
    p = WalkParams(0.0, 0.0, 0.0, 21)
    ew = walk_alone(p, FLAT)[0]
    rho0 = bloch_state((0.6, 0.0, 0.5))
    for state in coin_states(ew, (0.6, 0.0, 0.5), 8):
        assert np.abs(np.diag(state) - np.diag(rho0)).max() < 1e-12


def test_channel_matrix_identity_at_t0():
    ew = walk_alone(params(0.1), FLAT)[0]
    cm = channel_matrix(ew, 0)
    assert np.abs(cm.matrix - np.eye(4)).max() < 1e-14


def test_channel_matrix_reproduces_reduced_state():
    rng = np.random.default_rng(41)
    ew = walk_alone(params(math.log(1.2)), MetricSpec(kind="random_xy", seed=6))[0]
    rho0 = random_state(rng)
    for t in (1, 3, 7):
        cm = channel_matrix(ew, t)
        via_channel = devec(cm.matrix @ vec(rho0))
        direct = reduced_coin_state(ew, rho0, t)
        assert np.abs(via_channel - direct).max() < 1e-10


def test_channel_matrix_single_step_kraus_sum():
    # vectorization oracle: one unitary step is (1/L) sum_k W (x) conj(W)
    p = params(0.0, 101)
    ew = walk_alone(p, FLAT)[0]
    cm = channel_matrix(ew, 1)
    expected = np.zeros((4, 4), dtype=complex)
    for k in momentum_grid(101):
        w = walk_block(k, p)
        expected += np.kron(w, w.conj())
    expected /= 101
    assert np.abs(cm.matrix - expected).max() < 1e-12


def test_channel_matrix_trace_preserving_rows():
    # tr(map(rho)) = tr(rho) pins row 0 + row 3 of L(t, 0) to (1, 0, 0, 1)
    ew = walk_alone(params(math.log(1.2)), MetricSpec(kind="random_xy", seed=6))[0]
    for t in (1, 5, 10):
        cm = channel_matrix(ew, t)
        rows = cm.matrix[0] + cm.matrix[3]
        assert np.abs(rows - np.array([1, 0, 0, 1])).max() < 1e-9


def test_channel_matrix_is_linear():
    rng = np.random.default_rng(42)
    ew = walk_alone(params(0.15), FLAT)[0]
    cm = channel_matrix(ew, 5)
    a, b = random_state(rng), random_state(rng)
    lhs = cm.matrix @ vec(0.3 * a + 0.7 * b)
    rhs = 0.3 * (cm.matrix @ vec(a)) + 0.7 * (cm.matrix @ vec(b))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_channel_series_matches_single_calls():
    ew = walk_alone(params(0.1), MetricSpec(kind="random_xy", seed=1))[0]
    series = channel_matrix_series(ew, 6)
    assert len(series) == 7
    for t in (0, 2, 6):
        assert np.abs(series[t].matrix - channel_matrix(ew, t).matrix).max() < 1e-12


def test_intermediate_map_t0_is_one_step():
    ew = walk_alone(params(0.1), FLAT)[0]
    one = channel_matrix(ew, 1)
    inter = intermediate_map(ew, 0)
    assert np.abs(inter.matrix - one.matrix).max() < 1e-12
    assert (inter.t_from, inter.t_to) == (0, 1)


def test_intermediate_map_composes_back():
    ew = walk_alone(params(math.log(1.2)), MetricSpec(kind="random_xy", seed=3))[0]
    series = channel_matrix_series(ew, 9)
    for t in (2, 5, 8):
        inter = intermediate_map(ew, t)
        back = inter.matrix @ series[t].matrix
        assert np.abs(back - series[t + 1].matrix).max() < 1e-8


def test_intermediate_map_metric_invariant_in_hermitian_limit():
    p = params(0.0, 101)
    ew1 = walk_alone(p, FLAT)[0]
    ew2 = walk_alone(p, MetricSpec(kind="random_xy", seed=23))[0]
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
    # the reduced map is carried by its Bloch matrix M(t), which JSON keeps exactly
    import json

    ew = walk_alone(params(0.1), FLAT)[0]
    bloch = bloch_matrix_series(ew, 3)[0]
    back = np.array(json.loads(json.dumps({"t": 3, "bloch": bloch[3].tolist()}))["bloch"])
    assert np.abs(back - bloch[3]).max() == 0.0
    assert back.shape == (3, 3)


def test_trajectory_csv(tmp_path):
    # the coin trajectory reaches disk through the entanglement series, whose
    # S column must read back exactly
    ew = walk_alone(params(0.1), FLAT)[0]
    series = entanglement_series(bloch_matrix_series(ew, 4)[0], (0, 1, 0))
    path = tmp_path / "traj.csv"
    header, rows = _series_rows(series, _PASSES["entanglement"][1])
    _put(tmp_path, "traj.csv", _csv_bytes(header, rows), {})
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "t,S"
    assert [float(line.split(",")[1]) for line in lines[1:]] == series.entropy.tolist()


# ------------------------------------------- closed form vs step-by-step loops


@pytest.fixture(
    scope="module",
    params=[(0.0, "G1"), (0.0, "rxy"), (math.log(1.3), "G1"), (math.log(1.3), "rxy")],
)
def long_walk(request):
    """(params, spec, walk) of the default walk at L = 1201."""
    gamma, kind = request.param
    spec = FLAT if kind == "G1" else MetricSpec(kind="random_xy", seed=11)
    p = WalkParams(T1, T2, gamma, 1201)
    return p, spec, walk_alone(p, spec)[0]


def test_closed_form_channels_match_block_powers(long_walk):
    import loop_reference

    p, spec, ew = long_walk
    fast = channel_matrix_series(ew, 600)
    slow = loop_reference.channel_matrix_series(p, spec, 600)
    assert [c.t_to for c in fast] == [c.t_to for c in slow]
    assert max(np.abs(a.matrix - b.matrix).max() for a, b in zip(fast, slow)) <= 1e-12


def test_closed_form_coin_states_match_block_powers(long_walk):
    import loop_reference

    p, spec, ew = long_walk
    rho0 = bloch_state((0.0, 1.0, 0.0))
    fast = coin_states(ew, (0.0, 1.0, 0.0), 600)
    slow = loop_reference.coin_trajectory(p, spec, rho0, 600)
    assert fast.shape == slow.shape == (601, 2, 2)
    assert np.abs(fast - slow).max() <= 1e-12


@pytest.mark.parametrize("gamma_factor", [1.0, 1.2, 1.3])
@pytest.mark.parametrize("spec", [FLAT, MetricSpec(kind="random_xy", seed=11)])
def test_phase_stepped_bloch_matrices_match_direct_oracle(gamma_factor, spec):
    # Angle addition moves M(t) by roundoff only, against the direct
    # evaluation on the rotations of the per-block eigh frame; the first
    # block steps from t0 = 0 and is bitwise the direct evaluation of the
    # library's own sums, which the BLP search reads.
    import loop_reference
    from ptwalk.channel import BLOCK_ELEMENTS

    p = WalkParams(T1, T2, math.log(gamma_factor), 1201)
    ew = walk_alone(p, spec)[0]
    fast = bloch_matrix_series(ew, 600)[0]
    slow = loop_reference.bloch_matrices_direct(p, spec, np.arange(601))
    assert np.abs(fast - slow).max() <= 1e-13
    chunk = BLOCK_ELEMENTS // 601  # the first block: 601 = (1201 + 1)/2 folded momenta
    assert np.array_equal(fast[:chunk], loop_reference.bloch_matrices_five_sums(ew, np.arange(chunk)))


def test_bloch_matrices_do_not_depend_on_block_size(monkeypatch):
    import ptwalk.channel

    ew = walk_alone(WalkParams(T1, T2, math.log(1.3), 1201), MetricSpec(kind="random_xy", seed=11))[0]
    chunk = ptwalk.channel.BLOCK_ELEMENTS // 601  # 601 = (1201 + 1)/2 folded momenta
    base = bloch_matrix_series(ew, 600)[0]
    # every block start, the rows next to it and the last row, where the
    # angles are largest, against M(t) evaluated directly
    r = np.array([0.0, 1.0, 0.0])
    starts = range(0, 601, chunk)
    for t in sorted(({s + d for s in starts for d in (-1, 0, 1)} & set(range(601))) | {600}):
        assert np.abs(bloch_state(base[t] @ r) - reduced_coin_state(ew, bloch_state(r), t)).max() <= 1e-14, t
    for elements in (1 << 8, 1 << 20):
        monkeypatch.setattr(ptwalk.channel, "BLOCK_ELEMENTS", elements)
        assert np.abs(bloch_matrix_series(ew, 600)[0] - base).max() <= 1e-13


@pytest.mark.parametrize("size, t_max", [(1201, 600), (4001, 20)])
def test_bloch_matrix_series_does_not_depend_on_the_other_walks(size, t_max):
    # one pass serves every metric of one WalkParams, and each metric keeps its
    # own product per block: its M(t) alone equals its row of any pass bit
    # for bit, which keeps CSVs byte-identical however a run deals its pairs
    p = WalkParams(T1, T2, math.log(1.3), size)
    specs = (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23))
    ew = build_euclidean_walk(p, specs)[0]
    together = bloch_matrix_series(ew, t_max)
    assert together.shape == (3, t_max + 1, 3, 3)
    for i, spec in enumerate(specs):
        assert np.array_equal(bloch_matrix_series(walk_alone(p, spec)[0], t_max)[0], together[i])
    assert np.array_equal(bloch_matrix_series(ew, t_max, [2, 0]), together[::-2])


@pytest.mark.parametrize("gamma_factor", [1.0, 1.3, "near_ep"])
@pytest.mark.parametrize(
    "spec",
    [
        FLAT,
        MetricSpec(kind="random_xy", seed=11),
        MetricSpec(kind="explicit", y=tuple(np.linspace(3.0, 0.2, 1201))),
    ],
)
def test_euclidean_walk_angles_are_symmetric_in_k(gamma_factor, spec):
    # eps depends on k through cos 2k alone and the grid is exactly
    # antisymmetric, so eps_{L-n} = eps_n bitwise, also at (1 - 1e-9) gamma_pt
    gamma = (1 - 1e-9) * gamma_pt(T1, T2) if gamma_factor == "near_ep" else math.log(gamma_factor)
    eps = walk_alone(params(gamma, 1201), spec)[0].eps
    assert np.array_equal(eps[1:], eps[:0:-1])


def test_bloch_matrix_series_refuses_asymmetric_angles():
    # the pass sums each +-k pair once, which is exact only for eps_{L-n} = eps_n
    import dataclasses

    ew = walk_alone(params(math.log(1.2), 41), FLAT)[0]
    eps = ew.eps.copy()
    eps[3] = np.nextafter(eps[3], 4.0)
    with pytest.raises(ValueError, match="k and -k"):
        bloch_matrix_series(dataclasses.replace(ew, eps=eps), 5)


@pytest.mark.parametrize("gamma_factor", [1.0, 1.3, "near_ep"])
def test_walks_with_equal_axes_share_one_pass(gamma_factor):
    # Each metric row of a walk built for several metrics is bit for bit the
    # walk of that metric built alone, in either order of the specs: its
    # axes, health, metric entries and M(t). Rows with equal axes share one
    # M(t): at gamma = 0 every metric gives the axes of S alone, so the four
    # rows are one class; elsewhere only the repeated flat metric is shared.
    gamma = (1 - 1e-9) * gamma_pt(T1, T2) if gamma_factor == "near_ep" else math.log(gamma_factor)
    p = params(gamma, 1201)
    specs = (FLAT, MetricSpec(kind="random_xy", seed=11), FLAT, MetricSpec(kind="explicit", y=tuple(np.linspace(3.0, 0.2, 1201))))
    alone = [build_euclidean_walk(p, [spec]) for spec in specs]
    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        ew, g = build_euclidean_walk(p, [specs[i] for i in order])
        together = bloch_matrix_series(ew, 600)
        for row, i in enumerate(order):
            one, one_g = alone[i]
            assert np.array_equal(ew.eps, one.eps) and ew.ep_gap == one.ep_gap
            for name in ("n_x", "n_z", "pseudo_hermiticity_residual", "metric_condition_max"):
                assert np.array_equal(getattr(ew, name)[row], getattr(one, name)[0]), name
            assert all(np.array_equal(entries[row], one_entries[0]) for entries, one_entries in zip(g, one_g))
            assert np.array_equal(together[row], bloch_matrix_series(one, 600)[0])
        first, index = equal_classes(np.stack(axes) for axes in zip(ew.n_x, ew.n_z))
        assert len(first) == (1 if gamma_factor == 1.0 else 3)
        assert np.array_equal(bloch_matrix_series(ew, 600, first)[index], together)


def test_equal_classes_are_bitwise():
    # one class per distinct array, numbered in order of first appearance;
    # a one-ulp change, a signed zero or another shape starts a new class
    a = np.linspace(0.0, 1.0, 7)
    ulp = a.copy()
    ulp[3] = np.nextafter(ulp[3], np.inf)
    signed = a.copy()
    signed[0] = -0.0
    arrays = [a, a.copy(), ulp, a.reshape(7, 1), signed, ulp.copy()]
    assert equal_classes(arrays) == ([0, 2, 3, 4], [0, 0, 1, 2, 3, 1])
    assert equal_classes([]) == ([], [])


def test_choi_trace_norms_match_the_singular_vector_sign():
    # the sign of det A is det(U) det(V^T) for a nonsingular A; near a
    # singular map the two can differ only by the sign of l3 ~ 0
    from channel_reference import signed_singular_choi_norms
    from ptwalk.channel import choi_trace_norms

    rng = np.random.default_rng(19)

    def orthogonal(n):
        q = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
        return q * np.sign(np.linalg.det(q))[:, None, None]  # proper rotations

    n = 500
    u, v = orthogonal(n), orthogonal(n)
    lam = np.sort(rng.uniform(0.0, 1.5, size=(n, 3)), axis=1)[:, ::-1].copy()
    lam[: n // 4, 2] = 10.0 ** rng.uniform(-17, -10, size=n // 4)  # near-singular
    lam[n // 4 : n // 4 + 5, 2] = 0.0
    flip = np.where(rng.random(n) < 0.5, -1.0, 1.0)  # improper maps
    maps = (u * lam[:, None, :]) @ v * np.stack([np.ones(n), np.ones(n), flip], axis=1)[:, :, None]
    assert (np.linalg.det(maps[n // 4 + 5 :]) < 0).any() and (np.linalg.det(maps[n // 4 + 5 :]) > 0).any()
    assert np.abs(choi_trace_norms(maps) - signed_singular_choi_norms(maps)).max() <= 1e-15


def test_bloch_matrix_series_rotation_average():
    # M(t) maps Bloch vectors exactly like conjugating with the block powers
    p, spec = params(math.log(1.2), 41), MetricSpec(kind="random_xy", seed=9)
    ew = walk_alone(p, spec)[0]
    bloch = bloch_matrix_series(ew, 20)[0]
    assert bloch.shape == (21, 3, 3)
    assert np.array_equal(bloch[0], np.eye(3))
    rng = np.random.default_rng(44)
    rho0 = random_state(rng)
    for t in (1, 7, 20):
        r = bloch[t] @ np.array([2 * rho0[1, 0].real, 2 * rho0[1, 0].imag, (rho0[0, 0] - rho0[1, 1]).real])
        assert np.abs(bloch_state(r) - reduced_coin_state(ew, rho0, t)).max() <= 1e-15
        assert np.abs(bloch_state(r) - dense_reduced_state(p, spec, rho0, t)).max() < 1e-9


@pytest.mark.parametrize("theta1, theta2", [(0.6, -0.6), (math.pi / 2, math.pi / 2)])
def test_identity_rotation_where_sin_eps_vanishes(theta1, theta2):
    # A unitary walk may touch |a(k)| = 1 on the grid under the flat metric;
    # there W(k) = +-I, the rotation is the identity and its axis is arbitrary.
    import loop_reference
    from ptwalk.walk import UNBROKEN_MARGIN

    p = WalkParams(theta1, theta2, 0.0, 21)
    assert np.abs(spectral_a(momentum_grid(21), p)).max() >= 1.0 - UNBROKEN_MARGIN
    ew = walk_alone(p, FLAT)[0]
    rng = np.random.default_rng(45)
    rho0 = random_state(rng)
    for t in (1, 5, 10):
        slow = dense_reduced_state(p, FLAT, rho0, t)
        assert np.abs(reduced_coin_state(ew, rho0, t) - slow).max() < 1e-9
    fast = channel_matrix_series(ew, 10)
    loops = loop_reference.channel_matrix_series(p, FLAT, 10)
    assert max(np.abs(a.matrix - b.matrix).max() for a, b in zip(fast, loops)) <= 1e-13


# --------------------------------------------- batched builders vs per-k loops


# y(k) over twelve decades, shuffled over the grid, so that both ends of the arc
# (the axis near r_+ as y -> 0 and near v_+ as y -> infinity) meet every momentum
ARC_ENDS = MetricSpec(
    kind="explicit",
    name="arc_ends",
    y=tuple(np.geomspace(1e-6, 1e6, 1201)[np.random.default_rng(47).permutation(1201)].tolist()),
)


@pytest.mark.parametrize("gamma", [0.0, 0.1, math.log(1.2), math.log(1.3)])
@pytest.mark.parametrize("spec", [FLAT, MetricSpec(kind="random_xy", seed=23), ARC_ENDS])
def test_batched_builders_match_per_k_loops(gamma, spec):
    import loop_reference

    p = params(gamma, 1201)
    ew, g = walk_alone(p, spec)
    if not (gamma == 0.0 and spec.kind == "g1_flat"):
        assert np.abs(g - loop_reference.metric_blocks(p, spec)).max() <= 1e-13
    # the axes read from the arc against R = eta S eta^-1 on the root's route,
    # whose entries (0, 0) and (0, 1) are n_z sin(eps) and n_x sin(eps); in
    # extended precision, since a float64 eta^-1 is off by up to 3e-13 at the
    # arc's ends, where cond G = 1e6
    _, r = loop_reference.extended_frame(p, spec)
    r = r.astype(float)
    assert np.abs(ew.n_z[0] * np.sin(ew.eps) - r[:, 0, 0]).max() <= 1e-13
    assert np.abs(ew.n_x[0] * np.sin(ew.eps) - r[:, 0, 1]).max() <= 1e-13
    w_etas = spectral_a(momentum_grid(1201), p)[:, None, None] * np.eye(2) - 1j * r
    assert np.abs(rotation_blocks(ew) - w_etas).max() <= 1e-13
    residual = loop_reference.pseudo_hermiticity_residual(g, loop_reference.walk_blocks(p))
    assert abs(ew.pseudo_hermiticity_residual[0] - residual) <= 1e-13


@pytest.mark.parametrize(
    "size, gamma",
    [(1201, gamma) for gamma in (0.0, 0.1, math.log(1.2), math.log(1.3))]
    + [(101, fraction * gamma_pt(T1, T2)) for fraction in (0.9, 0.9999, 1 - 1e-7, 1 - 1e-9)],
)
def test_left_eigenvector_at_minus_sin_eps_is_the_turned_right_one(size, gamma):
    # r_- of S^T at -sin(eps_k) is orthogonal to v_+ of S at +sin(eps_k), so the
    # metric takes r_- = J v_+, J the 90-degree turn; against the oracle's own
    # r_- readout on the grid of ARC_ENDS and near the exceptional point
    import loop_reference
    from ptwalk.channel import _plus_eigenvector, _sin_entries

    p = params(gamma, size)
    ks = momentum_grid(size)
    d1, d2, d3 = _sin_entries(ks, p)
    v_plus = _plus_eigenvector(d1, d2, d3, np.sin(np.arccos(spectral_a(ks, p))))
    turned = np.stack([-v_plus[:, 1], v_plus[:, 0]], axis=1)
    r_minus = np.array([loop_reference.left_eigvecs(k, p)[1].real for k in ks])
    assert np.abs(r_minus[:, 0] * turned[:, 1] - r_minus[:, 1] * turned[:, 0]).max() <= 1e-15


def test_batched_builders_report_first_offending_index():
    import loop_reference
    from ptwalk import BrokenRegime, NotPositive

    # with theta1 = theta2 every gamma > 0 breaks the spectrum around k = +-pi/2:
    # here at the momenta 5, 6, 15 and 16 of the grid, and every metric refuses
    # the walk naming the first of them
    p = WalkParams(0.6, 0.6, 0.5, 21)
    ks = momentum_grid(21)
    assert np.flatnonzero(np.abs(spectral_a(ks, p)) >= 1 - 1e-12).tolist() == [5, 6, 15, 16]
    for spec in (FLAT, MetricSpec(kind="random_xy", seed=23)):
        with pytest.raises(BrokenRegime) as batched:
            walk_alone(p, spec)
        with pytest.raises(BrokenRegime) as looped:
            for k in ks:
                loop_reference.left_eigvecs(k, p)
        assert str(batched.value).split(")|")[0] == str(looped.value).split(")|")[0] == f"|a({ks[5]:.6f}"

    # negative y weights make blocks 3 and 9 indefinite
    q = params(math.log(1.2))
    ys = [1.0] * 21
    ys[3] = ys[9] = -0.5
    spec = MetricSpec(kind="explicit", y=tuple(ys))
    with pytest.raises(NotPositive) as batched:
        walk_alone(q, spec)[0]
    with pytest.raises(NotPositive) as looped:
        loop_reference.unitary_frame(loop_reference.metric_blocks(q, spec), walk_blocks(q))
    assert str(looped.value) == "metric block 3 not positive definite"
    assert str(batched.value) == "metric block 3 of explicit not positive definite"


def test_euclidean_walk_health_fields():
    p = params(math.log(1.3), 101)
    ew, g = walk_alone(p, MetricSpec(kind="random_xy", seed=11))
    a = spectral_a(momentum_grid(101), p)
    assert ew.ep_gap == pytest.approx(float((1 - np.abs(a)).min()), abs=1e-15)
    conds = [np.linalg.cond(b) for b in g]
    assert ew.metric_condition_max[0] == pytest.approx(max(conds), rel=1e-9)
    flat = walk_alone(params(0.0), FLAT)[0]
    assert flat.metric_condition_max[0] == 1.0


@pytest.mark.parametrize("fraction", [0.9, 0.9999, 1 - 1e-7, 1 - 1e-9])
@pytest.mark.parametrize("spec", [FLAT, MetricSpec(kind="random_xy", seed=11)])
def test_unitary_frame_near_exceptional_point(fraction, spec):
    # the axes read from the arc against R = eta S eta^-1 in extended
    # precision, as gamma approaches gamma_pt: cond G reaches 1.3e9, where the
    # float64 eta^-1 route is off by up to 4.4e-14 in M(t) (measured gap <= 1.7e-15)
    import loop_reference

    p = params(fraction * gamma_pt(T1, T2), 101)
    ew, g = walk_alone(p, spec)
    assert ew.pseudo_hermiticity_residual[0] <= 1e-14
    oracle = loop_reference.bloch_matrices_extended(p, spec, ew.eps, np.arange(51))
    gap = np.abs(bloch_matrix_series(ew, 50)[0] - oracle).max()
    assert gap <= 1e-14
    w = np.linalg.eigvalsh(g)
    cond = float((w[:, 1] / w[:, 0]).max())
    assert abs(ew.metric_condition_max[0] - cond) <= (1e-9 if cond <= 1e6 else 1e-6) * cond


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9, 0.9999])
def test_walk_block_is_a_minus_i_sin_h(fraction):
    # W_c(k) = a(k) I - i S(k) with the real S = sin H_c(k) from the metric's d1, d2, d3
    from ptwalk.channel import _sin_entries

    p = params(fraction * gamma_pt(T1, T2), 1201)
    ks = momentum_grid(1201)
    d1, d2, d3 = _sin_entries(ks, p)
    s = np.stack([-d3, -(d1 + d2), -(d1 - d2), d3], axis=1).reshape(-1, 2, 2)
    expected = spectral_a(ks, p)[:, None, None] * np.eye(2) - 1j * s
    assert np.abs(walk_blocks(p) - expected).max() <= 1e-15


@pytest.mark.parametrize("size, t_max", [(101, 50), (1201, 600)])
def test_bloch_yy_is_metric_free(size, t_max):
    # every axis lies in the x-z plane, so M_yy(t) = (1/L) sum_k cos(2 t eps_k);
    # with |n_k| = 1, tr M(t) and M_xx + M_zz carry no metric term either, and
    # all three are bitwise equal across G1-G3
    specs = (FLAT, MetricSpec(kind="random_xy", seed=11), MetricSpec(kind="random_xy", seed=23))
    for factor in (1.2, 1.3):
        p = params(math.log(factor), size)
        series = bloch_matrix_series(build_euclidean_walk(p, specs)[0], t_max)
        for part in (series[:, :, 1, 1], np.trace(series, axis1=2, axis2=3), series[:, :, 0, 0] + series[:, :, 2, 2]):
            flat, *others = part
            assert all(np.array_equal(m, flat) for m in others)
        eps = np.arccos(spectral_a(momentum_grid(size), p))
        yy = np.cos(2.0 * np.multiply.outer(np.arange(t_max + 1), eps)).mean(axis=1)
        assert np.abs(series[0, :, 1, 1] - yy).max() <= 1e-14


def test_pseudo_hermiticity_residual_flags_an_incompatible_metric(monkeypatch):
    # positive blocks not built from the left eigenvectors break S^T G = G S,
    # the property that makes W_eta unitary
    import loop_reference
    import ptwalk.channel

    p = params(math.log(1.2), 101)
    assert walk_alone(p, FLAT)[0].pseudo_hermiticity_residual[0] <= 1e-14
    rng = np.random.default_rng(46)

    def random_unit_rows(*_):
        v = rng.normal(size=(101, 2))
        return v / np.linalg.norm(v, axis=1)[:, None]

    monkeypatch.setattr(ptwalk.channel, "_plus_eigenvector", random_unit_rows)
    ew, spd = walk_alone(p, FLAT)
    assert ew.pseudo_hermiticity_residual[0] > 1e-3
    residual = loop_reference.pseudo_hermiticity_residual(spd, walk_blocks(p))
    assert ew.pseudo_hermiticity_residual[0] == pytest.approx(residual, rel=1e-12)


@pytest.mark.parametrize("gamma_factor", [1.2, 1.3])
def test_flat_metric_reduced_map_converges_in_lattice_size(gamma_factor):
    # G1 is a smooth function of k, so M(t) is a converged momentum average
    # once the light cone fits. random_xy draws fresh weights at every grid
    # point, white noise in k, so its metrics at different L are different
    # metrics and M(t) keeps moving with L.
    def series(spec, size):
        return bloch_matrix_series(walk_alone(params(math.log(gamma_factor), size), spec)[0], 20)[0]

    for spec, converged in ((FLAT, True), (MetricSpec(kind="random_xy", seed=11), False)):
        reference = series(spec, 801)
        for size in (201, 401):
            gap = np.abs(series(spec, size) - reference).max()
            assert gap <= 1e-9 if converged else gap >= 1e-3, (spec.kind, size, gap)
