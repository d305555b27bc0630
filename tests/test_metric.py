import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loop_reference import (
    IncompatibleMetrics,
    SingularMetric,
    eig,
    g_trace_norm,
    generalized_dagger,
    hamiltonian_blocks,
    herm_sqrt,
    metric_root,
    metric_transport,
    separability_defect,
    verify_metric_action,
    walk_alone,
    walk_block,
)
from ptwalk import (
    BrokenRegime,
    MetricSpec,
    WalkParams,
    gamma_pt,
    is_unbroken,
)
from ptwalk.channel import _plus_eigenvector, _sin_entries, bloch_matrix_series, trace_norm
from ptwalk.experiments import write_metric_csv
from ptwalk.walk import momentum_grid, spectral_a

T1, T2 = math.pi / 4, -math.pi / 7


def params(gamma, size=21):
    return WalkParams(T1, T2, gamma, size)


def left_eigvecs(k, p):
    """r_plus, r_minus and eps_k of H_c(k)† at one momentum, from the library's grid readout.

    r_plus is read off S^T, which is S with d2 -> -d2, and r_minus is J v_plus,
    the +sin(eps_k) eigenvector v_plus of S turned by 90 degrees.
    """
    ks = np.array([k], dtype=float)
    eps = np.arccos(np.clip(spectral_a(ks, p), -1.0, 1.0))
    d1, d2, d3 = _sin_entries(ks, p)
    r_plus = _plus_eigenvector(d1, -d2, d3, np.sin(eps))[0]
    v_plus = _plus_eigenvector(d1, d2, d3, np.sin(eps))[0]
    return SimpleNamespace(r_plus=r_plus, r_minus=np.array([-v_plus[1], v_plus[0]]), eps_k=float(eps[0]))


def random_pseudo_hermitian(rng, n):
    """Random (G, H) with H† G = G H: H = G^{-1} M for Hermitian M, PD G."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = a @ a.conj().T + n * np.eye(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (m + m.conj().T) / 2
    h = np.linalg.solve(g, m)
    return g, h


# ---------------------------------------------------------------- left_eigvecs


def test_left_eigvecs_are_adjoint_eigenvectors():
    p = params(0.2, 101)
    for k in momentum_grid(101)[::7]:
        pair = left_eigvecs(k, p)
        vals, vecs = np.linalg.eig(walk_block(k, p))
        h = (vecs * (1j * np.log(vals))) @ np.linalg.inv(vecs)
        hd = h.conj().T
        assert np.linalg.norm(hd @ pair.r_plus - pair.eps_k * pair.r_plus) < 1e-9
        assert np.linalg.norm(hd @ pair.r_minus + pair.eps_k * pair.r_minus) < 1e-9
        assert abs(np.linalg.norm(pair.r_plus) - 1.0) < 1e-12
        assert abs(np.linalg.norm(pair.r_minus) - 1.0) < 1e-12
        assert 0.0 < pair.eps_k < np.pi


def test_left_eigvecs_orthogonal_in_hermitian_limit():
    pair = left_eigvecs(0.5, params(0.0))
    assert abs(np.vdot(pair.r_plus, pair.r_minus)) < 1e-10


def test_left_eigvecs_nonorthogonal_when_nonhermitian():
    pair = left_eigvecs(0.5, params(0.2))
    assert abs(np.vdot(pair.r_plus, pair.r_minus)) > 1e-3


def test_left_eigvecs_match_numerical_eig():
    # oracle: dense eigendecomposition of H†, matching up to scale and phase
    p = params(0.17)
    for k in (-2.0, -0.3, 0.9, 2.7):
        pair = left_eigvecs(k, p)
        vals, vecs = np.linalg.eig(walk_block(k, p))
        h = (vecs * (1j * np.log(vals))) @ np.linalg.inv(vecs)
        lvals, lvecs = np.linalg.eig(h.conj().T)
        for r, target in ((pair.r_plus, pair.eps_k), (pair.r_minus, -pair.eps_k)):
            j = int(np.argmin(np.abs(lvals - target)))
            v = lvecs[:, j] / np.linalg.norm(lvecs[:, j])
            assert abs(abs(np.vdot(v, r)) - 1.0) < 1e-9


def test_pick_breaks_ties_toward_the_first_form_and_component():
    # rows: equal norms (the first form wins), equal magnitudes with a
    # negative first component, a negative lead beside a zero, equal
    # magnitudes with a positive first component; bit for bit the per-row oracle.
    # The forms (d1 + d2, -d3 - s) and (d3 - s, d1 - d2) are set to the rows
    # of a and b, all exact in these small halves.
    import loop_reference

    a = np.array([[3.0, 4.0], [-3.0, 3.0], [0.0, -2.0], [1.0, -1.0]])
    b = np.array([[4.0, 3.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    d1, d2 = (a[:, 0] + b[:, 1]) / 2, (a[:, 0] - b[:, 1]) / 2
    d3, s = (b[:, 0] - a[:, 1]) / 2, -(a[:, 1] + b[:, 0]) / 2
    got = _plus_eigenvector(d1, d2, d3, s)
    want = np.array([loop_reference._pick(x, y) for x, y in zip(a, b)])
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), [[False, False], [False, True], [True, False], [False, True]])


def test_left_eigvecs_robust_at_formula_degeneracy():
    # at cos(2k) where d1 + d2 = 0 one closed-form readout collapses; the
    # complementary readout must keep the residual tiny
    p = params(math.log(1.2), 101)
    coef = (
        math.sin(T2) * (math.sinh(2 * p.gamma) - math.cosh(2 * p.gamma) * math.cos(T1))
    ) / (math.sin(T1) * math.cos(T2))
    k_bad = 0.5 * math.acos(coef)
    pair = left_eigvecs(k_bad, p)
    vals, vecs = np.linalg.eig(walk_block(k_bad, p))
    h = (vecs * (1j * np.log(vals))) @ np.linalg.inv(vecs)
    assert np.linalg.norm(h.conj().T @ pair.r_plus - pair.eps_k * pair.r_plus) < 1e-9
    assert np.linalg.norm(h.conj().T @ pair.r_minus + pair.eps_k * pair.r_minus) < 1e-9


def test_left_eigvecs_degenerate_at_exceptional_momentum():
    # theta2 = -theta1 at gamma = 0 coalesces at k_0 = -pi: only the flat
    # metric, exactly I/2 there, is admitted
    p = WalkParams(0.6, -0.6, 0.0, 21)
    with pytest.raises(BrokenRegime, match=r"^\|a\(-3\.141593\)\| = "):
        walk_alone(p, MetricSpec(kind="random_xy", seed=1))
    flat = walk_alone(p, MetricSpec(kind="g1_flat"))[1]
    assert np.array_equal(flat, np.tile(np.eye(2) / 2, (21, 1, 1)))


# ---------------------------------------------------------------- build_metric


def test_build_metric_flat_hermitian_limit_is_maximally_mixed():
    g = walk_alone(params(0.0), MetricSpec(kind="g1_flat"))[1]
    for b in g:
        assert np.abs(b - np.eye(2) / 2).max() < 1e-12


def test_build_metric_blocks_valid_and_pseudo_hermitian():
    p = params(math.log(1.2), 101)
    h = hamiltonian_blocks(p)
    for spec in (MetricSpec(kind="g1_flat"), MetricSpec(kind="random_xy", seed=7)):
        g = walk_alone(p, spec)[1]
        for gb, hb in zip(g, h):
            assert np.abs(gb - gb.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(gb).min() > 0
            assert abs(np.trace(gb).real - 1.0) < 1e-12
            assert np.linalg.norm(hb.conj().T @ gb - gb @ hb) <= 1e-9
        assert any(np.abs(gb - np.eye(2) / 2).max() > 1e-3 for gb in g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    theta1=st.floats(0.1, 1.4),
    theta2=st.floats(-1.4, -0.1),
    fraction=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**31),
)
def test_metric_pseudo_hermitian_and_hermitian_limit_metric_blind_property(theta1, theta2, fraction, seed):
    # H_c† G = G H_c blockwise up to roundoff relative to |H_c| |G|, anywhere
    # below the exceptional point; at gamma = 0 every metric takes its axes
    # from S, so the reduced maps M(t) of the flat and two random metrics are
    # the same floats.
    p = WalkParams(theta1, theta2, fraction * gamma_pt(theta1, theta2), 101)
    assume(is_unbroken(p))
    h = hamiltonian_blocks(p)
    g = walk_alone(p, MetricSpec(kind="random_xy", seed=seed))[1]
    residual = np.linalg.norm(h.conj().swapaxes(1, 2) @ g - g @ h, axis=(1, 2))
    scale = np.linalg.norm(h, axis=(1, 2)) * np.linalg.norm(g, axis=(1, 2))
    assert (residual / scale).max() <= 1e-10
    unitary = WalkParams(theta1, theta2, 0.0, 101)
    assume(is_unbroken(unitary))
    flat, *others = (
        bloch_matrix_series(walk_alone(unitary, spec)[0], 50)[0]
        for spec in (
            MetricSpec(kind="g1_flat"),
            MetricSpec(kind="random_xy", seed=seed),
            MetricSpec(kind="random_xy", seed=seed + 1),
        )
    )
    assert all(np.array_equal(m, flat) for m in others)


@pytest.mark.parametrize(
    "fraction, spec",
    [
        (0.0, MetricSpec(kind="g1_flat")),
        (0.5, MetricSpec(kind="g1_flat")),
        (0.5, MetricSpec(kind="random_xy", seed=11)),
        (0.5, MetricSpec(kind="explicit", y=tuple(np.linspace(2.0, 0.3, 101)))),
        (0.9999, MetricSpec(kind="g1_flat")),
        (0.9999, MetricSpec(kind="random_xy", seed=11)),
    ],
)
def test_build_metric_blocks_are_real_symmetric(fraction, spec):
    # the left eigenvectors are real, so every block is real, and the
    # products r_i r_j = r_j r_i make g12 and g21 the same float
    g = walk_alone(params(fraction * gamma_pt(T1, T2), 101), spec)[1]
    assert g.dtype == np.float64
    assert np.array_equal(g[:, 0, 1], g[:, 1, 0])
    assert np.abs(np.trace(g, axis1=1, axis2=2) - 1.0).max() <= 1e-15


def test_build_metric_deterministic_from_seed():
    p = params(0.1)
    a = walk_alone(p, MetricSpec(kind="random_xy", seed=7))[1]
    b = walk_alone(p, MetricSpec(kind="random_xy", seed=7))[1]
    assert np.array_equal(a, b)
    c = walk_alone(p, MetricSpec(kind="random_xy", seed=8))[1]
    assert np.abs(a - c).max() > 1e-6


@pytest.mark.parametrize("size", [5, 101, 4001])
def test_random_xy_weight_is_the_second_of_each_seeded_pair(size):
    # y(k) is column 1 of the seeded (L, 2) draw, the table a seed has always
    # given: the axes, M(t) and every series of a random_xy metric rest on it
    spec = MetricSpec(kind="random_xy", seed=11, low=0.3, high=1.7)
    y = np.random.default_rng(11).uniform(0.3, 1.7, (size, 2))[:, 1]
    assert np.array_equal(spec.weights(size), y)
    p = params(math.log(1.3), size)
    drawn = walk_alone(p, spec)[0]
    given = walk_alone(p, MetricSpec(kind="explicit", y=tuple(y.tolist())))[0]
    assert np.array_equal(drawn.n_x, given.n_x) and np.array_equal(drawn.n_z, given.n_z)


def test_build_metric_explicit_tables():
    p = params(0.1, 5)
    ys = (0.5, 1.0, 1.5, 2.0, 0.7)
    g = walk_alone(p, MetricSpec(kind="explicit", y=ys))[1]
    assert g.shape == (5, 2, 2)


def test_build_metric_refuses_broken():
    with pytest.raises(BrokenRegime):
        walk_alone(params(math.log(1.5)), MetricSpec(kind="g1_flat"))


def test_metric_spec_validation():
    with pytest.raises(ValueError):
        MetricSpec(kind="random_xy")
    with pytest.raises(ValueError):
        MetricSpec(kind="nope")


def test_metric_spec_dict_roundtrip():
    for spec in (
        MetricSpec(kind="g1_flat", name="G1"),
        MetricSpec(kind="random_xy", seed=11, low=0.5, high=1.5),
        MetricSpec(kind="explicit", y=(0.5, 0.5, 2.0)),
    ):
        assert MetricSpec.from_dict(spec.to_dict()) == spec


def test_eta_squares_back():
    p = params(math.log(1.2))
    g = walk_alone(p, MetricSpec(kind="random_xy", seed=3))[1]
    e = metric_root(g)
    for eb, gb in zip(e, g):
        assert np.abs(eb @ eb - gb).max() < 1e-10
        assert np.linalg.eigvalsh(eb).min() > 0


def test_eta_scales_as_sqrt():
    p = params(0.12, 5)
    g = walk_alone(p, MetricSpec(kind="g1_flat"))[1]
    scaled = metric_root(4.0 * g)
    assert np.abs(scaled - 2.0 * metric_root(g)).max() < 1e-12


# --------------------------------------------------------- generalized algebra


def test_generalized_dagger_euclidean_limit():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(generalized_dagger(x, np.eye(3)) - x.conj().T).max() < 1e-14


def test_generalized_dagger_involution_and_fixed_points():
    rng = np.random.default_rng(21)
    g, h = random_pseudo_hermitian(rng, 3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(generalized_dagger(generalized_dagger(x, g), g) - x).max() < 1e-10
    # pseudo-Hermitian h is its own generalized adjoint
    assert np.abs(generalized_dagger(h, g) - h).max() < 1e-10


def test_generalized_dagger_unitarity_of_evolution():
    rng = np.random.default_rng(22)
    g, h = random_pseudo_hermitian(rng, 3)
    vals, vecs = np.linalg.eig(h)
    u = (vecs * np.exp(-1j * vals * 0.7)) @ np.linalg.inv(vecs)
    assert np.abs(generalized_dagger(u, g) @ u - np.eye(3)).max() < 1e-9


def test_generalized_dagger_singular_metric():
    with pytest.raises(SingularMetric):
        generalized_dagger(np.eye(2), np.diag([1.0, 0.0]))


def test_g_trace_norm_euclidean_limit_and_scaling():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(g_trace_norm(x, np.eye(3)) - trace_norm(x)) < 1e-10
    g, _ = random_pseudo_hermitian(rng, 3)
    assert g_trace_norm(-2.5 * x, g) == pytest.approx(2.5 * g_trace_norm(x, g), rel=1e-12)


def test_g_trace_norm_of_metric_space_state_is_one():
    # metric-space states rho G, normalized to unit trace, have G-norm one
    rng = np.random.default_rng(24)
    g, _ = random_pseudo_hermitian(rng, 3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho @ g).real
    assert g_trace_norm(rho @ g, g) == pytest.approx(1.0, abs=1e-10)


def test_g_trace_norm_rejects_non_positive_metric():
    x = np.eye(2, dtype=complex)
    for g in (np.diag([1.0, -1e-3]), np.diag([1.0, 0.0])):
        with pytest.raises(SingularMetric):
            g_trace_norm(x, g)


# ---------------------------------------------------------------- transports


def test_metric_transport_identity():
    p = params(math.log(1.2))
    g = walk_alone(p, MetricSpec(kind="random_xy", seed=5))[1]
    h = hamiltonian_blocks(p)
    tr = metric_transport(g, g, h)
    for tb, ub in zip(tr.t, tr.u):
        assert np.abs(tb - np.eye(2)).max() < 1e-9
        assert np.abs(ub - np.eye(2)).max() < 1e-9


def test_metric_transport_posts():
    p = params(math.log(1.2))
    g = walk_alone(p, MetricSpec(kind="g1_flat"))[1]
    gp = walk_alone(p, MetricSpec(kind="random_xy", seed=5))[1]
    h = hamiltonian_blocks(p)
    tr = metric_transport(g, gp, h)
    e, ep = herm_sqrt(g), herm_sqrt(gp)
    for i in range(len(g)):
        tb, ub, hb = tr.t[i], tr.u[i], h[i]
        assert np.linalg.norm(tb @ hb - hb @ tb) <= 1e-9
        assert np.linalg.norm(ub.conj().T @ ub - np.eye(2)) <= 1e-9
        assert np.linalg.norm(tb.conj().T @ g[i] @ tb - gp[i]) <= 1e-9
        assert np.linalg.norm(ep[i] - ub @ e[i] @ tb) <= 1e-9


def test_metric_transport_maps_observables_unitarily():
    # H mapped through either square root must be conjugate by the transport unitary
    p = params(math.log(1.2), 21)
    g = walk_alone(p, MetricSpec(kind="g1_flat"))[1]
    gp = walk_alone(p, MetricSpec(kind="random_xy", seed=5))[1]
    h = hamiltonian_blocks(p)
    tr = metric_transport(g, gp, h)
    for i in range(len(g)):
        w1, v1 = np.linalg.eigh(g[i])
        w2, v2 = np.linalg.eigh(gp[i])
        eb = (v1 * np.sqrt(w1)) @ v1.conj().T
        epb = (v2 * np.sqrt(w2)) @ v2.conj().T
        h_eta = eb @ h[i] @ np.linalg.inv(eb)
        h_etap = epb @ h[i] @ np.linalg.inv(epb)
        ub = tr.u[i]
        assert np.abs(h_etap - ub @ h_eta @ ub.conj().T).max() < 1e-8


def test_metric_transport_incompatible():
    p = params(math.log(1.2), 5)
    g = walk_alone(p, MetricSpec(kind="g1_flat"))[1]
    h = hamiltonian_blocks(p)
    bogus = np.tile(np.diag([0.9, 0.1]).astype(complex), (5, 1, 1))
    with pytest.raises(IncompatibleMetrics):
        metric_transport(g, bogus, h)


# ------------------------------------------------------- defect and identities


def test_separability_defect_zero_cases():
    g0 = walk_alone(params(0.0, 101), MetricSpec(kind="g1_flat"))[1]
    assert separability_defect(g0) <= 1e-12
    b = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    const = np.tile(b, (101, 1, 1))
    assert separability_defect(const) < 1e-14


def test_separability_defect_positive_when_nonhermitian():
    g = walk_alone(params(math.log(1.2), 101), MetricSpec(kind="g1_flat"))[1]
    assert separability_defect(g) > 1e-3


def test_verify_metric_action():
    rng = np.random.default_rng(30)
    assert verify_metric_action(np.eye(3), np.eye(3)) < 1e-12
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = a @ a.conj().T + 3 * np.eye(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    # eta^-1 q is orthonormal in the G inner product; q itself is not
    xi = np.linalg.inv(herm_sqrt(g)) @ q
    assert verify_metric_action(g, xi, n_samples=16, seed=1) <= 1e-10
    assert verify_metric_action(g, q, n_samples=16, seed=1) > 1e-2
    g2 = np.diag([2.0, 3.0])
    psi = np.array([1.0, 0.0])
    assert np.allclose(g2 @ psi, [2.0, 0.0])


def test_metric_csv_export(tmp_path):
    g = walk_alone(params(0.1, 5), MetricSpec(kind="random_xy", seed=2))[1]
    path = tmp_path / "metric.csv"
    write_metric_csv(g[:, 0, 0], g[:, 0, 1], g[:, 1, 1], list(map(repr, momentum_grid(5).tolist())), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("k,re_g11")


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("spec", [MetricSpec(kind="g1_flat"), MetricSpec(kind="random_xy", seed=11)])
def test_metric_csv_matches_value_by_value_writer(tmp_path, spec):
    import loop_reference

    g = walk_alone(params(math.log(1.2), 4001), spec)[1]
    ks = momentum_grid(4001)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_metric_csv(g[:, 0, 0], g[:, 0, 1], g[:, 1, 1], list(map(repr, ks.tolist())), new, comment="gamma_factor=1.2 audit")
    loop_reference.write_metric_csv(ks, g, old, comment="gamma_factor=1.2 audit")
    assert _sha256(new) == _sha256(old)


def test_metric_csv_matches_value_by_value_writer_on_edge_values(tmp_path):
    import loop_reference

    g = np.array(
        [
            [[-0.0, 1e-300], [1e-300, 1e16]],
            [[5e-324, 1e308], [1e308, 1.0 / 3.0]],
            [[1.0 / 3.0, -0.0], [-0.0, 5e-324]],
        ]
    )
    ks = np.array([-0.0, 1e16, 1.0 / 3.0])
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_metric_csv(g[:, 0, 0], g[:, 0, 1], g[:, 1, 1], list(map(repr, ks.tolist())), new)
    loop_reference.write_metric_csv(ks, g, old)
    assert _sha256(new) == _sha256(old)
    text = new.read_text()
    assert all(v in text for v in ("-0.0", "1e-300", "1e+16", "5e-324", "1e+308", "0.3333333333333333"))


def test_metric_csv_refuses_a_short_momentum_column(tmp_path):
    g = walk_alone(params(0.1, 5), MetricSpec(kind="random_xy", seed=2))[1]
    k_column = list(map(repr, momentum_grid(5).tolist()))
    path = tmp_path / "metric.csv"
    with pytest.raises(ValueError, match="momentum column has 4 entries for 5 blocks"):
        write_metric_csv(g[:, 0, 0], g[:, 0, 1], g[:, 1, 1], k_column[:4], path)
    assert not path.exists()


# --------------------------------------------- appendix-style global identities


def test_trace_is_metric_independent():
    # trace evaluated in the biorthogonal basis of the metric space equals
    # the Euclidean trace, for random pseudo-Hermitian instances
    rng = np.random.default_rng(31)
    for _ in range(25):
        g, h = random_pseudo_hermitian(rng, 3)
        sys = eig(h)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        tr_g = sum(np.vdot(sys.left[:, i], a @ sys.right[:, i]) for i in range(3))
        assert abs(tr_g - np.trace(a)) < 1e-9


def test_expectation_is_metric_independent():
    rng = np.random.default_rng(32)
    for _ in range(10):
        g, h = random_pseudo_hermitian(rng, 3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho_bar = rho @ g
        w, v = np.linalg.eigh(g)
        e = (v * np.sqrt(w)) @ v.conj().T
        e_inv = (v / np.sqrt(w)) @ v.conj().T
        h_eta = e @ h @ e_inv
        rho_eta = e @ rho @ e
        assert abs(np.trace(h @ rho_bar) - np.trace(h_eta @ rho_eta)) < 1e-9 * max(
            1.0, abs(np.trace(h @ rho_bar))
        )


def test_norm_conservation_under_walk():
    # <psi(t)| G(k) |psi(t)> is constant under the non-unitary walk block
    p = params(math.log(1.2), 101)
    g = walk_alone(p, MetricSpec(kind="random_xy", seed=9))[1]
    rng = np.random.default_rng(33)
    ks = momentum_grid(101)
    for i in (0, 17, 50):
        w = walk_block(ks[i], p)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        ref = np.vdot(psi, g[i] @ psi).real
        for _ in range(50):
            psi = w @ psi
        cur = np.vdot(psi, g[i] @ psi).real
        assert abs(cur - ref) <= 1e-9 * max(1.0, abs(ref))
