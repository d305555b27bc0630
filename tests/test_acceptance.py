"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; the whole suite covers the library's headline guarantees at their
stated tolerances.
"""

import math

import numpy as np
import pytest

from loop_reference import (
    eig,
    hamiltonian_blocks,
    herm_sqrt,
    separability_defect,
    verify_metric_action,
    walk_alone,
    walk_block,
)
from ptwalk import (
    AnnealSchedule,
    MetricSpec,
    ToyConfig,
    WalkParams,
    blp_series,
    run_toy,
    rhp_series,
)
from channel_reference import (
    channel_matrix_series,
    choi_matrix,
    intermediate_from,
    reduced_coin_state,
    vec,
)
from ptwalk.channel import _sin_entries, bloch_matrix_series, choi_trace_norms, intermediate_maps, trace_norm
from ptwalk.experiments import TOLERANCES
from ptwalk.measures import maximize_blp_many
from ptwalk.walk import momentum_grid, spectral_a
from test_channel import dense_reduced_state

T1, T2 = math.pi / 4, -math.pi / 7
FACTORS = (1.0, 1.2, 1.3)
SPECS = (
    MetricSpec(kind="g1_flat", name="G1"),
    MetricSpec(kind="random_xy", seed=11, name="G2"),
    MetricSpec(kind="random_xy", seed=23, name="G3"),
)
T_MAX = 50


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def grid_walks():
    return {
        (factor, spec.label): walk_alone(
            WalkParams(T1, T2, math.log(factor), 101), spec
        )[0]
        for factor in FACTORS
        for spec in SPECS
    }


@pytest.fixture(scope="module")
def grid_channels(grid_walks):
    return {key: channel_matrix_series(ew, T_MAX) for key, ew in grid_walks.items()}


@pytest.fixture(scope="module")
def grid_blochs(grid_walks):
    return {key: bloch_matrix_series(ew, T_MAX)[0] for key, ew in grid_walks.items()}


@pytest.fixture(scope="module")
def rhp_curves(grid_blochs):
    return {key: rhp_series(m).rhp for key, m in grid_blochs.items()}


@pytest.fixture(scope="module")
def entropy_curves(grid_blochs):
    from ptwalk import entanglement_series

    return {key: entanglement_series(m, (0.0, 1.0, 0.0)).entropy for key, m in grid_blochs.items()}


def _spread(curves):
    return max(
        float(np.abs(a - b).max()) for i, a in enumerate(curves) for b in curves[i + 1 :]
    )


def test_criterion_01_exceptional_point_formula():
    from ptwalk import gamma_pt

    g = gamma_pt(T1, T2)
    factor = math.exp(g)
    a0 = spectral_a(0.0, WalkParams(T1, T2, g, 101))
    ok = 1.345 <= factor <= 1.355 and abs(a0 - 1.0) <= 1e-10
    _report(1, "exceptional-point formula", ok, f"e^gamma_pt={factor:.5f}, a(0)-1={a0 - 1:.2e}")


def test_criterion_02_block_vs_dense_oracle():
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    worst = 0.0
    for gamma in (0.0, 0.1, 0.18):
        for spec in (SPECS[0], SPECS[1]):
            p = WalkParams(T1, T2, gamma, 21)
            ew = walk_alone(p, spec)[0]
            for t in (1, 5, 10):
                fast = reduced_coin_state(ew, rho0, t)
                slow = dense_reduced_state(p, spec, rho0, t)
                worst = max(worst, float(np.abs(fast - slow).max()))
    _report(2, "block vs dense-lattice oracle", worst < 1e-9, f"max elementwise diff {worst:.2e}")


def test_criterion_03_pseudo_hermiticity_suite():
    worst_ph, worst_sq = 0.0, 0.0
    for factor in (1.2, 1.3):
        p = WalkParams(T1, T2, math.log(factor), 101)
        h = hamiltonian_blocks(p)
        for spec in SPECS:
            g = walk_alone(p, spec)[1]
            for gb, hb in zip(g, h):
                worst_ph = max(
                    worst_ph, float(np.linalg.norm(hb.conj().T @ gb - gb @ hb))
                )
                e = herm_sqrt(gb)
                worst_sq = max(worst_sq, float(np.abs(e @ e - gb).max()))
    ok = worst_ph <= 1e-9 and worst_sq <= 1e-10
    _report(3, "pseudo-Hermiticity suite", ok, f"|H†G-GH|={worst_ph:.2e}, |eta^2-G|={worst_sq:.2e}")


def test_criterion_04_hermitian_metric_independence(rhp_curves, entropy_curves):
    rhp_spread = _spread([rhp_curves[(1.0, s.label)] for s in SPECS])
    ent_spread = _spread([entropy_curves[(1.0, s.label)] for s in SPECS])
    # every metric reads the gamma = 0 axes from S alone: the curves are the same floats
    ok = rhp_spread == 0.0 and ent_spread == 0.0
    _report(
        4,
        "Hermitian-case metric independence",
        ok,
        f"I_RHP spread {rhp_spread:.2e}, S spread {ent_spread:.2e}",
    )


def test_criterion_05_nonhermitian_metric_dependence(rhp_curves, entropy_curves):
    # the Hermitian spread is exactly 0, so the ratio is taken to its tolerance, as report does
    floor = TOLERANCES["hermitian_metric_spread"]
    base_rhp = max(_spread([rhp_curves[(1.0, s.label)] for s in SPECS]), floor)
    base_ent = max(_spread([entropy_curves[(1.0, s.label)] for s in SPECS]), floor)
    details, ok = [], True
    for factor in (1.2, 1.3):
        r = _spread([rhp_curves[(factor, s.label)] for s in SPECS])
        e = _spread([entropy_curves[(factor, s.label)] for s in SPECS])
        ok = ok and r > 1e3 * base_rhp and e > 1e3 * base_ent
        details.append(f"e^g={factor}: I_RHP x{r / base_rhp:.1e}, S x{e / base_ent:.1e}")
    _report(5, "non-Hermitian metric dependence", ok, "; ".join(details))


def test_criterion_06_blp_metric_independence(grid_blochs):
    schedule = AnnealSchedule()
    details, ok = [], True
    for factor in FACTORS:
        values = [
            series.meta["n_max"]
            for series in maximize_blp_many([grid_blochs[(factor, s.label)] for s in SPECS], schedule, 2024)
        ]
        spread = max(values) - min(values)
        ok = ok and spread <= 2e-2
        details.append(f"e^g={factor}: spread {spread:.2e}")
    _report(6, "BLP metric independence", ok, "; ".join(details))


def test_criterion_07_blp_positive_for_unitary_walk(grid_blochs):
    series = blp_series(grid_blochs[(1.0, "G1")], (0, 0, 1.0), (0, 0, -1.0))
    n50 = float(series.blp[-1])
    _report(7, "backflow positive at gamma=0", n50 > 0.0, f"N(50) = {n50:.4f}")


def test_criterion_08_channel_identities(grid_blochs, grid_channels):
    # 3x3 Bloch path of the library
    worst3 = 0.0
    for bloch in grid_blochs.values():
        maps, _, _ = intermediate_maps(bloch)
        worst3 = max(worst3, float(np.abs(maps @ bloch[:-1] - bloch[1:]).max()))
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    rotation = np.array([[np.trace(a @ q @ b @ q.conj().T).real / 2 for b in paulis] for a in paulis])
    pauli_id, pauli_u, pauli_t = choi_trace_norms(np.stack([np.eye(3), rotation, np.diag([1.0, -1.0, 1.0])]))

    # 4x4 channel-matrix oracle
    worst = 0.0
    for channels in grid_channels.values():
        for t in range(T_MAX):
            inter = intermediate_from(channels[t], channels[t + 1])
            back = inter.matrix @ channels[t].matrix
            worst = max(worst, float(np.abs(back - channels[t + 1].matrix).max()))
    tn_id = trace_norm(choi_matrix(np.eye(4)))
    tn_u = trace_norm(choi_matrix(np.kron(q, q.conj())))
    units = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            units[2 * i + j, i, j] = 1.0
    transpose_l = np.stack([vec(units[x].T) for x in range(4)], axis=1)
    tn_t = trace_norm(choi_matrix(transpose_l))
    ok = (
        worst3 <= 1e-8
        and abs(pauli_id - 1.0) <= 1e-10
        and abs(pauli_u - 1.0) <= 1e-10
        and abs(pauli_t - 2.0) <= 1e-10
        and worst <= 1e-8
        and abs(tn_id - 1.0) <= 1e-10
        and abs(tn_u - 1.0) <= 1e-10
        and abs(tn_t - 2.0) <= 1e-10
    )
    _report(
        8,
        "channel-machinery identities",
        ok,
        f"3x3: compose {worst3:.2e}, |choi id|={pauli_id:.12f}, |choi U|={pauli_u:.12f}, "
        f"|choi T|={pauli_t:.12f}; 4x4 oracle: compose {worst:.2e}, |choi id|={tn_id:.12f}, "
        f"|choi U|={tn_u:.12f}, |choi T|={tn_t:.12f}",
    )


def test_criterion_09_toy_example():
    result = run_toy(ToyConfig())
    prod_dev = max(
        float(np.abs(result.entropy[name] - 1.0).max()) for name in ("product1", "product2")
    )
    nonprod_dev = float(np.abs(result.entropy["nonproduct"] - 1.0).max())
    ok = prod_dev <= 1e-9 and nonprod_dev > 1e-3
    _report(
        9,
        "two-qubit toy dichotomy",
        ok,
        f"product max|S-1|={prod_dev:.2e}, nonproduct {nonprod_dev:.2e}",
    )


def test_criterion_10_appendix_properties():
    rng = np.random.default_rng(10)
    worst_tr, worst_exp = 0.0, 0.0
    for _ in range(100):
        n = 3
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = a @ a.conj().T + n * np.eye(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = np.linalg.solve(g, (m + m.conj().T) / 2)
        sys = eig(h)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        tr_g = sum(np.vdot(sys.left[:, i], x @ sys.right[:, i]) for i in range(n))
        worst_tr = max(worst_tr, abs(tr_g - np.trace(x)))
        rho = x @ x.conj().T
        w, v = np.linalg.eigh(g)
        e = (v * np.sqrt(w)) @ v.conj().T
        e_inv = (v / np.sqrt(w)) @ v.conj().T
        lhs = np.trace(h @ (rho @ g))
        rhs = np.trace((e @ h @ e_inv) @ (e @ rho @ e))
        worst_exp = max(worst_exp, abs(lhs - rhs) / max(1.0, abs(lhs)))
    # metric action identity
    aa = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g4 = aa @ aa.conj().T + 4 * np.eye(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    # a G-orthonormal basis eta^-1 q
    action = verify_metric_action(g4, np.linalg.inv(herm_sqrt(g4)) @ q, n_samples=32, seed=3)
    # norm conservation over 50 steps
    p = WalkParams(T1, T2, math.log(1.2), 101)
    g = walk_alone(p, SPECS[2])[1]
    ks = momentum_grid(101)
    worst_norm = 0.0
    for i in (0, 33, 77):
        w_blk = walk_block(ks[i], p)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        ref = np.vdot(psi, g[i] @ psi).real
        for _ in range(50):
            psi = w_blk @ psi
        worst_norm = max(
            worst_norm, abs(np.vdot(psi, g[i] @ psi).real - ref) / max(1.0, abs(ref))
        )
    ok = worst_tr <= 1e-9 and worst_exp <= 1e-9 and action <= 1e-10 and worst_norm <= 1e-9
    _report(
        10,
        "metric-formalism identities",
        ok,
        f"trace {worst_tr:.2e}, expectation {worst_exp:.2e}, action {action:.2e}, norm {worst_norm:.2e}",
    )


def test_criterion_11_separability_defect():
    flat = MetricSpec(kind="g1_flat")
    d0 = separability_defect(walk_alone(WalkParams(T1, T2, 0.0, 101), flat)[1])
    d12 = separability_defect(walk_alone(WalkParams(T1, T2, math.log(1.2), 101), flat)[1])
    ok = d0 <= 1e-12 and d12 > 1e-3
    _report(11, "separability defect", ok, f"gamma=0: {d0:.2e}, e^g=1.2: {d12:.2e}")


def test_criterion_12_no_coin_only_metric():
    # A translation-invariant coin-only metric G_c = [[g00, g01], [g01, g11]]
    # must have S^T G_c = G_c S at every k, whose off-diagonal entry is
    # c(k) = (d1 + d2) g00 - (d1 - d2) g11 - 2 d3 g01. Over the grid, with
    # d1 = c0 + c1 cos 2k, d2 constant and d3 = cos(theta2) sin 2k, the Gram
    # matrix of the rows scaled by 1/sqrt(L) splits into 2 cos^2(theta2) on
    # g01 and a 2x2 block on (g00, g11) with trace 2(<d1^2> + d2^2) and
    # determinant 2 d2^2 c1^2: the constraint has a null vector only at
    # d2 = -sin(theta2) sinh(2 gamma) = 0, where it is G_c = I.
    # Measured at every L: sigma_min <= 2.5e-16 at e^g = 1, 0.18224 at 1.2
    # and 0.25686 at 1.3.
    worst_null, sigma = 0.0, {}
    for size in (21, 101, 1201, 4001):
        for factor in FACTORS:
            p = WalkParams(T1, T2, math.log(factor), size)
            d1, d2, d3 = _sin_entries(momentum_grid(size), p)
            rows = np.stack([d1 + d2, -(d1 - d2), -2.0 * d3], axis=1) / math.sqrt(size)
            _, sv, vh = np.linalg.svd(rows, full_matrices=False)
            if factor == 1.0:
                assert sv[-1] <= 1e-15
                worst_null = max(worst_null, np.abs(np.abs(vh[-1]) - (1.0, 1.0, 0.0) / np.sqrt(2.0)).max())
            else:
                c0 = np.cosh(2 * p.gamma) * np.cos(T1) * np.sin(T2)
                c1 = np.sin(T1) * np.cos(T2)
                trace, det = 2.0 * (c0**2 + c1**2 / 2.0 + d2[0] ** 2), 2.0 * d2[0] ** 2 * c1**2
                assert sv[-1] ** 2 == pytest.approx(trace / 2.0 - math.sqrt(trace**2 / 4.0 - det), rel=1e-12)
            sigma[factor] = max(sigma.get(factor, 0.0), float(sv[-1]))
    ok = (
        worst_null <= 1e-12
        and abs(sigma[1.2] - 0.18224) <= 1e-5
        and abs(sigma[1.3] - 0.25686) <= 1e-5
    )
    _report(
        12,
        "no coin-only metric off the Hermitian point",
        ok,
        f"sigma_min {sigma[1.0]:.1e} (null vector ~ I, off by {worst_null:.1e}), "
        f"e^g=1.2: {sigma[1.2]:.5f}, e^g=1.3: {sigma[1.3]:.5f}",
    )
