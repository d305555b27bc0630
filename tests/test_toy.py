from dataclasses import replace

import numpy as np
import pytest

import loop_reference
from ptwalk import DegeneratePairing, NotPositive, SpectrumNotReal, ToyConfig, run_toy
from ptwalk.toy import _eigenpairs, _frames, _gauge, product_defect, toy_hamiltonians

# spectra +-1.118 and +-1.732: each product +-1.9365 is a double eigenvalue
# of h_A (x) h_B, which a 4x4 eigensolve refuses to pair
COINCIDING = ToyConfig(h_a=[[1j, 1.5], [1.5, -1j]], h_b=[[1j, 2.0], [2.0, -1j]])
# h_b is not PT-symmetric: its eigenvector components differ in magnitude
CUSTOM = ToyConfig(
    h_a=[[np.exp(0.7j), 1.1], [1.1, np.exp(-0.7j)]],
    h_b=[[np.exp(2.3j), 1.4 + 0.1j], [1.4 - 0.1j, np.exp(-2.3j)]],
)
# unequal weights in G_1, so the order in which weights meet eigenvalues shows
WEIGHTED = ToyConfig(weights_a1=(0.6, 1.5), weights_b1=(1.2, 0.8))
TOYS = {"pt_phase": ToyConfig(), "coinciding": COINCIDING, "custom": CUSTOM, "weighted": WEIGHTED}


def test_hamiltonians_have_real_spectrum_in_both_variants():
    for variant in ("pt_phase", "real"):
        h_a, h_b = toy_hamiltonians(variant)
        for h in (h_a, h_b, np.kron(h_a, h_b)):
            assert np.abs(np.linalg.eigvals(h).imag).max() < 1e-10


def test_pt_phase_blocks_are_nonhermitian():
    h_a, h_b = toy_hamiltonians("pt_phase")
    assert np.abs(h_a - h_a.conj().T).max() > 0.5
    h_a_real, _ = toy_hamiltonians("real")
    assert np.abs(h_a_real - h_a_real.conj().T).max() < 1e-15


def test_frame_metrics_are_compatible():
    # the three metrics G = X Sigma^2 X† read off the frames' SVDs
    toy = ToyConfig()
    h = np.kron(*toy.hamiltonians())
    for g in _frames(toy)[1]:
        assert np.abs(g - g.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh((g + g.conj().T) / 2.0).min() > 0
        assert np.abs(h.conj().T @ g - g @ h).max() < 1e-12


def test_product_defect_detects_products():
    rng = np.random.default_rng(60)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert product_defect(np.kron(a, b)) < 1e-12
    mixed = np.kron(a, b) + 0.3 * np.kron(b, a)
    assert product_defect(mixed) > 1e-3


@pytest.mark.parametrize("s", [0.02, 0.25])
@pytest.mark.parametrize("blocks", ["pt_phase", "real", "custom"])
def test_product_exp_matches_taylor_oracle_and_commutes(blocks, s):
    # the program forms the mixed metric T† G_1 T, T = exp(s H), from the
    # weights e^{2 s lambda} w_1 without an exponential; T here is the Taylor oracle
    base = CUSTOM if blocks == "custom" else ToyConfig(variant=blocks)
    toy = replace(base, mixing_strength=s)
    h = np.kron(*toy.hamiltonians())
    _, metrics, _, _ = _frames(toy)
    mixer = loop_reference.expm(s * h)
    oracle = mixer.conj().T @ metrics[0] @ mixer
    # relative to the largest entry: on 'real' at s = 0.25 entries reach 1.6e8
    scale = np.abs(oracle).max()
    assert np.abs(metrics[2] - oracle).max() <= 1e-13 * scale
    assert np.abs(h.conj().T @ metrics[2] - metrics[2] @ h).max() <= 1e-13 * scale * np.abs(h).max()


ORACLE_TOYS = {**TOYS, "real": ToyConfig(variant="real", mixing_strength=0.02, t_max=2.0)}


@pytest.mark.parametrize("toy", ORACLE_TOYS.values(), ids=ORACLE_TOYS.keys())
def test_run_toy_matches_the_transport_oracle(toy):
    # the program's reference state V_1 c, carried and evolved on the route
    # through the mixer exp(sH), per-metric roots, transports and eigh of eta H eta^-1
    state = _frames(toy)[2][0] @ np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    result = run_toy(toy)
    oracle = loop_reference.toy_entropy(toy, state, result.times)
    for name, curve in result.entropy.items():
        assert np.abs(curve - oracle[name]).max() <= 1e-13


def rephased_svd(svd):
    # LAPACK's singular-vector pairs with other phases: column j of X and row
    # j of Y† take opposite unit phases, so X Sigma Y† is unchanged
    def patched(a, *args, **kwargs):
        result = svd(a, *args, **kwargs)
        if not kwargs.get("compute_uv", True):
            return result
        x, sigma, yh = result
        phase = np.exp(1j * (0.4 + 0.9 * np.arange(sigma.shape[-1])))
        return x * phase, sigma, phase.conj()[:, None] * yh

    return patched


@pytest.mark.parametrize("toy", TOYS.values(), ids=TOYS.keys())
def test_run_toy_does_not_depend_on_lapack_eigenvector_conventions(toy, monkeypatch):
    # the program calls no eigensolver (test_no_eigensolver_in_the_program):
    # LAPACK's conventions reach it only through the polar factors' SVD
    want = run_toy(toy).entropy
    monkeypatch.setattr(np.linalg, "svd", rephased_svd(np.linalg.svd))
    got = run_toy(toy).entropy
    for name in want:
        assert np.abs(got[name] - want[name]).max() <= 1e-12


def test_gauge_makes_the_lead_component_real_and_positive():
    # columns: equal magnitudes (a PT-symmetric block's eigenvector), a first
    # component above half the second, and one below it
    right = np.array([[1j, 0.6 * np.exp(2j), 0.4j], [np.exp(0.3j), -1.0, 1.0]])
    right = np.concatenate([right, right * np.exp(1.1j)], axis=1)
    fixed = right * _gauge(right)
    assert np.abs(np.abs(fixed) - np.abs(right)).max() <= 1e-15
    lead = fixed[[0, 0, 1, 0, 0, 1], np.arange(6)]
    assert np.abs(lead.imag).max() <= 1e-15 and lead.real.min() > 0
    assert np.abs(fixed[:, :3] - fixed[:, 3:]).max() <= 1e-15


def random_pt_blocks(seed, n=24):
    # h = [[a, b], [conj b, conj a]] commutes with PT = sigma_x K; its spectrum
    # m +- sqrt(|b|^2 - (Im a)^2) is real, here with |b| 1.05 to 3 times |Im a|
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    b *= np.abs(a.imag) / np.abs(b) * rng.uniform(1.05, 3.0, size=n)
    return np.stack([[a, b], [b.conj(), a.conj()]]).transpose(2, 0, 1)


EIGEN_BLOCKS = {
    **{name: np.stack(toy.hamiltonians()) for name, toy in TOYS.items() if name != "weighted"},
    "real": np.stack(toy_hamiltonians("real")),
    "random_pt": random_pt_blocks(70),
    # general complex blocks, with complex spectra
    "random": np.random.default_rng(42).normal(size=(24, 2, 2, 2)) @ [1.0, 1j],
}


@pytest.mark.parametrize("case", sorted(EIGEN_BLOCKS))
def test_closed_form_eigenpairs_match_the_oracle(case):
    # LAPACK's eigenpairs, sorted by real part and put in the program's gauge
    # (measured: within 4.3e-14, on random_pt's left vectors)
    blocks = EIGEN_BLOCKS[case]
    for h, values, right, left in zip(blocks, *_eigenpairs(blocks)):
        one = loop_reference.eig(h)
        order = np.argsort(one.values.real)
        phase = _gauge(one.right[:, order])
        assert np.abs(values - one.values[order]).max() <= 1e-13 * max(1.0, np.abs(h).max())
        assert np.abs(right - one.right[:, order] * phase).max() <= 1e-13
        assert np.abs(left - one.left[:, order] * phase).max() <= 1e-13 * np.abs(one.left).max()


def test_metric_weights_follow_ascending_eigenvalues():
    # R† G R = diag(w) on the eigenpairs of H sorted factor by factor, for
    # G_1 and G_2 with their configured weights and the mixed metric with e^{2 s lambda} w_1
    lam, metrics, _, _ = _frames(WEIGHTED)
    (values_a, right_a), (values_b, right_b) = (
        (sys.values[np.argsort(sys.values.real)], sys.right[:, np.argsort(sys.values.real)])
        for sys in map(loop_reference.eig, WEIGHTED.hamiltonians())
    )
    assert np.abs(lam - np.kron(values_a, values_b)).max() <= 1e-13
    right = np.kron(right_a, right_b)
    w1 = np.kron(WEIGHTED.weights_a1, WEIGHTED.weights_b1)
    w2 = np.kron(WEIGHTED.weights_a2, WEIGHTED.weights_b2)
    w3 = np.exp(2.0 * WEIGHTED.mixing_strength * lam) * w1
    for g, w in zip(metrics, (w1, w2, w3)):
        assert np.abs(right.conj().T @ g @ right - np.diag(w)).max() <= 1e-13 * w.max()


@pytest.mark.parametrize("toy", [ToyConfig(), COINCIDING], ids=["pt_phase", "coinciding"])
def test_frames_are_unitary_and_diagonalize_eta_h_eta_inverse(toy):
    lam, metrics, frames, _ = _frames(toy)
    h = np.kron(*toy.hamiltonians())
    for g, v in zip(metrics, frames):
        eta = loop_reference.herm_sqrt(g)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-13
        assert np.abs(eta @ h @ np.linalg.inv(eta) - (v * lam) @ v.conj().T).max() <= 1e-13


def test_run_toy_refuses_a_degenerate_block():
    h_a = np.diag([1.0, 1.0 + 1e-10]).astype(complex)  # eigenvalue gap below 1e-9
    _, h_b = toy_hamiltonians("pt_phase")
    with pytest.raises(DegeneratePairing):
        run_toy(ToyConfig(h_a=h_a, h_b=h_b, t_max=1.0))


def test_run_toy_accepts_a_well_separated_block_at_any_scale():
    # the built-in blocks times 1e-12 have an absolute gap of 1.5e-12 but a
    # relative gap of about 1.5: their eigenvectors are the built-in ones
    h_a, h_b = toy_hamiltonians("pt_phase")
    result = run_toy(ToyConfig(h_a=1e-12 * h_a, h_b=1e-12 * h_b))
    for name in ("product1", "product2"):
        assert np.abs(result.entropy[name] - 1.0).max() <= 1e-9


@pytest.mark.parametrize(
    "block, refused",
    [(toy_hamiltonians("pt_phase")[0], False), (np.diag([1.0, 1.0 + 1e-10]).astype(complex), True)],
    ids=["pt_phase", "relative_gap_5e-11"],
)
def test_eigenpairs_refuse_a_block_and_its_power_of_two_multiple_alike(block, refused):
    # at 2^40 the degenerate block's absolute gap is about 110; its relative gap does not move
    blocks = np.stack([block, 2.0**40 * block])
    if refused:
        for b in blocks:
            with pytest.raises(DegeneratePairing, match="^block 0: eigenvalue gap 5.00e-11 relative to the block's scale"):
                _eigenpairs(b[None])
    else:
        values, right, left = _eigenpairs(blocks)
        # the scaling by a power of two is exact: the same vectors, eigenvalues 2^40 times
        assert np.array_equal(values[1], 2.0**40 * values[0])
        assert np.array_equal(right[1], right[0]) and np.array_equal(left[1], left[0])


@pytest.mark.parametrize("scale", [1.0, 2.0**-40, 1e-12], ids=["1", "2^-40", "1e-12"])
def test_oracle_and_program_refuse_alike_at_any_scale(scale):
    # the built-in pt_phase blocks are accepted by both at every scale (at
    # 1e-12 their absolute gap is 1.5e-12); diag(1, 1 + 1e-10) is refused by both
    h_a, h_b = toy_hamiltonians("pt_phase")
    for block, refused in ((h_a, False), (h_b, False), (np.diag([1.0, 1.0 + 1e-10]).astype(complex), True)):
        outcomes = []
        for solve in (lambda h: _eigenpairs(h[None]), loop_reference.eig):
            try:
                solve(scale * block)
                outcomes.append(False)
            except DegeneratePairing:
                outcomes.append(True)
        assert outcomes == [refused, refused], (scale, block)


def test_run_toy_accepts_coinciding_products():
    h_a, h_b = COINCIDING.hamiltonians()
    with pytest.raises(DegeneratePairing):
        loop_reference.eig(np.kron(h_a, h_b))
    result = run_toy(COINCIDING)
    for name in ("product1", "product2"):
        assert np.abs(result.entropy[name] - 1.0).max() <= 1e-9
    assert np.abs(result.entropy["nonproduct"] - 1.0).max() > 1e-3
    assert max(result.transport_residuals.values()) <= 1e-12


def test_run_toy_dichotomy():
    result = run_toy(ToyConfig())
    assert result.product_defects["product1"] < 1e-12
    assert result.product_defects["product2"] < 1e-12
    assert result.product_defects["nonproduct"] > 1e-3
    for name in ("product1", "product2"):
        assert np.abs(result.entropy[name] - 1.0).max() <= 1e-9
    assert np.abs(result.entropy["nonproduct"] - 1.0).max() > 1e-3
    assert result.times[0] == 0.0
    assert result.times[-1] == pytest.approx(10.0)
    assert len(result.times) == 201


def test_run_toy_real_variant_is_metric_blind():
    # Hermitian blocks: every admissible metric commutes with H, so the
    # unitary-frame dynamics is identical for all three choices even though
    # the mixed metric is genuinely non-product. The small mixing strength
    # keeps exp(sH) well conditioned on this variant's wide spectrum.
    result = run_toy(ToyConfig(variant="real", mixing_strength=0.02, t_max=2.0))
    for curve in result.entropy.values():
        assert np.abs(curve - 1.0).max() <= 1e-9
    assert result.product_defects["nonproduct"] > 1e-3


def test_run_toy_default_real_variant_stays_at_one_bit():
    # the default mixing strength 0.25 and horizon 10 on the wide 'real' spectrum
    result = run_toy(ToyConfig(variant="real"))
    for curve in result.entropy.values():
        assert np.abs(curve - 1.0).max() <= 1e-9


@pytest.mark.parametrize("s, kappa", [(3.0, 8.719e3), (5.0, 2.290e6)])
def test_transport_stays_unitary_at_strong_mixing(s, kappa):
    # the residuals measure <= 5.1e-15; a root of the assembled metric
    # G = B B† squares the conditioning and left 1.1e-8 and 4.1e-4 here
    result = run_toy(ToyConfig(mixing_strength=s))
    assert max(result.transport_residuals.values()) <= 1e-13
    assert result.frame_conditions["nonproduct"] == pytest.approx(kappa, rel=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "variant, s, reason",
    [
        ("pt_phase", 10.0, "frame condition number 2.68e\\+12"),
        ("pt_phase", 1000.0, "weights not finite and positive"),
        ("real", 0.5, "frame condition number 3.28e\\+08"),
        ("real", 1.0, "frame condition number"),
        ("real", 10.0, "weights not finite and positive"),
    ],
)
def test_run_toy_refuses_an_ill_conditioned_frame(variant, s, reason):
    # on 'real' at s = 1 sigma_min(B) is below roundoff; e^{2 s lambda}
    # leaves the float range at pt_phase s = 1000 and on 'real' at s = 10
    with pytest.raises(NotPositive, match=reason):
        run_toy(ToyConfig(variant=variant, mixing_strength=s))


HUGE = ToyConfig(h_a=[[1e200, 1.0], [1.0, -1e200]], h_b=[[1j, 2.0], [2.0, -1j]])


def test_eigenpairs_of_a_block_with_huge_entries_are_finite():
    # q = ((h00 - h11)/2)^2 + h01 h10 overflows for these entries unless the
    # block is scaled first; the spectrum is +-1e200 (h01 h10 = 1 is below
    # its roundoff) and +-sqrt(3)
    values, right, left = _eigenpairs(np.stack(HUGE.hamiltonians()))
    assert np.array_equal(values[0], [-1e200, 1e200])
    assert np.abs(values[1] - [-np.sqrt(3.0), np.sqrt(3.0)]).max() <= 1e-15
    assert np.all(np.isfinite(right)) and np.all(np.isfinite(left))
    assert np.abs(left.conj().swapaxes(1, 2) @ right - np.eye(2)).max() <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_toy_with_huge_entries_refuses_only_an_overflowing_weight():
    # unmixed, every metric is a product: the curves are finite and flat at
    # one bit; mixed at the default strength, e^{2 s lambda} leaves the float
    # range at lambda = +-1.7e200 and the weights are refused for that reason
    result = run_toy(replace(HUGE, mixing_strength=0.0))
    for curve in result.entropy.values():
        assert np.all(np.isfinite(curve)) and np.abs(curve - 1.0).max() <= 1e-9
    with pytest.raises(NotPositive, match="weights not finite and positive at mixing_strength 0.25"):
        run_toy(HUGE)


def test_run_toy_rejects_complex_spectrum():
    h_a = np.array([[np.exp(1.2j), 0.5], [0.5, np.exp(-1.2j)]])  # 0.5^2 < sin^2(1.2)
    h_b, _ = toy_hamiltonians("pt_phase")
    with pytest.raises(SpectrumNotReal):
        run_toy(ToyConfig(h_a=h_a, h_b=h_b, t_max=1.0))


def test_toy_config_roundtrip():
    cfg = ToyConfig(mixing_strength=0.4, dt=0.1)
    back = ToyConfig.from_dict(cfg.to_dict())
    assert back == cfg
