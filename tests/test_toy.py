from dataclasses import replace

import numpy as np
import pytest

import loop_reference
from ptwalk import DegeneratePairing, SpectrumNotReal, ToyConfig, run_toy
from ptwalk.linalg import eig
from ptwalk.toy import _frames, _gauge, metric_from_weights, product_defect, toy_hamiltonians

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


def test_metric_from_weights_is_compatible():
    h_a, _ = toy_hamiltonians("pt_phase")
    g = metric_from_weights(eig(h_a).left, (0.7, 1.9))
    assert np.abs(g - g.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(g).min() > 0
    assert np.abs(h_a.conj().T @ g - g @ h_a).max() < 1e-12
    with pytest.raises(ValueError):
        metric_from_weights(eig(h_a).left, (1.0, -0.5))


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
    _, metrics, _ = _frames(toy)
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


def rephased(solver, reverse):
    # LAPACK's eigenvectors with other phases (a fixed unit phase per column)
    # and, for ``eig``, the pairs in reverse order
    def patched(a):
        values, vectors = solver(a)
        vectors = vectors * np.exp(1j * (0.4 + 0.9 * np.arange(vectors.shape[-1])))
        return (values[..., ::-1], vectors[..., ::-1]) if reverse else (values, vectors)

    return patched


@pytest.mark.parametrize("toy", TOYS.values(), ids=TOYS.keys())
def test_run_toy_does_not_depend_on_lapack_eigenvector_conventions(toy, monkeypatch):
    want = run_toy(toy).entropy
    monkeypatch.setattr(np.linalg, "eig", rephased(np.linalg.eig, reverse=True))
    monkeypatch.setattr(np.linalg, "eigh", rephased(np.linalg.eigh, reverse=False))
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


def test_metric_weights_follow_ascending_eigenvalues():
    # R† G R = diag(w) on the eigenpairs of H sorted factor by factor, for
    # G_1 and G_2 with their configured weights and the mixed metric with e^{2 s lambda} w_1
    lam, metrics, _ = _frames(WEIGHTED)
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
    lam, metrics, frames = _frames(toy)
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


def test_run_toy_rejects_complex_spectrum():
    h_a = np.array([[np.exp(1.2j), 0.5], [0.5, np.exp(-1.2j)]])  # 0.5^2 < sin^2(1.2)
    h_b, _ = toy_hamiltonians("pt_phase")
    with pytest.raises(SpectrumNotReal):
        run_toy(ToyConfig(h_a=h_a, h_b=h_b, t_max=1.0))


def test_toy_config_roundtrip():
    cfg = ToyConfig(mixing_strength=0.4, dt=0.1)
    back = ToyConfig.from_dict(cfg.to_dict())
    assert back == cfg
