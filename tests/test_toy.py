import numpy as np
import pytest

import loop_reference
from ptwalk import DegeneratePairing, SpectrumNotReal, ToyConfig, run_toy
from ptwalk.linalg import eig
from ptwalk.toy import (
    metric_from_weights,
    product_defect,
    product_eig,
    product_exp,
    toy_hamiltonians,
)

CUSTOM_BLOCKS = (
    np.array([[np.exp(0.7j), 1.1], [1.1, np.exp(-0.7j)]]),
    np.array([[np.exp(2.3j), 1.4 + 0.1j], [1.4 - 0.1j, np.exp(-2.3j)]]),
)


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
    g = metric_from_weights(eig(h_a, want_left=True).left, (0.7, 1.9))
    assert np.abs(g - g.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(g).min() > 0
    assert np.abs(h_a.conj().T @ g - g @ h_a).max() < 1e-12
    with pytest.raises(ValueError):
        metric_from_weights(eig(h_a, want_left=True).left, (1.0, -0.5))


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
    h_a, h_b = CUSTOM_BLOCKS if blocks == "custom" else toy_hamiltonians(blocks)
    h = np.kron(h_a, h_b)
    mixer = product_exp(product_eig(h_a, h_b)[1], s)
    oracle = loop_reference.expm(s * h)
    # relative to the largest entry: on 'real' at s = 0.25 entries reach 1.2e4
    scale = np.abs(oracle).max()
    assert np.abs(mixer - oracle).max() <= 1e-13 * scale
    assert np.abs(mixer @ h - h @ mixer).max() <= 1e-13 * scale * np.abs(h).max()


def test_product_exp_refuses_a_degenerate_block():
    h_a = np.diag([1.0, 1.0 + 1e-10]).astype(complex)  # eigenvalue gap below 1e-9
    _, h_b = toy_hamiltonians("pt_phase")
    with pytest.raises(DegeneratePairing):
        product_eig(h_a, h_b)
    with pytest.raises(DegeneratePairing):
        run_toy(ToyConfig(h_a=h_a, h_b=h_b, t_max=1.0))


def test_run_toy_accepts_coinciding_products():
    # spectra +-1.118 and +-1.732: each product +-1.9365 is a double eigenvalue
    # of h_A (x) h_B, which a 4x4 eigensolve refuses to pair
    h_a = np.array([[1j, 1.5], [1.5, -1j]])
    h_b = np.array([[1j, 2.0], [2.0, -1j]])
    with pytest.raises(DegeneratePairing):
        loop_reference.eig(np.kron(h_a, h_b), want_left=True)
    result = run_toy(ToyConfig(h_a=h_a, h_b=h_b))
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
