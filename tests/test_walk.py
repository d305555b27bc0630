import math

import numpy as np
import pytest

from loop_reference import coin, gain_loss, hamiltonian_blocks, shift_block, walk_block, walk_blocks
from ptwalk import BrokenRegime, NoBreaking, WalkParams, gamma_pt, is_unbroken
from ptwalk.channel import _sin_entries
from ptwalk.walk import momentum_grid, spectral_a

T1, T2 = math.pi / 4, -math.pi / 7


def params(gamma=0.0, size=21):
    return WalkParams(T1, T2, gamma, size)


def sin_form(p):
    """The library's W_c(k) = a(k) I - i S(k) and eps_k = acos a(k) on the grid, S = sin H_c(k)."""
    ks = momentum_grid(p.lattice_size)
    d1, d2, d3 = _sin_entries(ks, p)
    s = np.stack([-d3, -(d1 + d2), -(d1 - d2), d3], axis=1).reshape(-1, 2, 2)
    a = spectral_a(ks, p)
    return a[:, None, None] * np.eye(2) - 1j * s, np.arccos(a), s


def test_walk_params_validation():
    with pytest.raises(ValueError):
        WalkParams(0.1, 0.2, 0.0, 20)
    with pytest.raises(ValueError):
        WalkParams(np.inf, 0.2, 0.0, 21)


def test_momentum_grid():
    ks = momentum_grid(5)
    assert ks[0] == -np.pi
    spacing = np.diff(ks)
    assert np.allclose(spacing, 2 * np.pi / 5)
    assert ks[-1] == pytest.approx(np.pi - 2 * np.pi / 5)


def test_momentum_grid_is_exactly_antisymmetric():
    # k_0 = -pi and k_{L-n} = -k_n bitwise, so every function of cos 2k is
    # bitwise even in k and the M(t) pass can sum each +-k pair once
    for size in range(1, 20002, 2):
        ks = momentum_grid(size)
        assert ks[0] == -np.pi and np.array_equal(ks[1:], -ks[:0:-1]), size


def test_coin_special_cases():
    assert np.allclose(coin(0.0), np.eye(2))
    assert np.allclose(coin(np.pi / 2), 1j * np.array([[0, 1], [1, 0]]), atol=1e-15)
    c = coin(np.pi / 4)
    expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    assert np.abs(c - expected).max() < 1e-12


def test_coin_is_special_unitary_and_symmetric():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-np.pi, np.pi, 5):
        c = coin(theta)
        assert np.abs(c @ c.conj().T - np.eye(2)).max() < 1e-14
        assert np.abs(c - c.T).max() == 0.0
        assert abs(np.linalg.det(c) - 1.0) < 1e-14


def test_shift_block():
    assert np.allclose(shift_block(0.0), np.eye(2))
    assert np.allclose(shift_block(np.pi), -np.eye(2), atol=1e-15)
    assert np.allclose(shift_block(np.pi / 2), np.diag([1j, -1j]), atol=1e-15)


def test_gain_loss():
    assert np.allclose(gain_loss(0.0), np.eye(2))
    g = gain_loss(math.log(1.2))
    assert np.allclose(np.diag(g), [1.2, 1 / 1.2])
    g0 = gain_loss(0.37)
    assert np.abs(gain_loss(-0.37) - np.linalg.inv(g0)).max() < 1e-14


def test_walk_block_determinant_and_pt():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi)
        p = params(gamma=rng.uniform(-0.25, 0.25))
        w = walk_block(k, p)
        assert abs(np.linalg.det(w) - 1.0) < 1e-12
        # complex conjugation inverts the walk block (PT condition)
        assert np.abs(np.conj(w) @ w - np.eye(2)).max() < 1e-10


def test_walk_block_unitary_when_hermitian():
    w = walk_block(0.8, params(gamma=0.0))
    assert np.abs(w.conj().T @ w - np.eye(2)).max() < 1e-12


def test_walk_block_trace_is_twice_spectral_a():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi)
        p = params(gamma=rng.uniform(-0.25, 0.25))
        assert abs(np.trace(walk_block(k, p)) - 2 * spectral_a(k, p)) < 1e-12


def test_walk_block_phases_at_k0():
    w = walk_block(0.0, params())
    phases = np.sort(np.angle(np.linalg.eigvals(w)))
    expected = math.acos(math.cos(T1 + T2))
    assert np.allclose(phases, [-expected, expected], atol=1e-12)
    assert expected == pytest.approx(3 * math.pi / 28)


def test_spectral_a_exceptional_when_angles_cancel():
    p = WalkParams(0.6, -0.6, 0.0, 21)
    assert spectral_a(0.0, p) == pytest.approx(1.0, abs=1e-12)


def test_spectral_a_value():
    assert spectral_a(0.0, params()) == pytest.approx(math.cos(T1 + T2), abs=1e-12)


def test_spectral_a_symmetries():
    rng = np.random.default_rng(4)
    p = params(gamma=0.18)
    for k in rng.uniform(-np.pi, np.pi, 8):
        assert spectral_a(k, p) == pytest.approx(spectral_a(-k, p), abs=1e-12)
        assert spectral_a(k, p) == pytest.approx(spectral_a(k + np.pi, p), abs=1e-12)


def test_gamma_pt_consistency():
    g = gamma_pt(T1, T2)
    assert g > 0
    assert spectral_a(0.0, WalkParams(T1, T2, g, 21)) == pytest.approx(1.0, abs=1e-10)
    assert 1.345 <= math.exp(g) <= 1.355


def test_spectral_a_near_threshold_factor():
    # the coalescence sits close to e^gamma = 1.35 for these angles
    p = WalkParams(T1, T2, math.log(1.3499), 21)
    assert spectral_a(0.0, p) == pytest.approx(1.0, abs=1e-3)


def test_gamma_pt_degenerate_angles():
    # theta2 = -theta1 puts the threshold exactly at zero non-Hermiticity
    assert gamma_pt(0.6, -0.6) == pytest.approx(0.0, abs=1e-12)


def test_gamma_pt_no_breaking():
    with pytest.raises(NoBreaking):
        gamma_pt(T1, math.pi / 7)
    with pytest.raises(NoBreaking):
        gamma_pt(0.0, 0.3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["theta1", "theta2"])
def test_gamma_pt_refuses_non_finite_angles(name, value):
    # as WalkParams does: no nan threshold and no bare math domain error
    angles = {"theta1": T1, "theta2": T2, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        gamma_pt(**angles)


def test_is_unbroken_thresholds():
    assert is_unbroken(WalkParams(T1, T2, math.log(1.2), 101))
    assert not is_unbroken(WalkParams(T1, T2, math.log(1.5), 101))
    assert is_unbroken(WalkParams(0.9, 0.4, 0.0, 101))


def test_walk_operator_covers_grid():
    p = params(gamma=0.1)
    blocks = walk_blocks(p)
    assert len(blocks) == p.lattice_size
    assert np.abs(blocks[3] - walk_block(momentum_grid(p.lattice_size)[3], p)).max() == 0.0


@pytest.mark.parametrize("size", [101, 1201, 4001])
def test_walk_blocks_match_per_k_product(size):
    # the closed form a I - i S against one 2x2 matmul chain per momentum
    for gamma in (0.0, math.log(1.3)):
        p = params(gamma, size)
        assert np.abs(sin_form(p)[0] - walk_blocks(p)).max() <= 1e-15


def test_hamiltonian_reconstructs_walk():
    p = params(gamma=0.15)
    h = hamiltonian_blocks(p)
    w = walk_blocks(p)
    for hb, wb in zip(h, w):
        vals, vecs = np.linalg.eig(hb)
        assert np.abs(vals.imag).max() < 1e-9
        back = (vecs * np.exp(-1j * vals)) @ np.linalg.inv(vecs)
        assert np.abs(back - wb).max() < 1e-9


def test_hamiltonian_hermitian_at_gamma_zero():
    h = hamiltonian_blocks(params(gamma=0.0))
    for hb in h:
        assert np.abs(hb - hb.conj().T).max() < 1e-10


def test_hamiltonian_real_spectrum_nonhermitian():
    h = hamiltonian_blocks(params(gamma=0.15))
    assert any(np.abs(hb - hb.conj().T).max() > 1e-6 for hb in h)
    for hb, k in zip(h, momentum_grid(21)):
        vals = np.sort(np.linalg.eigvals(hb).real)
        a = spectral_a(k, params(gamma=0.15))
        assert np.allclose(vals, [-math.acos(a), math.acos(a)], atol=1e-10)


@pytest.mark.parametrize("gamma_factor", [1.0, 1.1, 1.2, 1.3])
def test_hamiltonian_matches_per_k_loop(gamma_factor):
    # the library's frame, H_c(k) = eps_k S(k) / sin(eps_k), against one generator log per momentum
    p = params(math.log(gamma_factor), 1201)
    _, eps, s = sin_form(p)
    h = (eps / np.sin(eps))[:, None, None] * s
    assert np.abs(h - hamiltonian_blocks(p)).max() <= 1e-12


def test_hamiltonian_refuses_broken_regime():
    with pytest.raises(BrokenRegime):
        hamiltonian_blocks(WalkParams(T1, T2, math.log(1.5), 21))
