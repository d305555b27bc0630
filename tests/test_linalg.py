import math

import numpy as np
import pytest

from channel_reference import ShapeMismatch, devec, partial_trace, vec
from loop_reference import BranchAmbiguity, EigenSystem, eig, herm_sqrt, metric_root, unitary_log, walk_block
from ptwalk import DegeneratePairing, NotPositive, WalkParams
from ptwalk.channel import trace_norm
from ptwalk.toy import _eigenpairs

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_psd(rng, n):
    a = random_complex(rng, n)
    return a @ a.conj().T


def closed_form(a):
    # the toy's closed-form eigenpairs of one 2x2 matrix
    return EigenSystem(*(x[0] for x in _eigenpairs(np.asarray(a)[None])))


# the 2x2 cases check the toy's closed form and the LAPACK oracle ``eig`` alike


def test_eig_diagonal():
    for solve in (eig, closed_form):
        sys = solve(np.diag([2.0, 3.0]))
        assert sorted(sys.values.real) == [2.0, 3.0]
        assert np.abs(np.abs(sys.right) - np.eye(2)).max() < 1e-14


def test_eig_pauli_x():
    for solve in (eig, closed_form):
        sys = solve(SX)
        assert sorted(np.round(sys.values.real, 12)) == [-1.0, 1.0]
        for val, v in zip(sys.values, sys.right.T):
            assert np.allclose(SX @ v, val * v, atol=1e-14)
            assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-14)


def test_eig_walk_block_unit_determinant():
    # every factor of the walk block has det 1, so the eigenvalue product is 1
    p = WalkParams(np.pi / 4, -np.pi / 7, 0.1, 21)
    for solve in (eig, closed_form):
        sys = solve(walk_block(0.3, p))
        assert abs(sys.values[0] * sys.values[1] - 1.0) < 1e-12


def test_eig_residual_random():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        a = random_complex(rng, n)
        for solve in (eig, closed_form) if n == 2 else (eig,):
            sys = solve(a)
            for val, v in zip(sys.values, sys.right.T):
                assert np.linalg.norm(a @ v - val * v) <= 1e-10 * np.linalg.norm(a)


def test_eig_left_biorthonormal():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        for _ in range(10):
            a = random_complex(rng, n)
            for solve in (eig, closed_form) if n == 2 else (eig,):
                sys = solve(a)
                overlap = sys.left.conj().T @ sys.right
                assert np.abs(overlap - np.eye(n)).max() < 1e-9
                for val, l in zip(sys.values, sys.left.T):
                    assert np.linalg.norm(a.conj().T @ l - np.conj(val) * l) < 1e-9 * np.linalg.norm(a)


def test_eig_degenerate_pairing_raises():
    for solve in (eig, closed_form):
        with pytest.raises(DegeneratePairing):
            solve(np.diag([1.0, 1.0 + 1e-12]))


REFUSED = {
    "jordan": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "gap": np.diag([1.0, 1.0 + 1e-12]),
    # relative eigenvalue gap 1.02e-9 (1.3e-7 against the scale 2^7 of the
    # block's largest part), but left/right overlap 9.2e-10
    "overlap": np.array([[1.0, 100.0 + 100.0j], [0.0, 1.0 + 1.3e-7]]),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_stacked_eig_refuses_like_the_oracle(case):
    # the toy's closed form over a stack of 2x2 blocks refuses what the LAPACK oracle refuses
    bad = REFUSED[case]
    with pytest.raises(DegeneratePairing) as want:
        eig(bad)
    # same refusal: both name the left/right overlap, or both the eigenvalue gap
    kind = "left/right overlap" if "overlap" in str(want.value) else "eigenvalue gap"
    good = np.diag([2.0, 3.0])
    with pytest.raises(DegeneratePairing, match=f"^block 0: {kind}"):
        _eigenpairs(bad[None])
    with pytest.raises(DegeneratePairing, match=f"^block 2: {kind}"):
        _eigenpairs(np.stack([good, good, bad, bad]))
    _eigenpairs(np.stack([good, good]))


def test_stacked_eig_names_the_first_offending_block():
    good = np.diag([2.0, 3.0])
    stack = np.stack([good, REFUSED["overlap"], REFUSED["jordan"]])
    with pytest.raises(DegeneratePairing, match="^block 1: left/right overlap"):
        _eigenpairs(stack)


def test_herm_sqrt_trivial():
    assert np.allclose(herm_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_herm_sqrt_square_back():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_psd(rng, 4)
        r = herm_sqrt(a)
        assert np.abs(r - r.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(r).min() >= -1e-12
        assert np.abs(r @ r - a).max() < 1e-10 * max(1.0, np.abs(a).max())


def test_herm_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        herm_sqrt(np.diag([1.0, -1e-3]))


def test_metric_root_stack_matches_single_matrices():
    rng = np.random.default_rng(12)
    stack = np.stack([random_psd(rng, 3) + 0.1 * np.eye(3) for _ in range(6)])
    roots = metric_root(stack)
    assert roots.shape == stack.shape
    for g, root in zip(stack, roots):
        assert np.abs(root - metric_root(g)).max() <= 1e-13 * max(1.0, np.abs(root).max())
        assert np.abs(root @ root - g).max() < 1e-10 * np.abs(g).max()
        assert np.abs(root - herm_sqrt(g)).max() < 1e-10


def test_metric_root_names_first_non_positive_block():
    stack = np.stack([np.diag([1.0, 2.0])] * 6).astype(complex)
    stack[4] = np.diag([1.0, -1e-3])
    stack[2] = np.diag([0.0, 1.0])
    with pytest.raises(NotPositive, match="^metric block 2 not positive definite$"):
        metric_root(stack)
    with pytest.raises(NotPositive, match="^metric not positive definite$"):
        metric_root(stack[4])


def test_herm_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_unitary_log_identity():
    assert np.abs(unitary_log(np.eye(2))).max() < 1e-14


def test_unitary_log_principal_branch():
    a = np.diag([np.exp(-0.7j), np.exp(0.7j)])
    h = unitary_log(a)
    assert np.allclose(h, np.diag([0.7, -0.7]), atol=1e-14)


def test_unitary_log_reconstructs():
    rng = np.random.default_rng(8)
    for _ in range(10):
        q, _ = np.linalg.qr(random_complex(rng, 3))
        h = unitary_log(q)
        vals, vecs = np.linalg.eig(h)
        back = (vecs * np.exp(-1j * vals)) @ np.linalg.inv(vecs)
        assert np.abs(back - q).max() < 1e-9


def test_unitary_log_walk_block_quasienergies():
    # spectrum of the generator must be +-acos(a), a the walk's spectral scalar
    p = WalkParams(np.pi / 4, -np.pi / 7, 0.15, 21)
    k = 0.4
    a = np.cos(2 * k) * np.cos(p.theta1) * np.cos(p.theta2) - np.cosh(
        2 * p.gamma
    ) * np.sin(p.theta1) * np.sin(p.theta2)
    h = unitary_log(walk_block(k, p))
    got = np.sort(np.linalg.eigvals(h).real)
    assert np.abs(np.linalg.eigvals(h).imag).max() < 1e-12
    assert np.allclose(got, [-math.acos(a), math.acos(a)], atol=1e-12)


def test_unitary_log_branch_cut():
    with pytest.raises(BranchAmbiguity):
        unitary_log(np.diag([-1.0, 1.0]))


def test_vec_definition():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(m), [1, 2, 3, 4])
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    assert np.array_equal(vec(e12), [0, 1, 0, 0])


def test_vec_devec_roundtrip():
    rng = np.random.default_rng(9)
    m = random_complex(rng, 2)
    assert np.array_equal(devec(vec(m)), m)
    with pytest.raises(ShapeMismatch):
        devec(np.zeros(5))


def test_partial_trace_product_state():
    rng = np.random.default_rng(10)
    ra = random_psd(rng, 2)
    ra /= np.trace(ra)
    rb = random_psd(rng, 3)
    rb /= np.trace(rb)
    joint = np.kron(ra, rb)
    assert np.abs(partial_trace(joint, (2, 3), "B") - rb).max() < 1e-12
    assert np.abs(partial_trace(joint, (2, 3), "A") - ra).max() < 1e-12


def test_partial_trace_bell():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi)
    assert np.abs(partial_trace(rho, (2, 2), "B") - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_matches_loop_contraction():
    # independent oracle: explicit entrywise double-loop contraction
    rng = np.random.default_rng(11)
    rho = random_psd(rng, 4)
    expected = np.zeros((2, 2), dtype=complex)
    r = rho.reshape(2, 2, 2, 2)
    for j in range(2):
        for jp in range(2):
            for i in range(2):
                expected[j, jp] += r[i, j, i, jp]
    got = partial_trace(rho, (2, 2), "B")
    assert np.abs(got - expected).max() < 1e-13
    assert abs(np.trace(got) - np.trace(rho)) < 1e-12


def test_trace_norm_basics():
    assert abs(trace_norm(np.eye(2)) - 2.0) < 1e-14
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-14
    for shape in ((2, 3), (2, 2, 2), (4,)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            trace_norm(np.ones(shape))


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(12)
    a = random_complex(rng, 3)
    u, _ = np.linalg.qr(random_complex(rng, 3))
    v, _ = np.linalg.qr(random_complex(rng, 3))
    assert abs(trace_norm(u @ a @ v) - trace_norm(a)) < 1e-10


def test_trace_norm_of_unitary_channel_choi_is_one():
    # Choi state of a unitary channel is the rank-one projector on vec(U)/sqrt(d)
    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(random_complex(rng, 2))
    c = np.outer(vec(u), vec(u).conj()) / 2.0
    assert abs(trace_norm(c) - 1.0) < 1e-12
