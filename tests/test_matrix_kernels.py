import numpy as np
import pytest
from numpy.testing import assert_allclose

from hpid.errors import DomainError, InputError
from hpid.kernels import (
    ScalarBeta,
    decompose,
    drift_prefactors,
    log_g_minus,
    log_g_plus,
    log_kernel_ratio,
)


def _random_spd(rng, d, floor=0.1):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    vals = rng.uniform(floor, 4.0, size=d)
    return (q * vals) @ q.T


def test_decompose_validation():
    with pytest.raises(InputError):
        decompose(np.zeros((2, 3)))
    with pytest.raises(InputError):
        decompose(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError):
        decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        decompose(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_decompose_clamps_numerically_flat_axes():
    m = np.diag([0.0, -1e-13, 2.0])
    p = decompose(m)
    assert (p.eigvals[:2] == 0.0).all()
    assert_allclose(p.eigvals[2], 2.0)


def test_isotropic_matches_scalar():
    d = 3
    scalar = ScalarBeta(beta=0.7, dim=d)
    matrix = decompose(0.7 * np.eye(d))
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rng.uniform(0.05, 0.95)
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        assert_allclose(
            log_g_minus(matrix, t, x, y),
            log_g_minus(scalar, t, x, y),
            rtol=1e-12,
        )
        assert_allclose(
            log_g_plus(matrix, t, x, y),
            log_g_plus(scalar, t, x, y),
            rtol=1e-12,
        )
        assert_allclose(
            log_kernel_ratio(matrix, t, x, y),
            log_kernel_ratio(scalar, t, x, y),
            rtol=1e-12,
        )


def test_diagonal_potential_separates_over_axes():
    # a diagonal matrix factorizes into independent one-dimensional kernels
    diag = np.array([0.3, 1.1, 2.4])
    p = decompose(np.diag(diag))
    x = np.array([0.4, -0.2, 1.0])
    y = np.array([-0.9, 0.6, 0.1])
    t = 0.35
    per_axis = sum(
        log_g_minus(ScalarBeta(beta=b, dim=1), t, x[i], y[i])
        for i, b in enumerate(diag)
    )
    assert_allclose(log_g_minus(p, t, x, y), per_axis, rtol=1e-10)


def test_rotation_equivariance():
    rng = np.random.default_rng(7)
    d = 4
    diag = np.diag(rng.uniform(0.2, 3.0, size=d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    rotated = decompose(q @ diag @ q.T)
    plain = decompose(diag)
    x = rng.normal(size=d)
    y = rng.normal(size=d)
    for t in (0.15, 0.5, 0.85):
        assert_allclose(
            log_g_minus(rotated, t, q @ x, q @ y),
            log_g_minus(plain, t, x, y),
            rtol=1e-10,
        )
        assert_allclose(
            log_g_plus(rotated, t, q @ x, q @ y),
            log_g_plus(plain, t, x, y),
            rtol=1e-10,
        )


def test_decomposition_reconstructs_matrix():
    rng = np.random.default_rng(11)
    m = _random_spd(rng, 5)
    p = decompose(m)
    rebuilt = (p.eigvecs * p.eigvals) @ p.eigvecs.T
    assert np.abs(rebuilt - m).max() < 1e-10


def test_eigenbasis_round_trip():
    rng = np.random.default_rng(2)
    p = decompose(_random_spd(rng, 4))
    v = rng.normal(size=(6, 4))
    assert_allclose(p.from_eigenbasis(p.to_eigenbasis(v)), v, rtol=1e-12)


def test_control_reduction_matches_scalar_prefactors():
    diag = np.array([0.0, 0.9, 3.3])
    p = decompose(np.diag(diag))
    for t in (0.0, 0.4, 0.99):
        c1, c2 = drift_prefactors(p, t)
        for i, b in enumerate(diag):
            s1, s2 = drift_prefactors(ScalarBeta(beta=b, dim=1), t)
            assert_allclose([c1[i], c2[i]], [s1, s2], rtol=1e-12)


def test_mixed_spectrum_with_flat_axis():
    # one zero eigenvalue rides the exact heat-kernel branch while the
    # other axes use hyperbolics; the sum must still be finite
    p = decompose(np.diag([0.0, 2.0]))
    v = log_g_minus(p, 0.5, [1.0, -1.0], [0.0, 0.5])
    assert np.isfinite(v)


def test_batched_points():
    rng = np.random.default_rng(5)
    p = decompose(_random_spd(rng, 3))
    x = rng.normal(size=(7, 3))
    y = rng.normal(size=(7, 3))
    batch = log_kernel_ratio(p, 0.25, x, y)
    single = [log_kernel_ratio(p, 0.25, x[i], y[i]) for i in range(7)]
    assert_allclose(batch, single, rtol=1e-13)
