"""Probe construction at the universal stationary point.

Frozen literals come from tools/make_oracles.py (mpmath, 50 digits).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hpid.errors import DegenerateProbeGaussianError, InputError
from hpid.kernels import ScalarBeta, _h_probe, decompose, kernel_coeffs
from hpid.stationary import universal_probe


def test_probe_frozen_values():
    p = universal_probe(ScalarBeta(beta=1.0, dim=1), 0.5, np.array([1.0]))
    assert_allclose(p.mean, [2.255251930412761570452], rtol=1e-14)
    assert_allclose(p.precision, 0.8509181282393215451338, rtol=1e-14)
    assert_allclose(p.sigma2, 1.0 / 0.8509181282393215451338, rtol=1e-14)


def test_probe_flat_potential_midpoint():
    p = universal_probe(ScalarBeta(beta=0.0, dim=2), 0.5, np.array([2.0, 0.0]))
    assert_allclose(p.mean, [4.0, 0.0], rtol=1e-15)
    assert_allclose(p.precision, 1.0, rtol=1e-15)


@given(
    beta=st.sampled_from([0.0, 0.4, 1.0, 5.0]),
    t=st.floats(0.05, 0.95),
    alpha=st.floats(-3.0, 3.0),
)
def test_probe_mean_is_linear_in_x(beta, t, alpha):
    params = ScalarBeta(beta=beta, dim=2)
    x = np.array([0.7, -1.3])
    base = universal_probe(params, t, x)
    scaled = universal_probe(params, t, alpha * x)
    assert_allclose(scaled.mean, alpha * base.mean, rtol=1e-12, atol=1e-12)
    zero = universal_probe(params, t, np.zeros(2))
    assert np.all(zero.mean == 0.0)


def test_probe_precision_positive_and_increasing_in_t():
    for beta in (0.0, 1.0, 4.0):
        ts = np.linspace(0.02, 0.98, 40)
        h = np.array([float(_h_probe(beta, t)) for t in ts])
        assert (h > 0).all()
        assert (np.diff(h) > 0).all()


def test_probe_degenerates_near_t_zero():
    with pytest.raises(DegenerateProbeGaussianError):
        universal_probe(ScalarBeta(beta=1.0, dim=1), 1e-14, np.array([1.0]))


def test_probe_draw_and_log_pdf():
    p = universal_probe(ScalarBeta(beta=0.0, dim=2), 0.5, np.array([2.0, 0.0]))
    xi = np.array([[0.5, -0.5], [0.0, 1.0]])
    got = p.draw(xi)
    assert_allclose(got, p.mean + xi / np.sqrt(p.precision), rtol=1e-15)
    # density against the explicit Gaussian formula
    y = np.array([3.5, 0.5])
    want = -0.5 * p.precision * np.sum((y - p.mean) ** 2) - np.log(
        2 * np.pi / p.precision
    )
    assert_allclose(p.log_pdf(y), want, rtol=1e-13)


def test_probe_batched_x():
    params = ScalarBeta(beta=0.6, dim=2)
    xs = np.random.default_rng(0).normal(size=(5, 2))
    batch = universal_probe(params, 0.4, xs)
    for i in range(5):
        single = universal_probe(params, 0.4, xs[i])
        assert_allclose(batch.mean[i], single.mean, rtol=1e-14)
        assert batch.precision == single.precision


def test_general_probe_matches_scalar_when_isotropic():
    scalar = universal_probe(ScalarBeta(beta=0.9, dim=3), 0.3, np.array([1.0, -2.0, 0.5]))
    general = universal_probe(decompose(0.9 * np.eye(3)), 0.3, np.array([1.0, -2.0, 0.5]))
    assert_allclose(general.mean, scalar.mean, rtol=1e-12)
    assert_allclose(general.precision, np.full(3, scalar.precision), rtol=1e-12)


def test_scalar_only_routines_reject_matrix_beta():
    # the coefficient record takes one scalar curvature
    matrix = decompose(np.diag([0.5, 0.5]))
    with pytest.raises(InputError, match="scalar beta"):
        kernel_coeffs(matrix, 0.5)
