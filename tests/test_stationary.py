"""Probe construction at the universal stationary point.

Frozen literals come from tools/make_oracles.py (mpmath, 50 digits).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hpid.errors import DegenerateProbeGaussianError
from hpid.kernels import ScalarBeta, _h_probe, decompose
from hpid.stationary import _probe_denominator, universal_probe


def test_probe_frozen_values():
    p = universal_probe(ScalarBeta(beta=1.0, dim=1), 0.5, np.array([1.0]))
    assert_allclose(p.mean, [2.255251930412761570452], rtol=1e-14)
    assert_allclose(p.precision, 0.8509181282393215451338, rtol=1e-14)


def test_probe_tiny_eigenvalue_frozen_values():
    # lambda = 1e-13: precision and mean denominator keep their O(lambda)
    # part; both vanish at t = 0
    assert_allclose(_h_probe(1e-13, 0.5), 0.9999999999999833333333, rtol=1e-15)
    assert_allclose(_probe_denominator(1e-13, 0.5), 0.49999999999999375, rtol=1e-15)
    assert _h_probe(1e-13, 0.0) == 0.0
    assert _probe_denominator(1e-13, 0.0) == 0.0
    p = universal_probe(ScalarBeta(beta=1e-13, dim=1), 0.5, np.array([0.5]))
    assert_allclose(p.precision, 0.9999999999999833333333, rtol=1e-15)
    assert_allclose(p.mean, [0.5 / 0.49999999999999375], rtol=1e-15)


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


def test_probe_draw():
    p = universal_probe(ScalarBeta(beta=0.0, dim=2), 0.5, np.array([2.0, 0.0]))
    xi = np.array([[0.5, -0.5], [0.0, 1.0]])
    got = p.draw(xi)
    assert_allclose(got, p.mean + xi / np.sqrt(p.precision), rtol=1e-15)
    # a batch of means shares one panel, or takes one block each
    xs = np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 3.0]])
    batch = universal_probe(ScalarBeta(beta=0.0, dim=2), 0.5, xs)
    shared = batch.draw(xi)
    assert shared.shape == (3, 2, 2)
    assert np.array_equal(shared, batch.draw(np.broadcast_to(xi, (3, 2, 2))))
    for i in range(3):
        assert_allclose(shared[i], batch.mean[i] + xi / np.sqrt(p.precision), rtol=1e-15)


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
