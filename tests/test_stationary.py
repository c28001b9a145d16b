"""Probe construction and stationary-point solves.

Frozen literals come from tools/make_oracles.py (mpmath, 50 digits).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hpid.errors import DegenerateProbeGaussianError, InputError
from hpid.kernels import (
    ScalarBeta,
    _h_probe,
    decompose,
    drift_prefactors,
    kernel_coeffs,
)
from hpid.stationary import (
    legendre_control,
    nonuniversal_point,
    universal_probe,
)
from hpid.targets import DoubleWellEnergy, GaussianEnergy


class ConstantEnergy:
    def value(self, y):
        y = np.asarray(y, dtype=float)
        return np.full(y.shape[:-1], 3.0)

    def gradient(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def hessian(self, y):
        d = np.asarray(y, dtype=float).shape[-1]
        return np.zeros((d, d))


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


def test_constant_energy_reduces_to_universal_mean():
    params = ScalarBeta(beta=0.7, dim=1)
    x = np.array([0.9])
    res = nonuniversal_point(params, 0.6, x, ConstantEnergy())
    assert res.converged
    probe = universal_probe(params, 0.6, x)
    assert_allclose(res.y, probe.mean, rtol=1e-10)


def test_gaussian_energy_closed_form():
    # quadratic merit: (1/s2 + h) y = mu/s2 + c1 x
    params = ScalarBeta(beta=1.2, dim=2)
    energy = GaussianEnergy(dim=2, sigma2=0.7, mean=np.array([0.3, -0.6]))
    t, x = 0.45, np.array([1.1, 0.2])
    res = nonuniversal_point(params, t, x, energy)
    assert res.converged
    c1, _ = drift_prefactors(params, t)
    h = float(_h_probe(params.beta, t))
    want = (energy.mean / 0.7 + c1 * x) / (1.0 / 0.7 + h)
    assert_allclose(res.y, want, rtol=1e-10)


def test_double_well_frozen_point():
    params = ScalarBeta(beta=0.7, dim=1)
    res = nonuniversal_point(params, 0.6, np.array([0.9]), DoubleWellEnergy(dim=1))
    assert res.converged
    assert_allclose(res.y, [1.080932629043970429331], rtol=1e-10)
    h = 1.369520884858842137568
    c1 = 2.453935991601009180986
    curv = float(np.diagonal(DoubleWellEnergy(dim=1).hessian(res.y))[0])
    assert_allclose(res.hessian_diag, [(curv + h) / c1], rtol=1e-9)


def test_double_well_point_beats_dense_grid():
    # the Newton solution must sit at the global merit minimum
    params = ScalarBeta(beta=0.7, dim=1)
    energy = DoubleWellEnergy(dim=1)
    t, x = 0.6, np.array([0.9])
    res = nonuniversal_point(params, t, x, energy)
    c1, _ = drift_prefactors(params, t)
    h = float(_h_probe(params.beta, t))
    grid = np.linspace(-5.0, 5.0, 100_001)[:, None]
    merit = energy.value(grid) + 0.5 * h * grid[:, 0] ** 2 - c1 * x[0] * grid[:, 0]
    best = grid[np.argmin(merit), 0]
    assert abs(best - res.y[0]) < 1e-4  # grid spacing


def test_stationary_point_at_t_zero():
    # probe is degenerate at t=0; the solver must still run from the
    # pinned start
    params = ScalarBeta(beta=1.0, dim=1)
    res = nonuniversal_point(params, 0.0, np.array([0.4]), DoubleWellEnergy(dim=1))
    assert res.converged
    assert np.isfinite(res.y).all()


def test_legendre_control_gaussian_frozen():
    params = ScalarBeta(beta=0.8, dim=1)
    energy = GaussianEnergy(dim=1, sigma2=0.6)
    u = legendre_control(params, 0.45, np.array([0.7]), energy)
    assert_allclose(u, [-0.4746575105970458252816], rtol=1e-9)


def test_legendre_control_constant_energy_recomposition():
    params = ScalarBeta(beta=1.5, dim=2)
    x = np.array([0.2, -0.8])
    t = 0.3
    u = legendre_control(params, t, x, ConstantEnergy())
    c1, c2 = drift_prefactors(params, t)
    probe = universal_probe(params, t, x)
    assert_allclose(u, c1 * (probe.mean - c2 * x), rtol=1e-9, atol=1e-12)


def test_scalar_only_routines_reject_matrix_beta():
    # the Newton solve and the coefficient record take one scalar curvature
    matrix = decompose(np.diag([0.5, 0.5]))
    energy = GaussianEnergy(dim=2)
    calls = (
        lambda: kernel_coeffs(matrix, 0.5),
        lambda: nonuniversal_point(matrix, 0.5, np.zeros(2), energy),
        lambda: legendre_control(matrix, 0.5, np.zeros((3, 2)), energy),
    )
    for call in calls:
        with pytest.raises(InputError, match="scalar beta"):
            call()


def test_nonuniversal_point_rejects_batched_x():
    params = ScalarBeta(beta=0.5, dim=2)
    with pytest.raises(InputError, match="single point"):
        nonuniversal_point(params, 0.5, np.zeros((3, 2)), GaussianEnergy(dim=2))
