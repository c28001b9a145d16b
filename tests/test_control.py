"""Drift estimators: importance sampling, empirical softmax, quadrature.

Frozen literals come from tools/make_oracles.py (mpmath, 50 digits).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from hpid.control import (
    ControlOutput,
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    FunctionControlEvaluator,
    QuadratureControlEvaluator,
    QuadratureGrid,
    UhisConfig,
    UhisControlEvaluator,
    empirical_control,
    quadrature_control,
    uhis_control,
)
from hpid.errors import AccuracyError, InputError
from hpid.kernels import ScalarBeta, decompose, drift_prefactors
from hpid.rng import normals_from
from hpid.stationary import universal_probe
from hpid.targets import (
    DoubleWellEnergy,
    GaussianEnergy,
    GaussianMixtureEnergy,
    OffsetEnergy,
)


def _mixture2():
    return GaussianMixtureEnergy(
        centers=np.array([[1.0, 0.0], [-1.0, 0.5]]),
        sigma2=0.6,
        weights=np.array([0.4, 0.6]),
    )


def test_uhis_config_validation():
    with pytest.raises(InputError):
        UhisConfig(n_is=0)
    with pytest.raises(InputError):
        UhisConfig(n_is=8, wide_sigma2=0.0)
    # settings only: no random state, and immutable so threads can share it
    fields = [f.name for f in dataclasses.fields(UhisConfig)]
    assert fields == ["n_is", "reuse_probe_noise", "t_min", "wide_sigma2"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        UhisConfig(n_is=8).n_is = 16


def test_empirical_frozen_values():
    params = ScalarBeta(beta=1.2, dim=1)
    target = EmpiricalTarget(np.array([[-2.0], [0.5], [3.0]]))
    out = empirical_control(params, target, 0.35, np.array([0.4]))
    assert_allclose(out.weighted_state, [1.274902353330308588001], rtol=1e-14)
    assert_allclose(out.drift, [1.088925129217675723732], rtol=1e-13)


@given(
    seed=st.integers(0, 10_000),
    t=st.floats(0.05, 0.9),
    beta=st.sampled_from([0.0, 0.8, 2.5]),
)
@settings(max_examples=40)
def test_empirical_diagnostics_and_hull(seed, t, beta):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(12, 3))
    params = ScalarBeta(beta=beta, dim=3)
    target = EmpiricalTarget(samples)
    x = rng.normal(size=3)
    out = empirical_control(params, target, t, x)
    # weighted state stays in the componentwise convex hull of the samples
    assert np.all(out.weighted_state >= samples.min(axis=0) - 1e-12)
    assert np.all(out.weighted_state <= samples.max(axis=0) + 1e-12)
    n = target.count
    assert 1.0 - 1e-9 <= out.ess <= n * (1.0 + 1e-9)
    assert 1.0 / n - 1e-12 <= out.max_weight <= 1.0 + 1e-12
    # recomposition: drift is exactly c1 (xhat - c2 x)
    c1, c2 = drift_prefactors(params, t)
    assert np.array_equal(out.drift, c1 * (out.weighted_state - c2 * x))


def test_uhis_weighted_state_in_sample_hull():
    params = ScalarBeta(beta=0.5, dim=2)
    cfg = UhisConfig(n_is=128)
    x = np.array([0.3, -0.9])
    xi = normals_from(np.random.default_rng(11), (128, 2))
    out = uhis_control(params, cfg, 0.4, x, _mixture2(), xi=xi)
    ys = universal_probe(params, 0.4, x).draw(xi)
    assert np.all(out.weighted_state >= ys.min(axis=0) - 1e-12)
    assert np.all(out.weighted_state <= ys.max(axis=0) + 1e-12)
    assert 1.0 <= out.ess <= 128.0 * (1.0 + 1e-12)
    assert 1.0 / 128.0 <= out.max_weight <= 1.0
    c1, c2 = drift_prefactors(params, 0.5)
    out2 = uhis_control(params, cfg, 0.5, x, _mixture2(), xi=xi)
    assert np.array_equal(out2.drift, c1 * (out2.weighted_state - c2 * x))


def test_uhis_additive_energy_invariance():
    # self-normalized weights cancel any constant added to the energy;
    # the shift lands before the softmax max-shift, so agreement is to
    # rounding, not bitwise
    params = ScalarBeta(beta=0.9, dim=2)
    cfg = UhisConfig(n_is=64)
    xi = normals_from(np.random.default_rng(5), (3, 64, 2))
    x = np.random.default_rng(6).normal(size=(3, 2))
    base = _mixture2()
    a = uhis_control(params, cfg, 0.4, x, base, xi=xi)
    b = uhis_control(params, cfg, 0.4, x, OffsetEnergy(base, 7.0), xi=xi)
    assert_allclose(b.drift, a.drift, rtol=1e-13, atol=1e-15)
    assert_allclose(b.weighted_state, a.weighted_state, rtol=1e-13, atol=1e-15)
    assert_allclose(b.ess, a.ess, rtol=1e-12)
    assert_allclose(b.max_weight, a.max_weight, rtol=1e-12)


def test_uhis_xi_shape_validated():
    params = ScalarBeta(beta=0.5, dim=2)
    cfg = UhisConfig(n_is=16)
    with pytest.raises(InputError):
        uhis_control(
            params, cfg, 0.3, np.zeros(2), _mixture2(), xi=np.zeros((8, 2))
        )
    # the noise always comes from the caller; the message names both layouts
    x = np.zeros((3, 2))
    for xi in (None, np.zeros((1, 16, 2)), np.zeros((3, 16, 1))):
        with pytest.raises(InputError, match=r"\(16, 2\).*\(3, 16, 2\)"):
            uhis_control(params, cfg, 0.3, x, _mixture2(), xi)


def test_uhis_all_weights_vanish():
    class InfiniteEnergy(GaussianEnergy):
        def value(self, y):
            y = np.asarray(y, dtype=float)
            return np.full(y.shape[:-1], np.inf)

    params = ScalarBeta(beta=0.5, dim=1)
    cfg = UhisConfig(n_is=8)
    xi = normals_from(np.random.default_rng(0), (8, 1))
    with pytest.raises(AccuracyError):
        uhis_control(params, cfg, 0.5, np.zeros(1), InfiniteEnergy(dim=1), xi)


class _PanelCounter:
    """Energy proxy that counts the factorized shared-panel calls."""

    def __init__(self, inner):
        self.inner = inner
        self.panel_calls = 0

    def value(self, y):
        return self.inner.value(y)

    def panel_logw(self, means, scale, panel):
        self.panel_calls += 1
        return self.inner.panel_logw(means, scale, panel)


def test_uhis_shared_panel_matches_owned_noise():
    # one (n_is, d) panel shared by the batch rides a factorized fast path;
    # a per-point copy of the identical numbers takes the generic path
    block = normals_from(np.random.default_rng(21), (256, 2))
    B = 5
    owned = np.array(np.broadcast_to(block, (B, 256, 2)))
    x = np.random.default_rng(22).normal(size=(B, 2))
    q, _ = np.linalg.qr(np.random.default_rng(23).normal(size=(2, 2)))
    potentials = (
        ScalarBeta(beta=0.0, dim=2),
        ScalarBeta(beta=0.7, dim=2),
        decompose(np.diag([0.3, 1.4])),
        decompose(q @ np.diag([0.3, 1.4]) @ q.T),
    )
    for inner in (GaussianEnergy(dim=2, sigma2=0.5), _mixture2()):
        energy = _PanelCounter(inner)
        for params in potentials:
            cfg = UhisConfig(n_is=256)
            for t in (0.05, 0.5, 0.9):
                a = uhis_control(params, cfg, t, x, energy, xi=block)
                b = uhis_control(params, cfg, t, x, energy, xi=owned)
                assert_allclose(a.drift, b.drift, rtol=5e-9, atol=1e-12)
                assert_allclose(a.weighted_state, b.weighted_state, rtol=5e-9, atol=1e-12)
                assert_allclose(a.ess, b.ess, rtol=5e-9)
                assert_allclose(a.max_weight, b.max_weight, rtol=5e-9)
        # the shared panel took the fast path every time, the owned block never
        assert energy.panel_calls == len(potentials) * 3


def test_uhis_wide_fallback_below_t_min():
    # below t_min the probe is the wide Gaussian regardless of panel
    # sharing, and both noise layouts must agree there too
    params = ScalarBeta(beta=0.7, dim=2)
    cfg = UhisConfig(n_is=64, t_min=0.2, wide_sigma2=2.0)
    block = normals_from(np.random.default_rng(3), (64, 2))
    owned = np.array(np.broadcast_to(block, (4, 64, 2)))
    x = np.random.default_rng(4).normal(size=(4, 2))
    a = uhis_control(params, cfg, 0.1, x, _mixture2(), xi=block)
    b = uhis_control(params, cfg, 0.1, x, _mixture2(), xi=owned)
    assert_allclose(a.drift, b.drift, rtol=1e-12)
    assert np.isfinite(a.drift).all()


def test_uhis_evaluator_declares_reuse_and_noise_shape():
    params = ScalarBeta(beta=0.5, dim=2)
    ev = UhisControlEvaluator(
        params, _mixture2(), UhisConfig(n_is=32, reuse_probe_noise=True)
    )
    assert ev.reuse_probe_noise
    assert ev.noise_shape(2) == (32, 2)
    # reuse is the integrator's to arrange: a direct call brings its own noise
    with pytest.raises(InputError):
        ev(0.4, np.array([[0.1, 0.2], [0.5, -0.3]]))


@given(
    kind=st.sampled_from(["uhis", "empirical", "quadrature"]),
    beta=st.floats(0.0, 3.0),
    t=st.floats(0.05, 0.95),
    x=hnp.arrays(float, (3, 2), elements=st.floats(-2.0, 2.0)),
)
@settings(max_examples=30, deadline=None)
def test_uhis_general_matches_scalar_for_isotropic_matrix(kind, beta, t, x):
    # an isotropic matrix beta is the scalar case, for every estimator
    def evaluator(params):
        if kind == "uhis":
            return UhisControlEvaluator(params, _mixture2(), UhisConfig(n_is=512))
        if kind == "empirical":
            rows = np.random.default_rng(19).normal(size=(7, 2))
            return EmpiricalControlEvaluator(params, EmpiricalTarget(rows))
        grid = QuadratureGrid(lo=-10.0, hi=10.0, n=201)
        return QuadratureControlEvaluator(params, _mixture2(), grid)

    xi = normals_from(np.random.default_rng(17), (3, 512, 2))
    a = evaluator(ScalarBeta(beta=beta, dim=2))(t, x, xi=xi)
    b = evaluator(decompose(beta * np.eye(2)))(t, x, xi=xi)
    assert_allclose(b.drift, a.drift, rtol=1e-10, atol=1e-12)
    assert_allclose(b.ess, a.ess, rtol=1e-10)


def test_probe_choice_does_not_move_the_limit():
    # u(t, x) is a fixed function; estimates under the universal probe
    # and under the wide zero-centered probe must agree within combined
    # Monte Carlo error
    params = ScalarBeta(beta=0.0, dim=1)
    energy = DoubleWellEnergy(dim=1)
    t, x = 0.5, np.array([0.4])
    reps, n = 40, 2000
    est = {}
    for label, t_min in (("universal", 0.0), ("wide", 1.0)):
        vals = np.empty(reps)
        for r in range(reps):
            cfg = UhisConfig(n_is=n, t_min=t_min)
            xi = normals_from(np.random.default_rng(1000 + r), (n, 1))
            vals[r] = uhis_control(params, cfg, t, x, energy, xi).drift[0]
        est[label] = (vals.mean(), vals.std(ddof=1) / np.sqrt(reps))
    gap = abs(est["universal"][0] - est["wide"][0])
    bar = 3.0 * np.hypot(est["universal"][1], est["wide"][1])
    assert gap < bar
    # both agree with the deterministic quadrature reference
    ref = quadrature_control(params, t, x, energy)[0]
    assert abs(est["universal"][0] - ref) < 4.0 * est["universal"][1]


def test_quadrature_frozen_gaussian_values():
    u = quadrature_control(
        ScalarBeta(beta=0.8, dim=1), 0.45, np.array([0.7]), GaussianEnergy(dim=1, sigma2=0.6)
    )
    assert_allclose(u, [-0.4746575105970458252816], rtol=1e-9)
    u = quadrature_control(
        ScalarBeta(beta=0.0, dim=1), 0.3, np.array([1.2]), GaussianEnergy(dim=1, sigma2=0.5)
    )
    assert_allclose(u, [-0.7058823529411764705882], rtol=1e-9)


def test_quadrature_two_dimensional_matches_product_structure():
    # a separable Gaussian target factorizes, so each drift component
    # equals the one-dimensional drift at that coordinate
    params2 = ScalarBeta(beta=0.6, dim=2)
    params1 = ScalarBeta(beta=0.6, dim=1)
    energy2 = GaussianEnergy(dim=2, sigma2=0.7)
    energy1 = GaussianEnergy(dim=1, sigma2=0.7)
    x = np.array([0.9, -0.4])
    grid = QuadratureGrid(lo=-10.0, hi=10.0, n=201)
    u2 = quadrature_control(params2, 0.35, x, energy2, grid=grid)
    for i in range(2):
        u1 = quadrature_control(params1, 0.35, x[i : i + 1], energy1, grid=grid)
        assert_allclose(u2[i], u1[0], rtol=1e-8)


def test_quadrature_grid_validation_and_boundary_guard():
    assert QuadratureGrid(n=1600).n == 1601  # forced odd
    with pytest.raises(AccuracyError):
        # the target mass sits well outside this box
        quadrature_control(
            ScalarBeta(beta=0.0, dim=1),
            0.5,
            np.array([0.0]),
            GaussianEnergy(dim=1, sigma2=1.0, mean=30.0),
            grid=QuadratureGrid(lo=-2.0, hi=2.0, n=201),
        )
    with pytest.raises(InputError):
        quadrature_control(
            ScalarBeta(beta=0.0, dim=3),
            0.5,
            np.zeros(3),
            GaussianEnergy(dim=3),
        )


def test_control_output_low_ess_flag():
    out = ControlOutput(drift=np.zeros(1), weighted_state=None, ess=1.2, max_weight=1.0)
    assert out.low_ess
    out = ControlOutput(drift=np.zeros(1), weighted_state=None, ess=8.0, max_weight=0.2)
    assert not out.low_ess


def test_quadrature_evaluator_batches_rows():
    params = ScalarBeta(beta=0.4, dim=1)
    ev = QuadratureControlEvaluator(params, DoubleWellEnergy(dim=1))
    x = np.array([[0.2], [-1.1], [0.8]])
    out = ev(0.6, x)
    assert out.drift.shape == (3, 1)
    assert out.ess.shape == (3,)
    for i in range(3):
        single = quadrature_control(params, 0.6, x[i], DoubleWellEnergy(dim=1))
        assert_allclose(out.drift[i], single, rtol=1e-12)


def test_function_evaluator_wraps_plain_drift():
    ev = FunctionControlEvaluator(lambda t, x: -2.0 * x)
    assert ev.noise_shape(3) is None
    out = ev(0.1, np.array([1.0, -0.5]))
    assert out.weighted_state is None
    assert_allclose(out.drift, [-2.0, 1.0])


def test_empirical_evaluator_deterministic():
    params = ScalarBeta(beta=1.0, dim=2)
    target = EmpiricalTarget(np.random.default_rng(0).normal(size=(6, 2)))
    ev = EmpiricalControlEvaluator(params, target)
    assert ev.noise_shape(2) is None
    x = np.random.default_rng(1).normal(size=(4, 2))
    a, b = ev(0.3, x), ev(0.3, x)
    assert np.array_equal(a.drift, b.drift)
    assert a.ess.shape == (4,)


def test_empirical_target_validation():
    with pytest.raises(InputError):
        EmpiricalTarget(np.zeros((0, 2)))
    with pytest.raises(InputError):
        EmpiricalTarget(np.array([[np.nan, 0.0]]))
    flat = EmpiricalTarget(np.array([1.0, 2.0, 3.0]))
    assert flat.samples.shape == (3, 1)
    with pytest.raises(InputError):
        empirical_control(
            ScalarBeta(beta=0.0, dim=3), EmpiricalTarget(np.zeros((2, 2))), 0.3, np.zeros(3)
        )
