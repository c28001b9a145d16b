"""Drift estimators: importance sampling, empirical softmax, quadrature.

Frozen literals come from tools/make_oracles.py (mpmath, 50 digits).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

import hpid.control
from hpid.control import (
    ControlOutput,
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    FunctionControlEvaluator,
    QuadratureControlEvaluator,
    QuadratureGrid,
    UhisConfig,
    UhisControlEvaluator,
    _flushed_exp,
    _row_set_tiles,
    _weighted_state,
)
from hpid.errors import AccuracyError, InputError
from hpid.kernels import (
    ScalarBeta,
    _h_probe,
    _rows_matmul,
    decompose,
    drift_prefactors,
)
from hpid.rng import normals_from
from hpid.stationary import universal_probe
from hpid.targets import (
    DoubleWellEnergy,
    GaussianEnergy,
    GaussianMixtureEnergy,
    grid_mixture,
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
    # settings only: no random state, and immutable so threads can share it
    fields = [f.name for f in dataclasses.fields(UhisConfig)]
    assert fields == ["n_is", "reuse_probe_noise", "t_min"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        UhisConfig(n_is=8).n_is = 16


def test_empirical_frozen_values():
    params = ScalarBeta(beta=1.2, dim=1)
    target = EmpiricalTarget(np.array([[-2.0], [0.5], [3.0]]))
    out = EmpiricalControlEvaluator(params, target)(0.35, np.array([0.4]))
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
    out = EmpiricalControlEvaluator(params, target)(t, x)
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
    uhis = UhisControlEvaluator(params, _mixture2(), UhisConfig(n_is=128))
    x = np.array([0.3, -0.9])
    xi = normals_from(np.random.default_rng(11), (128, 2))
    out = uhis(0.4, x, xi=xi)
    ys = universal_probe(params, 0.4, x).draw(xi)
    assert np.all(out.weighted_state >= ys.min(axis=0) - 1e-12)
    assert np.all(out.weighted_state <= ys.max(axis=0) + 1e-12)
    assert 1.0 <= out.ess <= 128.0 * (1.0 + 1e-12)
    assert 1.0 / 128.0 <= out.max_weight <= 1.0
    c1, c2 = drift_prefactors(params, 0.5)
    out2 = uhis(0.5, x, xi=xi)
    assert np.array_equal(out2.drift, c1 * (out2.weighted_state - c2 * x))


def test_uhis_additive_energy_invariance(offset_energy):
    # self-normalized weights cancel any constant added to the energy;
    # the shift lands before the softmax max-shift, so agreement is to
    # rounding, not bitwise
    params = ScalarBeta(beta=0.9, dim=2)
    cfg = UhisConfig(n_is=64)
    xi = normals_from(np.random.default_rng(5), (3, 64, 2))
    x = np.random.default_rng(6).normal(size=(3, 2))
    base = _mixture2()
    a = UhisControlEvaluator(params, base, cfg)(0.4, x, xi=xi)
    b = UhisControlEvaluator(params, offset_energy(base, 7.0), cfg)(0.4, x, xi=xi)
    assert_allclose(b.drift, a.drift, rtol=1e-13, atol=1e-15)
    assert_allclose(b.weighted_state, a.weighted_state, rtol=1e-13, atol=1e-15)
    assert_allclose(b.ess, a.ess, rtol=1e-12)
    assert_allclose(b.max_weight, a.max_weight, rtol=1e-12)


def test_uhis_xi_shape_validated():
    params = ScalarBeta(beta=0.5, dim=2)
    uhis = UhisControlEvaluator(params, _mixture2(), UhisConfig(n_is=16))
    with pytest.raises(InputError):
        uhis(0.3, np.zeros(2), xi=np.zeros((8, 2)))
    # the noise always comes from the caller; the message names both layouts
    x = np.zeros((3, 2))
    for xi in (None, np.zeros((1, 16, 2)), np.zeros((3, 16, 1))):
        with pytest.raises(InputError, match=r"\(16, 2\).*\(3, 16, 2\)"):
            uhis(0.3, x, xi)


def test_uhis_all_weights_vanish():
    class InfiniteEnergy(GaussianEnergy):
        def value(self, y):
            y = np.asarray(y, dtype=float)
            return np.full(y.shape[:-1], np.inf)

    params = ScalarBeta(beta=0.5, dim=1)
    uhis = UhisControlEvaluator(params, InfiniteEnergy(dim=1), UhisConfig(n_is=8))
    xi = normals_from(np.random.default_rng(0), (8, 1))
    with pytest.raises(AccuracyError):
        uhis(0.5, np.zeros(1), xi)


class _PanelCounter:
    """Energy proxy that counts the factorized shared-panel calls and the
    points that value is evaluated on."""

    def __init__(self, inner):
        self.inner = inner
        self.panel_calls = 0
        self.value_points = 0

    def value(self, y):
        y = np.asarray(y, dtype=float)
        self.value_points += y.size // y.shape[-1]
        return self.inner.value(y)

    def panel_logw(self, means, scale, panel):
        self.panel_calls += 1
        return self.inner.panel_logw(means, scale, panel)


@pytest.mark.parametrize("shared", [True, False], ids=["row_set", "blocks"])
@pytest.mark.parametrize("B", [1, 15, 63, 64, 65, 130])
def test_weighted_state_tiles_change_no_bit(B, shared):
    # the tiled kernel against the untiled softmax and contraction, one row
    # at a time: a row's bits must not depend on its tile or on B
    rng = np.random.default_rng(B)
    n, d = 200, 3
    log_w = 30.0 * rng.normal(size=(B, n))
    log_w[:, ::7] = -np.inf  # underflown weights drop out
    ys = rng.normal(size=(n, d) if shared else (B, n, d))
    xhat, ess, max_w = _weighted_state([(log_w.copy(), ys)])  # consumes its block
    assert xhat.shape == (B, d) and ess.shape == max_w.shape == (B,)
    for i in range(B):
        e = np.exp(log_w[i : i + 1] - log_w[i].max())
        total = e.sum(axis=-1)
        if shared:
            ref = _rows_matmul(e, ys)
        else:
            ref = np.einsum("...n,...nd->...d", e, ys[i : i + 1])
        assert np.array_equal(xhat[i], ref[0] / total[0])
        assert ess[i] == total[0] * total[0] / np.einsum("...n,...n->...", e, e)[0]
        assert max_w[i] == 1.0 / total[0]


def test_weighted_state_raises_for_a_dead_row_in_a_later_tile():
    ys = np.random.default_rng(2).normal(size=(16, 2))
    for bad in (-np.inf, np.nan):
        log_w = np.zeros((130, 16))
        log_w[129] = bad
        with pytest.raises(AccuracyError):
            _weighted_state([(log_w, ys)])


def test_max_weight_is_the_reciprocal_sum():
    # the largest weight is exp(0) / sum, so 1 / sum is bitwise the max
    rng = np.random.default_rng(4)
    log_w = 5.0 * rng.normal(size=(40, 300))
    log_w[::3, :4] = log_w[::3, :4].max()  # ties at the row max
    e = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    ys = rng.normal(size=(300, 2))
    _, _, max_w = _weighted_state([(log_w, ys)])
    assert np.array_equal(max_w, (e / e.sum(axis=-1)[:, None]).max(axis=-1))


def _unflushed_weighted_state(log_w, ys):
    """The softmax and contraction with every weight exponentiated."""
    e = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    total = e.sum(axis=-1)
    ess = total * total / np.einsum("...n,...n->...", e, e)
    return e, _rows_matmul(e, ys) / total[:, None], ess, 1.0 / total


_FLUSH_GAPS = np.array(
    [0.0, -1.0, -354.1, -354.3, -700.0, -708.3, -708.5, -720.0, -740.0, -745.0]
)
_FLOOR = np.log(np.finfo(float).tiny) / 2  # about -354.2


def test_subnormal_weights_are_flushed_to_zero():
    # below the floor a weight's square would be subnormal: it is flushed
    e = _flushed_exp(_FLUSH_GAPS.copy())
    assert np.all(e[_FLUSH_GAPS >= -354.1] > 0.0)
    assert np.all(e[_FLUSH_GAPS <= -354.3] == 0.0)
    assert np.array_equal(e > 0.0, _FLUSH_GAPS >= _FLOOR)
    assert np.array_equal(e[e > 0.0], np.exp(_FLUSH_GAPS[e > 0.0]))


def test_contraction_sees_no_subnormal_weight(monkeypatch):
    # a gap of -354.1 keeps its weight, exp(-354.1) = 1.6e-154, whose square
    # 2.6e-308 is still normal; -354.3 or -708.3 would give a subnormal
    # square in the ESS, and a product near tiny in the GEMM
    operands = []
    inner = hpid.control._rows_matmul

    def spy(a, b, out=None):
        operands.append(np.array(a))
        return inner(a, b, out=out)

    monkeypatch.setattr(hpid.control, "_rows_matmul", spy)
    ys = np.random.default_rng(5).normal(size=(len(_FLUSH_GAPS), 2))
    _weighted_state([(_FLUSH_GAPS[None, :] + 3.0, ys)])
    (w,) = operands
    assert not np.any((w > 0.0) & (w * w < np.finfo(float).tiny))
    assert np.any(w == np.exp(-354.1))


def test_flush_changes_no_diagnostic_bit():
    # gaps from -800 to 0 cross the floor and the subnormal band densely;
    # ESS, the max weight and x̂ must equal, bit for bit, those of
    # exponentiating all
    rng = np.random.default_rng(6)
    n = 4001
    span = np.linspace(-800.0, 0.0, n)
    log_w = np.stack([span, rng.permutation(span)])
    log_w += np.array([[12.5], [-3.0]])
    ys = rng.normal(size=(n, 3))
    e_ref, xhat_ref, ess_ref, max_ref = _unflushed_weighted_state(log_w, ys)
    e = _flushed_exp(log_w - log_w.max(axis=-1, keepdims=True))
    flushed = log_w - log_w.max(axis=-1, keepdims=True) < _FLOOR
    assert np.any(e_ref[flushed] > 0.0)  # the reference keeps them
    assert np.array_equal(e, np.where(flushed, 0.0, e_ref))
    xhat, ess, max_w = _weighted_state([(log_w.copy(), ys)])
    assert np.array_equal(xhat, xhat_ref)
    assert np.array_equal(ess, ess_ref)
    assert np.array_equal(max_w, max_ref)


def test_all_minus_inf_row_still_raises():
    dead_row = np.array([[0.0, -800.0], [-np.inf, -np.inf]])
    for log_w in (np.full((1, 6), -np.inf), dead_row):
        with pytest.raises(AccuracyError):
            _weighted_state([(log_w, np.ones((log_w.shape[-1], 3)))])


@pytest.mark.parametrize("shared", [True, False], ids=["row_set", "blocks"])
@pytest.mark.parametrize("matrix", [False, True], ids=["scalar", "matrix"])
def test_column_tiles_fold_to_the_one_tile_softmax(monkeypatch, shared, matrix):
    # 36 rows in column tiles of 8 (the last one 4 wide): the online softmax
    # agrees with the one-tile kernel, and a row's bits depend on its own x
    rng = np.random.default_rng(41)
    B, n = 130, 36
    params = decompose([[0.9, 0.3], [0.3, 0.4]]) if matrix else ScalarBeta(0.6, 2)
    x = rng.normal(size=(B, 2))
    points = rng.normal(size=(n, 2) if shared else (B, n, 2))
    fixed = 20.0 * rng.normal(size=(B, n))
    fixed[0, -3] = 200.0  # the max lies in the last tile
    fixed[1] = -1e4  # one-hot: every weight but the winner's is flushed
    fixed[1, 19] = 0.0  # in the middle tile
    fixed[2, 8:16] = -np.inf  # -inf over a whole tile
    fixed[3, :24] = -np.inf  # no weight until the fourth tile

    def state(rows, log_w=fixed):
        ys = points if shared else points[rows]
        return _weighted_state(_row_set_tiles(params, 0.4, x[rows], ys, log_w[rows]))

    one_tile = state(slice(None))
    monkeypatch.setattr(hpid.control, "_COL_TILE", 8)
    tiled = state(slice(None))
    for got, want in zip(tiled, one_tile):
        assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    assert np.array_equal(tiled[0][1], points[19] if shared else points[1, 19])
    assert tiled[2][1] == 1.0
    singles = [state(slice(i, i + 1)) for i in range(B)]
    for b in (1, 15, 17, 130):
        split = state(slice(0, b))
        for i in range(b):
            for got, want in zip(split, singles[i]):
                assert np.array_equal(got[i], want[0])
    for bad in (-np.inf, np.nan):
        dead = fixed.copy()
        dead[129] = bad
        with pytest.raises(AccuracyError):
            state(slice(None), dead)


def test_empirical_step_memory_is_bounded_by_the_column_tile():
    # a step holds (B, _COL_TILE) log-weights, never (B, S): at S 200,000
    # a (64, S) block alone would take 102 MB
    rng = np.random.default_rng(43)
    target = EmpiricalTarget(rng.normal(size=(200_000, 2)))
    x = rng.normal(size=(64, 2))
    tracemalloc.start()
    try:
        out = EmpiricalControlEvaluator(ScalarBeta(beta=0.5, dim=2), target)(0.5, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.drift.shape == (64, 2)
    assert peak < 16 * 2**20


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
            uhis = UhisControlEvaluator(params, energy, UhisConfig(n_is=256))
            for t in (0.05, 0.5, 0.9):
                a = uhis(t, x, xi=block)
                b = uhis(t, x, xi=owned)
                assert_allclose(a.drift, b.drift, rtol=5e-9, atol=1e-12)
                assert_allclose(a.weighted_state, b.weighted_state, rtol=5e-9, atol=1e-12)
                assert_allclose(a.ess, b.ess, rtol=5e-9)
                assert_allclose(a.max_weight, b.max_weight, rtol=5e-9)
        # the shared panel took the fast path every time, the owned block never
        assert energy.panel_calls == len(potentials) * 3


def test_one_log_weight_call_per_control_call(monkeypatch):
    # the kernel tiles its rows inside one panel_logw or log_kernel_ratio
    # call; a batch wider than a tile must not split the call
    ratio_calls = []
    inner = hpid.control.log_kernel_ratio

    def counting(*args):
        ratio_calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(hpid.control, "log_kernel_ratio", counting)
    B = 130
    params = ScalarBeta(beta=0.7, dim=2)
    x = np.random.default_rng(8).normal(size=(B, 2))
    block = normals_from(np.random.default_rng(9), (64, 2))
    energy = _PanelCounter(_mixture2())
    uhis = UhisControlEvaluator(params, energy, UhisConfig(n_is=64))
    shared = uhis(0.5, x, xi=block)
    assert energy.panel_calls == 1 and energy.value_points == 0
    assert ratio_calls == []
    wide_cfg = UhisConfig(n_is=64, t_min=0.6)
    wide = UhisControlEvaluator(params, energy, wide_cfg)(0.5, x, block)
    assert energy.panel_calls == 1 and ratio_calls == [0.5]
    target = EmpiricalTarget(np.random.default_rng(10).normal(size=(40, 2)))
    empirical = EmpiricalControlEvaluator(params, target)(0.5, x)
    assert ratio_calls == [0.5, 0.5]
    for out in (shared, wide, empirical):
        assert out.weighted_state.shape == (B, 2) and out.ess.shape == (B,)


def test_uhis_wide_fallback_below_t_min():
    # below t_min the probe is the wide Gaussian regardless of panel
    # sharing, and both noise layouts must agree there too
    params = ScalarBeta(beta=0.7, dim=2)
    cfg = UhisConfig(n_is=64, t_min=0.2)
    block = normals_from(np.random.default_rng(3), (64, 2))
    owned = np.array(np.broadcast_to(block, (4, 64, 2)))
    x = np.random.default_rng(4).normal(size=(4, 2))
    energy = _PanelCounter(_mixture2())
    uhis = UhisControlEvaluator(params, energy, cfg)
    a = uhis(0.1, x, xi=block)
    # a shared panel is one row set: the energy sees each point once,
    # not once per trajectory
    assert energy.value_points == 64
    b = uhis(0.1, x, xi=owned)
    assert energy.value_points == 64 + 4 * 64
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
        uhis = UhisControlEvaluator(params, energy, UhisConfig(n_is=n, t_min=t_min))
        for r in range(reps):
            xi = normals_from(np.random.default_rng(1000 + r), (n, 1))
            vals[r] = uhis(t, x, xi).drift[0]
        est[label] = (vals.mean(), vals.std(ddof=1) / np.sqrt(reps))
    gap = abs(est["universal"][0] - est["wide"][0])
    bar = 3.0 * np.hypot(est["universal"][1], est["wide"][1])
    assert gap < bar
    # both agree with the deterministic quadrature reference
    ref = QuadratureControlEvaluator(params, energy)(t, x).drift[0]
    assert abs(est["universal"][0] - ref) < 4.0 * est["universal"][1]


def test_quadrature_frozen_gaussian_values():
    u = QuadratureControlEvaluator(
        ScalarBeta(beta=0.8, dim=1), GaussianEnergy(dim=1, sigma2=0.6)
    )(0.45, np.array([0.7])).drift
    assert_allclose(u, [-0.4746575105970458252816], rtol=1e-9)
    u = QuadratureControlEvaluator(
        ScalarBeta(beta=0.0, dim=1), GaussianEnergy(dim=1, sigma2=0.5)
    )(0.3, np.array([1.2])).drift
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
    u2 = QuadratureControlEvaluator(params2, energy2, grid)(0.35, x).drift
    u1 = QuadratureControlEvaluator(params1, energy1, grid)(0.35, x[:, None]).drift
    for i in range(2):
        assert_allclose(u2[i], u1[i, 0], rtol=1e-8)


def test_quadrature_grid_validation_and_boundary_guard():
    assert QuadratureGrid(n=1600).n == 1601  # forced odd
    with pytest.raises(AccuracyError):
        # the target mass sits well outside this box
        QuadratureControlEvaluator(
            ScalarBeta(beta=0.0, dim=1),
            GaussianEnergy(dim=1, sigma2=1.0, mean=30.0),
            QuadratureGrid(lo=-2.0, hi=2.0, n=201),
        )(0.5, np.array([0.0]))
    with pytest.raises(InputError):
        QuadratureControlEvaluator(ScalarBeta(beta=0.0, dim=3), GaussianEnergy(dim=3))


def test_control_output_low_ess_flag():
    out = ControlOutput(drift=np.zeros(1), weighted_state=None, ess=1.2, max_weight=1.0)
    assert out.low_ess
    out = ControlOutput(drift=np.zeros(1), weighted_state=None, ess=8.0, max_weight=0.2)
    assert not out.low_ess


def test_quadrature_evaluator_batches_rows():
    # a batched row equals the same evaluator's single-point drift
    # bitwise, for any leading axes
    x2 = np.random.default_rng(31).uniform(-2.0, 2.0, size=(2, 3, 2))
    cases = (
        (ScalarBeta(beta=0.4, dim=1), DoubleWellEnergy(dim=1), None,
         np.array([[0.2], [-1.1], [0.8]])),
        (decompose(np.array([[0.6, 0.2], [0.2, 0.4]])), _mixture2(),
         QuadratureGrid(lo=-10.0, hi=10.0, n=101), x2),
    )
    for params, energy, grid, x in cases:
        quadrature = QuadratureControlEvaluator(params, energy, grid)
        out = quadrature(0.6, x)
        assert out.drift.shape == x.shape
        assert out.ess.shape == out.max_weight.shape == x.shape[:-1]
        for i in np.ndindex(x.shape[:-1]):
            single = quadrature(0.6, x[i]).drift
            assert np.array_equal(out.drift[i], single)


class _ValueSpy:
    """Energy proxy that keeps every array value is evaluated on."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = []

    def value(self, y):
        self.calls.append(np.array(y, dtype=float))
        return self.inner.value(y)


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_energy_is_evaluated_once_per_evaluator(dim):
    # the grid and -E on its nodes never change, so the evaluator's build
    # evaluates every node once, in bounded blocks, and no row or call
    # evaluates the energy again
    inner = DoubleWellEnergy(dim=1) if dim == 1 else _mixture2()
    energy = _ValueSpy(inner)
    n = 301  # 90,601 nodes in 2-D: more than one block
    ev = QuadratureControlEvaluator(
        ScalarBeta(beta=0.4, dim=dim), energy, QuadratureGrid(lo=-9.0, hi=9.0, n=n)
    )
    axes = np.meshgrid(*[np.linspace(-9.0, 9.0, n)] * dim, indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=1)
    assert np.array_equal(np.concatenate(energy.calls), nodes)
    assert max(len(c) for c in energy.calls) <= hpid.control._COL_TILE
    built = len(energy.calls)
    x = np.random.default_rng(32).uniform(-1.0, 1.0, size=(4, dim))
    for t in (0.2, 0.6):
        ev(t, x)
        ev(t, x[0])
    assert len(energy.calls) == built


_HERMITE = {3: lambda z: z**3 - 3.0 * z, 4: lambda z: z**4 - 6.0 * z**2 + 3.0}


@pytest.mark.parametrize(
    "beta", [0.5, [[1.0, 0.4], [0.4, 0.3]]], ids=["scalar", "matrix"]
)
def test_quadrature_matches_the_closed_form_mixture_drift(beta, mixture_weighted_state):
    # Simpson's rule errs by at most (h^4 / 72) int |d^4 f| per axis (its
    # Peano kernel peaks at h^4 / 72), counted twice for the product rule's
    # outer sum. For a unit-mass Gaussian of precision matrix L,
    # int |d^4_k f| = c4 L_kk^2 and int |d^3_k f| = c3 L_kk^1.5, with
    # c_n = E|He_n(Z)|; so each posterior component's mass errs by at most
    # eps_d, and its y_k moment (|y_k| <= 12 on the grid) by eps_n[k]. Every
    # component mean lies more than 8 sd inside the grid, so the truncation
    # is not counted.
    mixture = grid_mixture()
    params = ScalarBeta(beta=beta, dim=2) if np.ndim(beta) == 0 else decompose(beta)
    grid = QuadratureGrid()
    ev = QuadratureControlEvaluator(params, mixture, grid)
    x = np.random.default_rng(61).uniform(-3.0, 3.0, size=(12, 2))
    step4 = ((grid.hi - grid.lo) / (grid.n - 1)) ** 4 / 72.0
    c3, c4 = (
        quad(lambda z: abs(_HERMITE[n](z)) * norm.pdf(z), -np.inf, np.inf)[0]
        for n in (3, 4)
    )
    for t in (0.1, 0.5, 0.9):
        h = np.diag(np.broadcast_to(_h_probe(params.eigvals, t), (2,)))
        prec = np.eye(2) / mixture.sigma2 + params.from_eigenbasis(
            params.from_eigenbasis(h).T
        )
        lkk = np.diag(prec)
        eps_d = 2.0 * step4 * c4 * np.sum(lkk**2)
        eps_n = 2.0 * step4 * (12.0 * c4 * np.sum(lkk**2) + 4.0 * c3 * lkk**1.5)
        exact = mixture_weighted_state(mixture, params, t, x)
        tol = (eps_n + np.abs(exact) * eps_d) / (1.0 - eps_d)
        assert tol.max() < 1e-4
        got = ev(t, x).weighted_state
        assert np.all(np.abs(got - exact) <= tol), np.abs(got - exact).max()


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
        EmpiricalControlEvaluator(
            ScalarBeta(beta=0.0, dim=3), EmpiricalTarget(np.zeros((2, 2)))
        )
