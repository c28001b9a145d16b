import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hpid.control import (
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    FunctionControlEvaluator,
    UhisConfig,
    UhisControlEvaluator,
)
from hpid.errors import InputError, IntegrationError
from hpid.kernels import MatrixBeta, ScalarBeta, _harmonic_step, decompose
from hpid.rng import PURPOSE_INCREMENT, normal_rows
from hpid.sde import SdeConfig, integrate_batch
from hpid.targets import GaussianMixtureEnergy


def _zero_control():
    return FunctionControlEvaluator(lambda t, x: np.zeros_like(x))


def _mixture2():
    return GaussianMixtureEnergy(
        centers=np.array([[1.0, 0.0], [-1.0, 0.5]]),
        sigma2=0.6,
        weights=np.array([0.4, 0.6]),
    )


def test_config_validation():
    with pytest.raises(InputError):
        SdeConfig(n_steps=1, seed=0)
    with pytest.raises(InputError):
        SdeConfig(n_steps=10, seed=0, record_every=0)
    with pytest.raises(InputError):
        SdeConfig(n_steps=10, seed=0, record_every=11)
    assert SdeConfig(n_steps=8, seed=0).dt == 0.125


def test_time_grid_convention():
    # drift is evaluated at the left endpoint of each step, from t=0 at
    # x=0 up to t = 1 - 1/K
    calls = []

    def spy(t, x):
        calls.append((t, x.copy()))
        return np.zeros_like(x)

    cfg = SdeConfig(n_steps=5, seed=3)
    traj = integrate_batch(
        cfg, FunctionControlEvaluator(spy), dim=2, n_trajectories=1, record="all"
    )
    assert len(calls) == 5
    assert calls[0][0] == 0.0
    assert np.all(calls[0][1] == 0.0)
    assert_allclose(calls[-1][0], 1.0 - 0.2)
    assert np.all(np.diff(traj.times) > 0)
    assert_allclose(traj.times[-1], 1.0 - 0.2)
    assert np.isfinite(traj.terminals[0]).all()


def test_uncontrolled_terminal_is_standard_normal():
    cfg = SdeConfig(n_steps=100, seed=12, record_every=25)
    batch = integrate_batch(cfg, _zero_control(), dim=1, n_trajectories=10_000, record=[0])
    x1 = batch.terminals[:, 0]
    s = x1.size
    assert abs(x1.mean()) < 3.0 / np.sqrt(s)
    var = x1.var(ddof=1)
    assert abs(var - 1.0) < 3.0 * np.sqrt(2.0 / (s - 1))
    # the path weight is identically zero without control or params
    assert np.all(batch.log_weight == 0.0)


def test_uncontrolled_covariance_with_terminal():
    # E[x(t) x(1)] = t for a standard Wiener path
    cfg = SdeConfig(n_steps=100, seed=5, record_every=25)
    batch = integrate_batch(
        cfg, _zero_control(), dim=1, n_trajectories=8000, record="all"
    )
    x1 = batch.terminals[:, 0]
    for r, t in enumerate(batch.times):
        prod = batch.states[:, r, 0] * x1
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean() - t) < 3.5 * se + 1e-12


def test_girsanov_weight_is_a_martingale():
    # constant drift c: E[exp(log_weight)] = 1 restores the Wiener law
    c = 0.8
    cfg = SdeConfig(n_steps=50, seed=21)
    batch = integrate_batch(
        cfg,
        FunctionControlEvaluator(lambda t, x: np.full_like(x, c)),
        dim=1,
        n_trajectories=4000,
    )
    # controlled dynamics shift the terminal mean to c
    se_t = batch.terminals[:, 0].std(ddof=1) / np.sqrt(4000)
    assert abs(batch.terminals[:, 0].mean() - c) < 3.5 * se_t
    w = np.exp(batch.log_weight)
    se_w = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 3.5 * se_w
    # reweighted terminal recovers the uncontrolled mean of zero
    rw = batch.terminals[:, 0] * w
    se_rw = rw.std(ddof=1) / np.sqrt(rw.size)
    assert abs(rw.mean()) < 3.5 * se_rw


@pytest.mark.parametrize("potential", ["scalar", "matrix"])
def test_log_weight_has_mehler_mass(potential):
    # uncontrolled paths weighted by the exact step factors carry the mass
    # of the harmonic reference at t = 1, E[exp(log_weight)] = int G_plus(1;
    # y; 0) dy = prod_i cosh(sqrt(lambda_i))^(-1/2), even at five steps
    if potential == "scalar":
        params = ScalarBeta(beta=2.0, dim=1)
    else:
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        params = decompose(rot @ np.diag([0.5, 2.0]) @ rot.T)
    S = 20_000
    batch = integrate_batch(
        SdeConfig(n_steps=5, seed=9),
        _zero_control(),
        dim=params.dim,
        n_trajectories=S,
        params=params,
    )
    lam = np.broadcast_to(params.eigvals, (params.dim,))
    want = float(np.prod(np.cosh(np.sqrt(lam)) ** -0.5))
    w = np.exp(batch.log_weight)
    se = w.std(ddof=1) / np.sqrt(S)
    assert abs(w.mean() - want) < 3.5 * se


@pytest.mark.parametrize("reuse", [False, True])
def test_batch_partition_invariance(reuse):
    # one batch of 30 and consecutive sub-batches 13 + 17 must agree
    # bitwise, for per-trajectory probe noise and for the shared panel
    params = ScalarBeta(beta=0.6, dim=2)
    cfg = SdeConfig(n_steps=20, seed=77)

    def make_control():
        return UhisControlEvaluator(
            params, _mixture2(), UhisConfig(n_is=64, reuse_probe_noise=reuse)
        )

    whole = integrate_batch(
        cfg, make_control(), dim=2, n_trajectories=30, params=params, record="all"
    )
    head = integrate_batch(
        cfg, make_control(), dim=2, n_trajectories=13, params=params, record="all"
    )
    tail = integrate_batch(
        cfg,
        make_control(),
        dim=2,
        n_trajectories=17,
        first_trajectory=13,
        params=params,
        record="all",
    )
    assert np.array_equal(
        whole.terminals, np.concatenate([head.terminals, tail.terminals])
    )
    assert np.array_equal(
        whole.log_weight, np.concatenate([head.log_weight, tail.log_weight])
    )
    assert np.array_equal(whole.states, np.concatenate([head.states, tail.states]))


@given(
    kind=st.sampled_from(["uhis", "uhis-shared", "empirical"]),
    potential=st.sampled_from(["scalar", "matrix"]),
    n_split=st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
    ),
    n_is=st.integers(1, 400),
    spread=st.just(1.0),
)
@example(kind="uhis-shared", potential="scalar", n_split=(3, 2), n_is=8, spread=1.0)
@example(kind="uhis", potential="matrix", n_split=(2, 1), n_is=8, spread=1.0)
@example(kind="empirical", potential="matrix", n_split=(2, 1), n_is=8, spread=1.0)
# rows this far apart give softmax gaps below -708, whose weights are flushed
@example(kind="empirical", potential="scalar", n_split=(37, 17), n_is=8, spread=30.0)
@example(kind="empirical", potential="matrix", n_split=(37, 20), n_is=8, spread=30.0)
# a transposed right operand once made this split change bits
@example(kind="uhis-shared", potential="matrix", n_split=(15, 5), n_is=269, spread=1.0)
@settings(max_examples=60, deadline=None)
def test_any_batch_split_is_bitwise_invariant(
    kind, potential, n_split, n_is, spread
):
    # the probe noise is addressed by trajectory (or shared by step) and
    # every product over trajectory rows runs on fixed-size row tiles, so
    # every split of a batch reproduces the one-batch run bit for bit, for
    # each evaluator, any probe count, and scalar or rotated matrix
    # confinement
    n, split = n_split
    if potential == "scalar":
        params = ScalarBeta(beta=0.6, dim=2)
    else:
        c, s = np.cos(0.5), np.sin(0.5)
        rot = np.array([[c, -s], [s, c]])
        params = decompose(rot @ np.diag([0.3, 1.2]) @ rot.T)
    if kind == "empirical":
        rows = spread * np.random.default_rng(11).normal(size=(5, 2))
        control = EmpiricalControlEvaluator(params, EmpiricalTarget(rows))
    else:
        cfg = UhisConfig(n_is=n_is, reuse_probe_noise=kind == "uhis-shared")
        control = UhisControlEvaluator(params, _mixture2(), cfg)

    def batch(first, size):
        return integrate_batch(
            SdeConfig(n_steps=4, seed=5),
            control,
            dim=2,
            n_trajectories=size,
            first_trajectory=first,
            params=params,
            record="all",
        )

    whole, head, tail = batch(0, n), batch(0, split), batch(split, n - split)
    fields = ("terminals", "log_weight", "states", "weighted_states")
    for name in fields:
        parts = np.concatenate([getattr(head, name), getattr(tail, name)])
        assert np.array_equal(getattr(whole, name), parts), name


def test_matrix_beta_rotates_each_state_once(monkeypatch):
    # the integrator carries each state's eigenbasis coordinates to the next
    # step; the path weight must equal, bit for bit, the step sum with both
    # states of every step rotated afresh, and the terminals must not
    # depend on the reference potential at all
    q, _ = np.linalg.qr(np.random.default_rng(31).normal(size=(3, 3)))
    params = decompose(q @ np.diag([0.2, 0.9, 2.5]) @ q.T)
    cfg = SdeConfig(n_steps=12, seed=8)
    control = FunctionControlEvaluator(lambda t, x: np.sin(x) - t * x)
    B = 37
    rotations = []
    rotate = MatrixBeta.to_eigenbasis

    def counting(self, v):
        rotations.append(np.shape(v))
        return rotate(self, v)

    monkeypatch.setattr(MatrixBeta, "to_eigenbasis", counting)
    batch = integrate_batch(
        cfg, control, dim=3, n_trajectories=B, params=params, record="all"
    )
    assert len(rotations) == cfg.n_steps + 1
    monkeypatch.undo()
    free = integrate_batch(cfg, control, dim=3, n_trajectories=B)
    assert np.array_equal(batch.terminals, free.terminals)

    path = np.concatenate([batch.states, batch.terminals[:, None, :]], axis=1)
    factor = _harmonic_step(params, cfg.dt)
    sqrt_dt = math.sqrt(cfg.dt)
    log_w = np.zeros(B)
    for k in range(cfg.n_steps):
        x, x_new = np.ascontiguousarray(path[:, k]), np.ascontiguousarray(path[:, k + 1])
        u = control(k * cfg.dt, x).drift
        xi = normal_rows(cfg.seed, k, PURPOSE_INCREMENT, 0, B, 3)
        log_w += -sqrt_dt * np.einsum("bd,bd->b", u, xi) - 0.5 * cfg.dt * np.einsum(
            "bd,bd->b", u, u
        )
        log_w += factor(params.to_eigenbasis(x), params.to_eigenbasis(x_new))
    assert np.array_equal(batch.log_weight, log_w)


def test_single_trajectory_matches_batch_row():
    params = ScalarBeta(beta=0.6, dim=2)
    cfg = SdeConfig(n_steps=15, seed=31)
    control = UhisControlEvaluator(params, _mixture2(), UhisConfig(n_is=32))
    batch = integrate_batch(
        cfg, control, dim=2, n_trajectories=10, params=params, record=[7]
    )
    single = integrate_batch(
        cfg,
        control,
        dim=2,
        n_trajectories=1,
        first_trajectory=7,
        params=params,
        record="all",
    )
    assert np.array_equal(single.terminals[0], batch.terminals[7])
    assert single.log_weight[0] == batch.log_weight[7]
    assert np.array_equal(single.states[0], batch.states[0])
    assert np.array_equal(single.weighted_states[0], batch.weighted_states[0])


def test_record_selection_and_step_thinning():
    cfg = SdeConfig(n_steps=10, seed=1, record_every=3)
    batch = integrate_batch(
        cfg, _zero_control(), dim=1, n_trajectories=6, record=[2, 5]
    )
    # steps 0,3,6,9 recorded, plus the final step is always present
    assert_allclose(batch.times, [0.0, 0.3, 0.6, 0.9])
    assert np.array_equal(batch.record_indices, [2, 5])
    assert batch.states.shape == (2, 4, 1)
    assert batch.ess_series.shape == (2, 4)
    assert batch.max_weight_series.shape == (2, 4)
    none = integrate_batch(cfg, _zero_control(), dim=1, n_trajectories=6)
    assert none.states.shape == none.weighted_states.shape == (0, 4, 1)
    assert none.ess_series.shape == none.max_weight_series.shape == (0, 4)
    assert none.terminals.shape == (6, 1)
    with pytest.raises(InputError):
        integrate_batch(cfg, _zero_control(), dim=1, n_trajectories=6, record=[6])
    with pytest.raises(InputError):
        integrate_batch(cfg, _zero_control(), dim=1, n_trajectories=6, record="some")


def test_final_step_always_recorded():
    cfg = SdeConfig(n_steps=7, seed=1, record_every=4)
    batch = integrate_batch(cfg, _zero_control(), dim=1, n_trajectories=2, record="all")
    # steps 0, 4, then 6 = K-1 appended
    assert_allclose(batch.times, [0.0, 4.0 / 7.0, 6.0 / 7.0])


def test_weighted_state_recording():
    params = ScalarBeta(beta=0.4, dim=1)
    target = EmpiricalTarget(np.array([[1.0], [-1.0]]))
    cfg = SdeConfig(n_steps=8, seed=2)
    control = EmpiricalControlEvaluator(params, target)
    traj = integrate_batch(
        cfg, control, dim=1, n_trajectories=1, params=params, record="all"
    )
    assert np.isfinite(traj.weighted_states[0]).all()
    # the weighted state is a convex combination of the two targets
    assert np.all(np.abs(traj.weighted_states[0]) <= 1.0 + 1e-12)
    # the last record is x-hat of the state at the last drift instant
    last = control(traj.times[-1], traj.states[:, -1])
    assert np.array_equal(last.weighted_state[0], traj.weighted_states[0, -1])


def test_opaque_control_yields_no_weighted_state():
    cfg = SdeConfig(n_steps=6, seed=2)
    traj = integrate_batch(cfg, _zero_control(), dim=1, n_trajectories=1, record="all")
    assert np.all(np.isnan(traj.weighted_states[0]))
    assert np.all(traj.ess_series[0] == 1.0)
    assert np.all(traj.max_weight_series[0] == 1.0)


def test_divergence_raises_integration_error():
    cfg = SdeConfig(n_steps=10, seed=0)
    bad = FunctionControlEvaluator(lambda t, x: np.full_like(x, np.inf))
    with pytest.raises(IntegrationError, match="diverged at step 0"):
        integrate_batch(cfg, bad, dim=1, n_trajectories=3)
    try:
        integrate_batch(cfg, bad, dim=1, n_trajectories=3, first_trajectory=40)
    except IntegrationError as err:
        assert err.step == 0
        assert err.trajectory == 40
        assert err.state_norm == 0.0


def test_bridge_contracts_onto_single_target():
    # with one stored sample the drift steers every path onto it; the
    # terminal mean square error must fall as the step count grows
    params = ScalarBeta(beta=0.9, dim=2)
    y0 = np.array([[2.0, -1.0]])
    control = EmpiricalControlEvaluator(params, EmpiricalTarget(y0))
    mse = []
    for K in (16, 64, 256):
        cfg = SdeConfig(n_steps=K, seed=6)
        batch = integrate_batch(
            cfg, control, dim=2, n_trajectories=200, params=params
        )
        mse.append(float(np.mean(np.sum((batch.terminals - y0[0]) ** 2, axis=1))))
    assert mse[0] > mse[1] > mse[2]
    assert mse[2] < mse[0] / 4.0


def test_ess_minimum_tracking():
    params = ScalarBeta(beta=0.6, dim=2)
    control = UhisControlEvaluator(params, _mixture2(), UhisConfig(n_is=64))
    cfg = SdeConfig(n_steps=12, seed=8)
    batch = integrate_batch(cfg, control, dim=2, n_trajectories=5, params=params)
    assert batch.ess_min_per.shape == (5,)
    assert np.all(batch.ess_min_per >= 1.0 - 1e-9)
    assert np.all(batch.ess_min_per <= 64.0 + 1e-9)
