import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hpid.control import EmpiricalControlEvaluator, EmpiricalTarget
from hpid.diagnostics import (
    autocorrelation,
    bootstrap_transition_gap,
    mode_assignment,
    transition_time,
    transition_times_per,
    write_autocorr_csv,
    write_modes_csv,
    write_transition_json,
)
from hpid.errors import ConfigError, InputError
from hpid.kernels import ScalarBeta
from hpid.sde import SdeConfig, integrate_batch
from hpid.targets import GaussianMixtureEnergy


def _traj(state_curve, weighted_curve, terminal=2.0):
    # 1-d states scaled so x(t).x(1)/|x(1)|^2 equals the given curve
    sc = np.asarray(state_curve, dtype=float)
    wc = np.asarray(weighted_curve, dtype=float)
    return (terminal * sc)[:, None], (terminal * wc)[:, None], np.array([terminal])


def _arrays(times, *trajs):
    """autocorrelation's (times, states, weighted, terminals) for these rows."""
    states, weighted, terminals = (np.stack(a) for a in zip(*trajs))
    return np.asarray(times, dtype=float), states, weighted, terminals


TIMES = [0.0, 0.25, 0.5, 0.75, 1.0]
CURVE_A = ([0.0, 0.2, 0.4, 0.8, 1.0], [0.6, 0.9, 1.0, 1.0, 1.0])
CURVE_B = ([0.0, 0.0, 0.5, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0, 1.0])


def _series():
    return autocorrelation(*_arrays(TIMES, _traj(*CURVE_A), _traj(*CURVE_B)))


def test_autocorrelation_curves_match_construction():
    s = _series()
    assert s.n_trajectories == 2
    assert_allclose(s.per_state[0], CURVE_A[0], atol=1e-15)
    assert_allclose(s.per_weighted[1], CURVE_B[1], atol=1e-15)
    assert_allclose(s.corr_state, np.mean([CURVE_A[0], CURVE_B[0]], axis=0))
    assert_allclose(s.corr_weighted, np.mean([CURVE_A[1], CURVE_B[1]], axis=0))


def test_transition_time_interpolates():
    s = _series()
    # averaged state curve [0, .1, .45, .9, 1]: crosses 0.5 inside (0.5, 0.75)
    t_state = 0.5 + (0.05 / 0.45) * 0.25
    # averaged weighted curve [.3, .95, 1, 1, 1]
    t_weighted = (0.2 / 0.65) * 0.25
    assert transition_time(s) == pytest.approx(t_weighted, rel=1e-12)
    per_s = transition_times_per(s, which="state")
    assert_allclose(per_s, [0.5625, 0.5], atol=1e-12)
    per_w = transition_times_per(s, which="weighted")
    assert_allclose(per_w, [0.0, 0.125], atol=1e-12)
    with pytest.raises(InputError, match="which"):
        transition_times_per(s, which="both")
    # a threshold never reached reports nan
    assert np.isnan(transition_time(s, threshold=2.0))
    # gap between the observed curves
    b = bootstrap_transition_gap(s, n_resamples=64, seed=3)
    assert b["gap"] == pytest.approx(t_state - t_weighted, rel=1e-12)


def test_bootstrap_is_deterministic_and_positive_here():
    s = _series()
    a = bootstrap_transition_gap(s, n_resamples=200, seed=11)
    b = bootstrap_transition_gap(s, n_resamples=200, seed=11)
    assert a == b
    assert set(a) == {"gap", "p5", "p50", "p95", "n_resamples"}
    assert a["n_resamples"] == 200
    # both source rows have the weighted curve committing first, so every
    # resample keeps the gap positive
    assert a["p5"] > 0.3
    assert a["p5"] <= a["p50"] <= a["p95"]


def _looped_crossing(times, values, threshold):
    """The first crossing of one curve, scanned point by point."""
    if values[0] >= threshold:
        return float(times[0])
    for i in range(1, len(values)):
        if values[i] >= threshold:
            t0, t1, v0, v1 = times[i - 1], times[i], values[i - 1], values[i]
            if v1 == v0:
                return float(t1)
            return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))
    return math.nan


def _looped_bootstrap(s, threshold, n_resamples, seed):
    """p5, p50 and p95 of the gap, one rng call and two scans per resample."""
    b = s.per_state.shape[0]
    rng = np.random.default_rng(seed)
    gaps = np.empty(n_resamples)
    for r in range(n_resamples):
        idx = rng.integers(0, b, b)
        gaps[r] = _looped_crossing(
            s.times, s.per_state[idx].mean(axis=0), threshold
        ) - _looped_crossing(s.times, s.per_weighted[idx].mean(axis=0), threshold)
    return [float(np.percentile(gaps, q)) for q in (5, 50, 95)]


def _random_series(rng, b, r, never=False):
    """b random rising overlap curves of r points that end at 1, rounded to
    tenths so that they have plateaus and points on the threshold; with
    never, every state curve stays below 0.5."""
    curves = np.sort(np.round(rng.uniform(-0.3, 1.3, (2, b, r)), 1), axis=-1)
    curves[..., -1] = 1.0
    if never:
        curves[0] = np.minimum(curves[0], 0.4)
    states, weighted = curves[..., None]  # terminal 1: the overlap is the curve
    return autocorrelation(np.linspace(0.0, 1.0, r), states, weighted, np.ones((b, 1)))


def test_crossing_times_match_a_point_by_point_scan():
    rng = np.random.default_rng(8)
    for _ in range(30):
        s = _random_series(rng, int(rng.integers(1, 12)), int(rng.integers(1, 40)))
        for threshold in (0.5, 0.3):
            for which, rows in (("state", s.per_state), ("weighted", s.per_weighted)):
                want = [_looped_crossing(s.times, row, threshold) for row in rows]
                got = transition_times_per(s, threshold, which)
                assert np.array_equal(got, want, equal_nan=True)
            want = _looped_crossing(s.times, s.corr_weighted, threshold)
            assert np.array_equal(transition_time(s, threshold), want, equal_nan=True)


@pytest.mark.parametrize(
    "b, r, n_resamples, block, never",
    [
        (1, 9, 37, None, False),  # b = 1: every resample is the one curve
        (7, 12, 1000, None, False),  # one block
        (7, 12, 101, 64, False),  # a block per resample
        (13, 10, 250, 1000, False),  # blocks of 7, the last one of 5
        (5, 8, 40, 100, True),  # the state never crosses: NaN gaps
    ],
)
def test_blocked_bootstrap_equals_one_resample_at_a_time(
    monkeypatch, b, r, n_resamples, block, never
):
    if block is not None:
        monkeypatch.setattr("hpid.diagnostics._BOOTSTRAP_BLOCK", block)
    s = _random_series(np.random.default_rng(b * r), b, r, never)
    got = bootstrap_transition_gap(s, n_resamples=n_resamples, seed=5)
    want = _looped_bootstrap(s, 0.5, n_resamples, 5)
    assert np.array_equal([got[k] for k in ("p5", "p50", "p95")], want, equal_nan=True)
    observed = _looped_crossing(s.times, s.corr_state, 0.5) - _looped_crossing(
        s.times, s.corr_weighted, 0.5
    )
    assert np.array_equal(got["gap"], observed, equal_nan=True)
    assert got["n_resamples"] == n_resamples
    assert np.isnan(got["p50"]) == never


def test_input_validation():
    times, states, weighted, terminals = _arrays(TIMES, _traj(*CURVE_A))
    with pytest.raises(InputError, match="no trajectories"):
        autocorrelation(times, states[:0], weighted[:0], terminals[:0])
    mismatched = [
        (times[:3], states, weighted, terminals),
        (times, states, weighted[:, :3], terminals),
        (times, states, weighted, np.zeros((1, 2))),
        (times, states, weighted, np.zeros((2, 1))),
    ]
    for args in mismatched:
        with pytest.raises(InputError, match="mismatched shapes"):
            autocorrelation(*args)
    with pytest.raises(InputError, match="zero"):
        autocorrelation(*_arrays(TIMES, _traj(*CURVE_A, terminal=0.0)))
    bad = weighted.copy()
    bad[0, 2, 0] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        autocorrelation(times, states, bad, terminals)
    # a missing array is a shape mismatch like any other
    with pytest.raises(InputError, match="mismatched shapes"):
        autocorrelation(times, states, None, terminals)


def test_batch_input_requires_recording():
    target = EmpiricalTarget(np.array([[3.0], [-3.0]]))
    control = EmpiricalControlEvaluator(ScalarBeta(1.0, 1), target)
    cfg = SdeConfig(n_steps=8, seed=0)
    # an unrecorded batch has (0, R, d) arrays, whichever way it was asked for
    for record in ("none", []):
        batch = integrate_batch(
            cfg, control, dim=1, n_trajectories=3, params=control.params, record=record
        )
        with pytest.raises(InputError, match="no trajectories"):
            autocorrelation(
                batch.times, batch.states, batch.weighted_states, batch.terminals
            )


def test_weighted_state_commits_before_state():
    # far-apart targets under confinement: x-hat picks its row early
    # while x only approaches it near the end of the bridge
    target = EmpiricalTarget(np.array([[8.0, 0.0], [-8.0, 0.0]]))
    control = EmpiricalControlEvaluator(ScalarBeta(1.0, 2), target)
    cfg = SdeConfig(n_steps=200, seed=21, record_every=2)
    batch = integrate_batch(
        cfg, control, dim=2, n_trajectories=40, params=ScalarBeta(1.0, 2), record="all"
    )
    series = autocorrelation(
        batch.times, batch.states, batch.weighted_states, batch.terminals
    )
    assert series.per_state.shape == (40, batch.times.shape[0])
    t_w = transition_time(series)
    per_state = transition_times_per(series, which="state")
    t_s = float(np.nanmean(per_state))
    assert 0.0 < t_w < t_s < 1.0
    # the state overlap approaches 1 at the end of the run
    assert series.corr_state[-1] > 0.8
    assert series.corr_weighted[-1] > 0.95
    gap = bootstrap_transition_gap(series, n_resamples=300, seed=0)
    assert gap["gap"] > 0
    assert gap["p5"] > 0


def test_mode_assignment_counts():
    m = GaussianMixtureEnergy(
        centers=np.array([[0.0, 0.0], [5.0, 5.0]]),
        sigma2=0.5,
        weights=np.array([0.25, 0.75]),
    )
    pts = np.array([[0.1, -0.2], [4.8, 5.1], [5.2, 4.9], [4.0, 4.0]])
    hist = mode_assignment(pts, m)
    assert_allclose(hist.counts, [1.0, 3.0])
    assert_allclose(hist.expected, [1.0, 3.0])
    assert hist.chi2 == 0.0
    assert hist.assignments.tolist() == [0, 1, 1, 1]
    with pytest.raises(InputError, match="no terminal"):
        mode_assignment(np.empty((0, 2)), m)


def test_mode_assignment_one_dimensional_and_zero_weight():
    m = GaussianMixtureEnergy(
        centers=np.array([[0.0], [4.0]]),
        sigma2=0.5,
        weights=np.array([0.0, 1.0]),
    )
    hist = mode_assignment(np.array([0.1, 3.9, 4.2]), m)
    assert_allclose(hist.counts, [1.0, 2.0])
    # mass observed in a mode the target gives zero weight
    assert hist.chi2 == np.inf


def test_csv_and_json_writers(tmp_path):
    s = _series()
    ac = tmp_path / "autocorr.csv"
    write_autocorr_csv(str(ac), s)
    rows = np.genfromtxt(ac, delimiter=",", names=True)
    assert rows.dtype.names == ("t", "corr_state", "corr_weighted")
    assert_allclose(rows["corr_state"], s.corr_state, rtol=0, atol=0)

    m = GaussianMixtureEnergy(
        centers=np.array([[0.0], [4.0]]),
        sigma2=0.5,
        weights=np.array([0.5, 0.5]),
    )
    hist = mode_assignment(np.array([0.1, 3.9]), m)
    mc = tmp_path / "modes.csv"
    write_modes_csv(str(mc), hist)
    lines = mc.read_text().strip().split("\n")
    assert lines[0] == "mode,count,expected"
    assert lines[1].startswith("0,1,")
    assert len(lines) == 3

    tj = tmp_path / "transition.json"
    boot = bootstrap_transition_gap(s, n_resamples=32, seed=0)
    write_transition_json(str(tj), s, threshold=0.5, bootstrap=boot)
    doc = json.loads(tj.read_text())
    assert doc["threshold"] == 0.5
    assert doc["n_trajectories"] == 2
    assert doc["transition_weighted"] == pytest.approx(transition_time(s))
    assert doc["bootstrap_gap"]["n_resamples"] == 32

    # a threshold that is never reached serializes as null
    write_transition_json(str(tj), s, threshold=2.0)
    doc = json.loads(tj.read_text())
    assert doc["transition_weighted"] is None
    assert doc["transition_state"] is None
    assert "bootstrap_gap" not in doc


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_transition_json_is_strict_when_a_curve_never_crosses(tmp_path):
    # the state overlap stays at 0.1, so the bootstrap gap is NaN at every
    # level; a strict parser must still read the file
    flat = _traj([0.1] * 5, CURVE_B[1])
    s = autocorrelation(*_arrays(TIMES, flat, flat, flat))
    boot = bootstrap_transition_gap(s, n_resamples=16, seed=0)
    assert np.isnan(boot["gap"]) and np.isnan(boot["p5"])
    tj = tmp_path / "transition.json"
    write_transition_json(str(tj), s, threshold=0.5, bootstrap=boot)
    doc = json.loads(tj.read_text(), parse_constant=_reject_constant)
    assert doc["transition_state"] is None
    assert doc["transition_weighted"] == transition_time(s)
    gap = doc["bootstrap_gap"]
    assert [gap[k] for k in ("gap", "p5", "p50", "p95")] == [None] * 4
    assert gap["n_resamples"] == 16
