"""
Empirical targets memorize, and the weighted state shows when
=============================================================

When the target is a finite set of ground-truth vectors, the exact drift
is available in closed form and every trajectory must finish on one of
the stored rows: the sampler reproduces the dataset, it does not
generalize. The interesting structure is in time: the weighted state
x-hat (the importance-weighted guess of the final row) commits to its row
well before the state x gets there. The crossing times of the two overlap
curves make that precedence quantitative.

Run:  python demos/04_empirical_memorization.py   (~5 s)
"""

import numpy as np

from hpid.control import EmpiricalControlEvaluator, EmpiricalTarget
from hpid.diagnostics import (
    autocorrelation,
    bootstrap_transition_gap,
    transition_time,
    transition_times_per,
)
from hpid.kernels import ScalarBeta
from hpid.sde import SdeConfig, integrate_batch

rows = np.random.default_rng(7).normal(size=(6, 20)) * 4.0
pair_dists = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
min_pair = pair_dists[pair_dists > 0].min()
print(f"dataset: 6 rows in 20 dimensions, closest pair {min_pair:.1f} apart")

params = ScalarBeta(1.0, 20)
batch = integrate_batch(
    SdeConfig(n_steps=200, seed=3, record_every=2),
    EmpiricalControlEvaluator(params, EmpiricalTarget(rows)),
    dim=20,
    n_trajectories=50,
    params=params,
    record="all",
)

# each terminal sits on exactly one row
d = np.linalg.norm(batch.terminals[:, None, :] - rows[None, :, :], axis=2)
nearest = d.min(axis=1)
chosen = d.argmin(axis=1)
print(f"worst distance from a terminal to its row: {nearest.max():.3f}")
print(f"rows hit: {np.bincount(chosen, minlength=6)}  (50 trajectories)")
committed = (batch.max_weight_series[:, -1] > 0.999).mean()
print(f"trajectories whose final softmax weight exceeds 0.999: {committed:.0%}")

# overlap curves: when does each normalized curve first cross 1/2?
series = autocorrelation(
    batch.times, batch.states, batch.weighted_states, batch.terminals
)
t_w = transition_time(series)
t_s = float(np.nanmedian(transition_times_per(series, which="state")))
print(f"\nweighted state crosses 0.5 at t = {t_w:.3f}")
print(f"state (median trajectory) crosses at t = {t_s:.3f}")
boot = bootstrap_transition_gap(series, n_resamples=500, seed=0)
print(
    f"bootstrap gap (state minus weighted): {boot['gap']:.3f}, "
    f"90% band [{boot['p5']:.3f}, {boot['p95']:.3f}]"
)
print("the band staying above zero is the precedence claim")
