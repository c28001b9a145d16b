"""
Narrow Gaussian target: every quantity has a closed form
========================================================

A zero-confinement run toward N(0, s^2 I) is the one setting where the
optimal drift, the terminal law, and the partition function are all known
exactly, so it makes a good first check that the machinery fits together.

Run:  python demos/01_gaussian_closed_form.py   (~15 s)
"""

import numpy as np

from hpid.control import (
    FunctionControlEvaluator,
    QuadratureControlEvaluator,
    UhisConfig,
)
from hpid.kernels import ScalarBeta
from hpid.sampler import RunConfig, run
from hpid.sde import SdeConfig, integrate_batch
from hpid.targets import GaussianEnergy

S2 = 0.25  # target variance; Z = (2 pi s^2)^(d/2)
DIM = 2


def u_exact(t, x):
    # optimal drift for the beta = 0 Gaussian target
    return (S2 - 1.0) / (1.0 + t * (S2 - 1.0)) * x


# the closed form should agree with the 1-d quadrature oracle everywhere
worst = 0.0
oracle = QuadratureControlEvaluator(ScalarBeta(0.0, 1), GaussianEnergy(1, sigma2=S2))
xs = np.array([[-1.5], [0.3], [2.0]])
for t in (0.1, 0.5, 0.9):
    worst = max(worst, np.abs(u_exact(t, xs) - oracle(t, xs).drift).max())
print(f"closed-form drift vs quadrature oracle: worst gap {worst:.2e}")

# drive the integrator with the exact drift: terminal moments are pure
# Euler-Maruyama error plus Monte Carlo noise
batch = integrate_batch(
    SdeConfig(n_steps=200, seed=10),
    FunctionControlEvaluator(u_exact),
    dim=DIM,
    n_trajectories=4000,
)
print("\nexact-control run (S=4000, K=200):")
print(f"  terminal mean      {batch.terminals.mean(axis=0).round(4)}  (want ~0)")
print(f"  terminal variance  {batch.terminals.var(axis=0).round(4)}  (want {S2})")

# now the real pipeline: the drift is estimated by importance sampling
# around the universal probe, and the run also returns a Z estimate
summary = run(
    RunConfig(
        n_samples=4000,
        sde=SdeConfig(n_steps=200, seed=11),
        beta=0.0,
        energy=GaussianEnergy(dim=DIM, sigma2=S2),
        control_mode="uhis",
        uhis=UhisConfig(n_is=2000, reuse_probe_noise=True),
    )
)
z_true = (2.0 * np.pi * S2) ** (DIM / 2)
print("\nimportance-sampled run (same sizes, n_is=2000):")
print(f"  terminal mean      {summary.terminals.mean(axis=0).round(4)}")
print(f"  terminal variance  {summary.terminals.var(axis=0).round(4)}")
print(f"  Z estimate         {summary.z_estimate:.4f} +- {summary.z_stderr:.4f}")
print(f"  Z closed form      {z_true:.4f}")
# early in a beta = 0 run the probe is much wider than this narrow
# target, so a few steps have tiny effective sample sizes; the drift is
# small there and the damage averages out, but the floor looks dramatic
print(f"  ESS floor {summary.min_ess:.2f}, median per-path floor "
      f"{np.median(summary.ess_min):.1f} of 2000")
