"""
Partition-function sweeps: spread shrinks with steps and with samples
=====================================================================

Each run carries a per-trajectory estimate of Z = integral of exp(-E),
unbiased at every step count: each step is weighted by the exact
harmonic transition factor. Repeating runs while sweeping the step
count K (control accuracy, so weight variance) and the trajectory count
S (Monte Carlo spread) shows both knobs doing their job: medians stay at
the oracle and the spread tightens.

Run:  python demos/05_partition_sweeps.py   (~60 s)
"""

import numpy as np

from hpid.control import UhisConfig
from hpid.sampler import RunConfig, estimate_z_convergence
from hpid.sde import SdeConfig
from hpid.targets import grid_mixture, mixture_partition_oracle

m = grid_mixture()
z_true = mixture_partition_oracle(m)
print(f"target: 3x3 mixture under beta = 0.5 confinement; oracle Z = {z_true:.5f}\n")

base = RunConfig(
    n_samples=250,
    sde=SdeConfig(n_steps=50, seed=2024),
    beta=0.5,
    energy=m,
    control_mode="uhis",
    uhis=UhisConfig(n_is=1000, reuse_probe_noise=True),
)
rows = estimate_z_convergence(
    base, steps_list=[10, 25, 50, 100], samples_list=[100, 250, 500], n_repeats=6
)

for sweep, label in (("steps", "K (S fixed at 250)"), ("samples", "S (K fixed at 50)")):
    print(f"sweep over {label}:")
    settings = sorted({r["setting"] for r in rows if r["sweep"] == sweep})
    for s in settings:
        zs = np.array([r["z"] for r in rows if r["sweep"] == sweep and r["setting"] == s])
        q1, q3 = np.percentile(zs, [25, 75])
        err = (np.median(zs) - z_true) / z_true
        print(
            f"  {s:>5}: median {np.median(zs):.4f} ({err:+.1%} vs oracle), "
            f"IQR {q3 - q1:.4f}"
        )
    print()
print("reading: Z is unbiased at every K, so every median sits near the oracle;")
print("more steps make the drift more accurate and tighten the spread, and the")
print("samples sweep tightens the IQR from the smallest to the largest S, though")
print("6 repeats leave the middle settings noisy; bump n_repeats for smoother quartiles")
