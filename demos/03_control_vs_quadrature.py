"""
Importance-sampled drift against the quadrature oracle
======================================================

In one dimension the optimal drift can be computed to machine accuracy by
Simpson quadrature, which makes it an oracle for the estimator actually
used in runs: self-normalized importance sampling around the universal
Gaussian probe. Two things to see here: the estimate is accurate at
practical sample counts, and its error shrinks like 1/sqrt(N).

Run:  python demos/03_control_vs_quadrature.py   (~10 s)
"""

import math

import numpy as np

from hpid.control import (
    QuadratureControlEvaluator,
    UhisConfig,
    UhisControlEvaluator,
)
from hpid.kernels import ScalarBeta
from hpid.rng import normals_from
from hpid.targets import DoubleWellEnergy

params = ScalarBeta(0.5, 1)
energy = DoubleWellEnergy(1, stiffness=1.0)


def bridge_scale(t):
    # where controlled trajectories actually live at time t: the universal
    # probe centered at xi corresponds to x = D(t) xi
    return math.sinh(t * math.sqrt(0.5)) / math.sinh(math.sqrt(0.5))


print("t      x       u(quadrature)  u(IS, N=1e5)   rel err")
oracle = QuadratureControlEvaluator(params, energy)
uhis = UhisControlEvaluator(params, energy, UhisConfig(n_is=100_000))
rng = np.random.default_rng(0)
for t in (0.6, 0.75, 0.9):
    for xi in (-1.8, 1.8):
        x = np.array([bridge_scale(t) * xi])
        u_q = float(oracle(t, x).drift[0])
        xi_is = normals_from(rng, (uhis.cfg.n_is, 1))
        u_is = float(uhis(t, x, xi_is).drift[0])
        print(
            f"{t:.2f}  {x[0]:6.3f}  {u_q:13.6f}  {u_is:13.6f}"
            f"   {abs(u_is - u_q) / abs(u_q):.2e}"
        )

print("\nerror vs sample count at (t=0.8, xi=1.8), 40 repeats each:")
t = 0.8
x = np.array([bridge_scale(t) * 1.8])
u_star = float(oracle(t, x).drift[0])
sizes = [100, 1000, 10_000]
errs = []
for i, n in enumerate(sizes):
    sq = 0.0
    uhis = UhisControlEvaluator(params, energy, UhisConfig(n_is=n))
    for r in range(40):
        noise = normals_from(np.random.default_rng(100 * i + r), (n, 1))
        u = float(uhis(t, x, noise).drift[0])
        sq += (u - u_star) ** 2
    errs.append(math.sqrt(sq / 40))
    print(f"  N = {n:>6}: rms error {errs[-1]:.4f}")
slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
print(f"fitted log-log slope: {slope:.3f}  (want ~ -0.5)")
