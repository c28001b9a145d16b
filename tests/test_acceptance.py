"""End-to-end accuracy gate.

Each test exercises one published capability at a fixed, pre-verified
configuration and prints a single PASS/FAIL line (run with -s to see the
lines as they happen). Tolerances are statistical bands or oracle
agreements; nothing here is tuned to the implementation's output.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.spatial.distance import pdist
from scipy.stats import chi2

from hpid.control import (
    EmpiricalControlEvaluator,
    EmpiricalTarget,
    FunctionControlEvaluator,
    UhisConfig,
    empirical_control,
    quadrature_control,
    uhis_control,
)
from hpid.diagnostics import autocorrelation, bootstrap_transition_gap, mode_assignment
from hpid.kernels import (
    ScalarBeta,
    decompose,
    drift_prefactors,
    kernel_coeffs,
    log_g_minus,
    log_g_plus,
    log_kernel_ratio,
)
from hpid.rng import normals_from
from hpid.sampler import RunConfig, estimate_z_convergence, run
from hpid.sde import SdeConfig, integrate_batch
from hpid.stationary import universal_probe
from hpid.targets import (
    DoubleWellEnergy,
    GaussianEnergy,
    grid_mixture,
    mixture_partition_oracle,
)


def _report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


def _scale(beta, t):
    # the x that puts the probe center at xi: x = D(t) xi
    if beta == 0.0:
        return t
    return math.sinh(t * math.sqrt(beta)) / math.sinh(math.sqrt(beta))


def test_importance_control_matches_quadrature_oracle():
    t0 = time.time()
    energy = DoubleWellEnergy(1, stiffness=1.0)
    worst = 0.0
    for k, beta in enumerate((0.0, 0.5, 2.0)):
        params = ScalarBeta(beta, 1)
        cfg = UhisConfig(n_is=10**5)
        rng = np.random.default_rng(47 + k)
        xis = (-2.2, -2.0, 2.0, 2.2) if beta == 2.0 else (-2.0, -1.8, 1.8, 2.0)
        for t in (0.70, 0.75, 0.80, 0.85, 0.90):
            for xi in xis:
                x = np.array([_scale(beta, t) * xi])
                u_q = float(quadrature_control(params, t, x, energy)[0])
                xi_is = normals_from(rng, (10**5, 1))
                u_is = float(uhis_control(params, cfg, t, x, energy, xi_is).drift[0])
                if abs(u_q) >= 0.05:
                    worst = max(worst, abs(u_is - u_q) / (0.02 * abs(u_q)))
                else:
                    worst = max(worst, abs(u_is - u_q) / 1e-3)
    _report(
        worst < 1.0,
        "importance-sampled control matches the quadrature oracle",
        f"worst error at {worst:.3f} of tolerance, 60 points, {time.time() - t0:.1f}s",
    )


MEAN_BAND = 0.015  # 3 SE of the mean at S = 1e4, sd 0.5
VAR_LO, VAR_HI = 0.23939, 0.26061  # 0.25 +- 3 SE of a variance estimate


@pytest.mark.slow
def test_gaussian_target_terminal_moments():
    t0 = time.time()
    s2 = 0.25

    def u_exact(t, x):
        return (s2 - 1.0) / (1.0 + t * (s2 - 1.0)) * x

    # certify the closed form against the quadrature oracle first
    oracle = GaussianEnergy(dim=1, sigma2=s2)
    zp = ScalarBeta(0.0, 1)
    mismatch = 0.0
    for t in (0.05, 0.3, 0.55, 0.8, 0.95):
        for x in (-1.2, 0.4, 1.7):
            u_q = float(quadrature_control(zp, t, np.array([x]), oracle)[0])
            mismatch = max(mismatch, abs(u_exact(t, x) - u_q))
    assert mismatch < 1e-8

    batch = integrate_batch(
        SdeConfig(n_steps=200, seed=777),
        FunctionControlEvaluator(u_exact),
        dim=2,
        n_trajectories=10_000,
    )
    mean_a = batch.terminals.mean(axis=0)
    var_a = batch.terminals.var(axis=0, ddof=1)

    summary = run(
        RunConfig(
            n_samples=10_000,
            sde=SdeConfig(n_steps=200, seed=1),
            beta=0.0,
            energy=GaussianEnergy(dim=2, sigma2=s2),
            control_mode="uhis",
            uhis=UhisConfig(n_is=4000, reuse_probe_noise=True),
        )
    )
    mean_b = summary.terminals.mean(axis=0)
    var_b = summary.terminals.var(axis=0, ddof=1)

    ok = True
    for mean, var in ((mean_a, var_a), (mean_b, var_b)):
        ok = ok and np.all(np.abs(mean) < MEAN_BAND)
        ok = ok and np.all((var > VAR_LO) & (var < VAR_HI))
    _report(
        ok,
        "narrow Gaussian target reproduces its moments",
        f"exact-control var {var_a.round(4)}, sampled var {var_b.round(4)}, "
        f"means |{np.abs(np.concatenate([mean_a, mean_b])).max():.4f}| < {MEAN_BAND}, "
        f"{time.time() - t0:.1f}s",
    )


@pytest.mark.slow
def test_grid_mixture_mode_coverage():
    t0 = time.time()
    m = grid_mixture()
    crit = chi2.ppf(0.99, 8)
    details = []
    ok = True
    for beta in (0.0, 0.1, 1.0):
        summary = run(
            RunConfig(
                n_samples=1000,
                sde=SdeConfig(n_steps=200, seed=314159),
                beta=beta,
                energy=m,
                control_mode="uhis",
                uhis=UhisConfig(n_is=10_000, reuse_probe_noise=True),
            )
        )
        hist = mode_assignment(summary.terminals, m)
        share = hist.counts.min() / 1000.0
        ok = ok and share >= 0.05 and hist.chi2 < crit
        details.append(f"beta={beta}: min share {share:.3f}, chi2 {hist.chi2:.2f}")
    _report(
        ok,
        "all nine mixture modes are populated evenly",
        "; ".join(details) + f"; critical {crit:.2f}, {time.time() - t0:.0f}s",
    )


@pytest.mark.slow
def test_partition_estimate_converges_with_steps_and_samples():
    t0 = time.time()
    m = grid_mixture()
    z_true = mixture_partition_oracle(m)
    base = RunConfig(
        n_samples=500,
        sde=SdeConfig(n_steps=100, seed=20260819),
        beta=0.5,
        energy=m,
        control_mode="uhis",
        uhis=UhisConfig(n_is=1000, reuse_probe_noise=True),
    )
    rows = estimate_z_convergence(
        base, steps_list=[25, 50, 100, 200], samples_list=[250, 500, 1000], n_repeats=10
    )
    ok = True
    details = []
    for sweep, settings in (("steps", [25, 50, 100, 200]), ("samples", [250, 500, 1000])):
        medians, iqrs = [], []
        for s in settings:
            zs = np.array([r["z"] for r in rows if r["sweep"] == sweep and r["setting"] == s])
            medians.append(float(np.median(zs)))
            q1, q3 = np.percentile(zs, [25, 75])
            iqrs.append(float(q3 - q1))
        err = abs(medians[-1] - z_true) / z_true
        ok = ok and err < 0.10 and iqrs[0] >= iqrs[-1]
        details.append(
            f"{sweep}: finest median {medians[-1]:.4f} (err {err:.1%}), "
            f"IQR {iqrs[0]:.3f}->{iqrs[-1]:.3f}"
        )
    _report(
        ok,
        "partition estimates tighten along both sweeps",
        f"oracle {z_true:.4f}; " + "; ".join(details) + f"; {time.time() - t0:.0f}s",
    )


def _pde_residual(params, side, t, x, y, h):
    if side == "plus":
        f = lambda tt, xx: math.exp(log_g_plus(params, tt, np.array([xx]), np.array([y])))
        sign = -1.0
    else:
        f = lambda tt, xx: math.exp(log_g_minus(params, tt, np.array([xx]), np.array([y])))
        sign = 1.0
    g_t = (f(t + h, x) - f(t - h, x)) / (2 * h)
    g_xx = (f(t, x + h) - 2 * f(t, x) + f(t, x - h)) / h**2
    return g_t + sign * (0.5 * g_xx - 0.5 * params.beta * x * x * f(t, x))


def test_kernel_pde_residuals_and_semigroup():
    t0 = time.time()
    pts = [(0.5, 0.7, -0.4), (0.35, -1.1, 0.6), (0.6, 0.2, 1.3)]
    worst_lo, worst_hi = np.inf, 0.0
    for beta in (0.0, 0.5, 2.0):
        params = ScalarBeta(beta, 1)
        for side in ("plus", "minus"):
            for t, x, y in pts:
                r1 = _pde_residual(params, side, t, x, y, 2e-2)
                r2 = _pde_residual(params, side, t, x, y, 1e-2)
                ratio = abs(r1) / abs(r2)
                worst_lo = min(worst_lo, ratio)
                worst_hi = max(worst_hi, ratio)
    second_order = 3.5 < worst_lo and worst_hi < 4.5

    zs = np.linspace(-14.0, 14.0, 4001)[:, None]
    worst_semi = 0.0
    params = ScalarBeta(0.9, 1)
    for t1, t2, y, x0 in [
        (0.3, 0.4, 0.8, -0.5),
        (0.2, 0.5, -1.2, 0.4),
        (0.45, 0.45, 0.0, 1.0),
    ]:
        left = math.exp(log_g_plus(params, t1 + t2, np.array([y]), np.array([x0])))
        inner = np.exp(
            log_g_plus(params, t2, np.array([y]), zs)
            + log_g_plus(params, t1, zs, np.array([x0]))
        )
        right = simpson(inner, x=zs[:, 0])
        worst_semi = max(worst_semi, abs(left - right) / abs(left))
    _report(
        second_order and worst_semi < 1e-6,
        "kernels satisfy their evolution equations",
        f"residual ratios in [{worst_lo:.2f}, {worst_hi:.2f}], "
        f"composition error {worst_semi:.2e}, {time.time() - t0:.1f}s",
    )


def test_zero_confinement_limit_continuity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    small, zero = ScalarBeta(1e-8, 1), ScalarBeta(0.0, 1)
    energy = DoubleWellEnergy(1, stiffness=1.0)
    target = EmpiricalTarget(rng.normal(size=(6, 1)))
    xi = rng.normal(size=(64, 1))
    worst = 0.0

    def close(a, b):
        nonlocal worst
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0))))

    for _ in range(100):
        t = float(rng.uniform(0.01, 0.95))
        x = rng.normal(size=1)
        y = rng.normal(size=1)
        close(log_g_minus(small, t, x, y), log_g_minus(zero, t, x, y))
        close(log_g_plus(small, t, x, y), log_g_plus(zero, t, x, y))
        close(log_kernel_ratio(small, t, x, y), log_kernel_ratio(zero, t, x, y))
        close(drift_prefactors(small, t), drift_prefactors(zero, t))
        ca, cb = kernel_coeffs(small, t), kernel_coeffs(zero, t)
        close(
            (ca.a_minus, ca.b_minus, ca.log_c_minus, ca.a_plus, ca.b_plus, ca.log_c_plus),
            (cb.a_minus, cb.b_minus, cb.log_c_minus, cb.a_plus, cb.b_plus, cb.log_c_plus),
        )
        pa, pb = universal_probe(small, t, x), universal_probe(zero, t, x)
        close((pa.mean[0], pa.precision), (pb.mean[0], pb.precision))
        ua = uhis_control(small, UhisConfig(n_is=64), t, x, energy, xi=xi)
        ub = uhis_control(zero, UhisConfig(n_is=64), t, x, energy, xi=xi)
        close(ua.drift, ub.drift)
        close(empirical_control(small, target, t, x).drift,
              empirical_control(zero, target, t, x).drift)
    _report(
        worst < 1e-6,
        "vanishing confinement joins the free-motion path smoothly",
        f"worst relative gap {worst:.2e} over 100 draws, {time.time() - t0:.1f}s",
    )


def test_matrix_kernel_consistency():
    t0 = time.time()
    rng = np.random.default_rng(1)
    iso_s = ScalarBeta(0.7, 3)
    iso_m = decompose(0.7 * np.eye(3))
    worst_iso = 0.0
    for _ in range(25):
        t = float(rng.uniform(0.05, 0.95))
        x, y = rng.normal(size=3), rng.normal(size=3)
        for fn in (log_g_minus, log_g_plus, log_kernel_ratio):
            worst_iso = max(worst_iso, abs(fn(iso_s, t, x, y) - fn(iso_m, t, x, y)))

    diag_vals = np.array([0.3, 1.1, 2.4])
    diag_m = decompose(np.diag(diag_vals))
    worst_sep = 0.0
    for _ in range(25):
        t = float(rng.uniform(0.05, 0.95))
        x, y = rng.normal(size=3), rng.normal(size=3)
        joint = log_g_minus(diag_m, t, x, y)
        split = sum(
            log_g_minus(ScalarBeta(b, 1), t, x[i : i + 1], y[i : i + 1])
            for i, b in enumerate(diag_vals)
        )
        worst_sep = max(worst_sep, abs(joint - split))

    base = np.diag(diag_vals)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = decompose(q @ base @ q.T)
    plain = decompose(base)
    worst_eq = 0.0
    for _ in range(25):
        t = float(rng.uniform(0.05, 0.95))
        x, y = rng.normal(size=3), rng.normal(size=3)
        worst_eq = max(
            worst_eq,
            abs(
                log_g_minus(rotated, t, x @ q.T, y @ q.T)
                - log_g_minus(plain, t, x, y)
            ),
        )
    _report(
        worst_iso < 1e-12 and worst_sep < 1e-10 and worst_eq < 1e-10,
        "matrix confinement agrees with its scalar and rotated forms",
        f"isotropic {worst_iso:.2e}, separability {worst_sep:.2e}, "
        f"equivariance {worst_eq:.2e}, {time.time() - t0:.1f}s",
    )


def _memorization_batch(beta, record_every):
    rows = np.random.default_rng(424242).normal(size=(10, 50)) * 5.0
    params = ScalarBeta(beta, 50)
    control = EmpiricalControlEvaluator(params, EmpiricalTarget(rows))
    cfg = SdeConfig(
        n_steps=400, seed=99, record_every=record_every, record_weighted_state=True
    )
    batch = integrate_batch(
        cfg, control, dim=50, n_trajectories=100, params=params, record="all"
    )
    return rows, batch


def test_empirical_target_memorizes_rows():
    t0 = time.time()
    ok = True
    details = []
    for beta in (0.0, 1.0):
        rows, batch = _memorization_batch(beta, record_every=400)
        radius = 0.5 * pdist(rows).min()
        d = np.linalg.norm(batch.terminals[:, None, :] - rows[None, :, :], axis=2)
        d.sort(axis=1)
        hits = np.all(d[:, 0] < radius) and np.all(d[:, 1] >= radius)
        commit = float((batch.max_weight_series[:, -1] > 0.999).mean())
        ok = ok and hits and commit >= 0.95
        details.append(
            f"beta={beta}: nearest<{radius:.1f} for all, committed {commit:.0%}"
        )
    _report(
        ok,
        "every trajectory lands on exactly one stored row",
        "; ".join(details) + f", {time.time() - t0:.1f}s",
    )


def test_weighted_state_precedes_state():
    t0 = time.time()
    ok = True
    details = []
    for beta in (0.0, 1.0):
        _, batch = _memorization_batch(beta, record_every=4)
        series = autocorrelation(
            batch.times, batch.states, batch.weighted_states, batch.terminals
        )
        boot = bootstrap_transition_gap(series, threshold=0.5, n_resamples=1000, seed=0)
        ok = ok and boot["p5"] >= 0.0
        details.append(f"beta={beta}: gap {boot['gap']:.3f}, p5 {boot['p5']:.3f}")
    _report(
        ok,
        "the weighted state commits before the state follows",
        "; ".join(details) + f", {time.time() - t0:.1f}s",
    )


def test_importance_error_scales_inverse_root_n():
    t0 = time.time()
    params = ScalarBeta(0.5, 1)
    energy = DoubleWellEnergy(1, stiffness=1.0)
    t = 0.8
    x = np.array([_scale(0.5, t) * 1.8])
    u_star = float(quadrature_control(params, t, x, energy)[0])
    sizes = [100, 1000, 10_000, 100_000]
    errs = []
    for i, n in enumerate(sizes):
        sq = 0.0
        for r in range(60):
            cfg = UhisConfig(n_is=n)
            xi = normals_from(np.random.default_rng(8000 + 1000 * i + r), (n, 1))
            u = float(uhis_control(params, cfg, t, x, energy, xi).drift[0])
            sq += (u - u_star) ** 2
        errs.append(math.sqrt(sq / 60))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    ok = -0.65 < slope < -0.35 and all(a > b for a, b in zip(errs, errs[1:]))
    _report(
        ok,
        "control error shrinks as the square root of the sample count",
        f"rms errors {[f'{e:.4f}' for e in errs]}, slope {slope:.3f}, "
        f"{time.time() - t0:.1f}s",
    )
