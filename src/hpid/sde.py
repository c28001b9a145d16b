"""Euler-Maruyama integration of the controlled process dx = u dt + dW.

Uniform grid on [0, 1], K steps, x(0) = 0. The drift is always evaluated
at the left endpoint of each step, so the singular time t = 1 is never
queried and the 1/(1-t) growth of the optimal drift is tamed exactly.

Noise comes from counter-based streams keyed by (seed, step, purpose)
with one row per trajectory, and the drift evaluators form every product
over trajectory rows on fixed 16-row tiles (kernels._rows_matmul), so a
trajectory's path is bit-identical no matter how the batch is partitioned
or threaded: for every evaluator, shared probe panels included, and for
scalar or matrix beta. Each step also adds its exact term to the path's
log weight against the uncontrolled harmonic reference process: the
Euler Girsanov term plus the one-step Mehler-over-heat-kernel factor
(zero at beta = 0). The weight has no discretization bias at any step
count; the sampler's partition-function estimate is built on it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrationError
from .kernels import ScalarBeta, _harmonic_step
from .rng import PURPOSE_INCREMENT, PURPOSE_PROBE, normal_rows


@dataclass(frozen=True)
class SdeConfig:
    n_steps: int  # K
    seed: int
    record_every: int = 1

    def __post_init__(self):
        if self.n_steps < 2:
            raise InputError(f"n_steps must be >= 2, got {self.n_steps}")
        if not (1 <= self.record_every <= self.n_steps):
            raise InputError(
                f"record_every must be in [1, {self.n_steps}], got {self.record_every}"
            )

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps


@dataclass(frozen=True)
class BatchTrajectories:
    """Trajectories advanced together; recording restricted to record_indices.

    times hold the drift-evaluation instants; the state at t = 1 lives in
    terminals, after the last step. The recorded arrays have B_rec = 0
    rows when nothing is recorded.
    """

    times: np.ndarray  # (R,)
    record_indices: np.ndarray  # (B_rec,) indices into the batch
    states: np.ndarray  # (B_rec, R, d)
    weighted_states: np.ndarray  # (B_rec, R, d)
    ess_series: np.ndarray  # (B_rec, R)
    max_weight_series: np.ndarray  # (B_rec, R)
    terminals: np.ndarray  # (B, d)
    log_weight: np.ndarray  # (B,) log dP_reference / dP_controlled of the path
    ess_min_per: np.ndarray  # (B,) minimum ESS over steps, per trajectory


def _resolve_record(record, n_trajectories):
    if record is None or record == "none":
        return np.empty(0, dtype=int)
    if isinstance(record, str):
        if record == "all":
            return np.arange(n_trajectories)
        raise InputError(f"record must be 'none', 'all', or indices, got {record!r}")
    idx = np.asarray(record, dtype=int)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= n_trajectories)):
        raise InputError(f"record indices out of range for batch of {n_trajectories}")
    return idx


def integrate_batch(
    cfg: SdeConfig,
    control,
    dim: int,
    n_trajectories: int,
    first_trajectory: int = 0,
    params=None,
    record="none",
) -> BatchTrajectories:
    """Advance n_trajectories paths together through all K steps.

    first_trajectory offsets the noise rows, so splitting a population of
    paths into consecutive batches reproduces exactly the paths a single
    large batch would produce. params, of dimension dim, is log_weight's
    reference potential; None is the free beta = 0 reference. control
    answers per point: drift and x-hat (B, dim), ESS and max weight (B,).
    """
    if n_trajectories < 1:
        raise InputError(f"n_trajectories must be >= 1, got {n_trajectories}")
    params = ScalarBeta(0.0, dim) if params is None else params  # checks dim >= 1
    if params.dim != dim:
        raise InputError(f"params has dim {params.dim}, the paths have dim {dim}")
    K = cfg.n_steps
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    B = n_trajectories

    noise_shape = control.noise_shape(dim)
    # a shared panel is the step's one row, so it is invariant under batch splits
    shared = getattr(control, "reuse_probe_noise", False)
    first, rows = (0, 1) if shared else (first_trajectory, B)
    rec_idx = _resolve_record(record, B)
    rec_steps = sorted({k for k in range(K) if k % cfg.record_every == 0} | {K - 1})
    rec_col = {k: r for r, k in enumerate(rec_steps)}
    R = len(rec_steps)
    n_rec = rec_idx.size

    times = np.array([k * dt for k in rec_steps])
    states = np.empty((n_rec, R, dim))
    w_states = np.empty((n_rec, R, dim))
    ess_series = np.empty((n_rec, R))
    maxw_series = np.empty((n_rec, R))

    x = np.zeros((B, dim))
    log_w = np.zeros(B)
    step_factor = _harmonic_step(params, dt)
    # each state is rotated into the eigenbasis once and carried
    x_eig = params.to_eigenbasis(x)
    ess_min_per = np.full(B, math.inf)

    for k in range(K):
        t = k * dt
        xi_probe = None
        if noise_shape is not None:
            xi_probe = normal_rows(
                cfg.seed, k, PURPOSE_PROBE, first, rows, math.prod(noise_shape)
            ).reshape(noise_shape if shared else (rows, *noise_shape))
        out = control(t, x, xi=xi_probe)
        u = np.asarray(out.drift, dtype=float)
        if u.shape != x.shape:
            raise InputError(
                f"control returned drift of shape {u.shape}, expected {x.shape}"
            )

        np.minimum(ess_min_per, out.ess, out=ess_min_per)
        if n_rec and k in rec_col:
            r = rec_col[k]
            states[:, r] = x[rec_idx]  # state at the drift instant
            w_states[:, r] = out.weighted_state[rec_idx]
            ess_series[:, r] = out.ess[rec_idx]
            maxw_series[:, r] = out.max_weight[rec_idx]

        xi = normal_rows(cfg.seed, k, PURPOSE_INCREMENT, first_trajectory, B, dim)
        x_new = x + u * dt + sqrt_dt * xi
        bad = ~np.all(np.isfinite(x_new), axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise IntegrationError(
                step=k,
                state_norm=float(np.linalg.norm(x[i])),
                trajectory=first_trajectory + i,
            )
        log_w += -sqrt_dt * np.einsum("bd,bd->b", u, xi) - 0.5 * dt * np.einsum(
            "bd,bd->b", u, u
        )
        x_new_eig = params.to_eigenbasis(x_new)
        log_w += step_factor(x_eig, x_new_eig)
        x, x_eig = x_new, x_new_eig

    return BatchTrajectories(
        times=times,
        record_indices=rec_idx,
        states=states,
        weighted_states=w_states,
        ess_series=ess_series,
        max_weight_series=maxw_series,
        terminals=x,
        log_weight=log_w,
        ess_min_per=ess_min_per,
    )

